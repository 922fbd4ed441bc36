#!/usr/bin/env python3
"""Repository benchmark: builds the runner from source and runs one workload.

Usage (from the repository root):

    python3 perfbench/run.py --workload chat_serve --seed 1 --seconds 5 --trace 0
    python3 perfbench/run.py --held-out          # every workload on two seeds

The runner (perfbench/src/) is built with CMake into the directory named by
CARGO_TARGET_DIR, or `.bench_build` when unset. Each workload runs in a
fresh process. The runner's human-readable report is passed through; the
last line printed is the result object
{"correct", "attempted", "failed", "metrics"}: the end-to-end metrics with
--trace 0, the per-layer metrics with --trace 1. See perfbench/README.md.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
SPEC = os.path.join(HERE, os.pardir, "BENCHMARK.json")
WORKLOADS = ("chat_serve", "agentic_fleet", "compute_generate")
DEFAULT_SEED = 1
HELD_OUT_SEED = 424242
HELD_OUT_METRICS = ("ttft_p50_ms", "ttft_p90_ms", "tpot_p50_ms",
                    "tpot_p90_ms", "task_p90_ms", "slo_rate_rps",
                    "energy_mj_per_tok", "success_frac")
RUN_TIMEOUT_S = 170
TIME_UNITS = ("s", "ms", "us")


def build_dir():
    return os.path.abspath(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))


def build():
    """Configures and builds the runner; returns its path."""
    out = build_dir()
    log = sys.stderr
    subprocess.run(["cmake", "-S", HERE, "-B", out,
                    "-DCMAKE_BUILD_TYPE=Release"],
                   check=True, stdout=log, stderr=log)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(["cmake", "--build", out, "--target", "perfbench_runner",
                    "-j", jobs], check=True, stdout=log, stderr=log)
    return os.path.join(out, "perfbench_runner")


def run_workload(runner, workload, seed, seconds, trace):
    """Runs one workload in its own process; returns (report lines, result)."""
    proc = subprocess.run(
        [runner, "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        stdout=subprocess.PIPE, text=True, timeout=RUN_TIMEOUT_S, check=True)
    lines = proc.stdout.rstrip("\n").split("\n")
    result = json.loads(lines[-1])
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        raise ValueError("malformed result line: " + lines[-1])
    return lines[:-1], result


def contract_result(result, trace):
    """The result restricted to the metrics BENCHMARK.json names.

    A per-layer count or ratio the runner did not record belongs to a layer
    this workload does not call and reads 0; any other missing metric, or a
    unit that disagrees with BENCHMARK.json, is an error.
    """
    with open(SPEC) as f:
        spec = json.load(f)
    got = result["metrics"]
    metrics = {}
    for m in spec["per_layer" if trace else "end_to_end"]:
        name, unit = m["name"], m["unit"]
        if name in got:
            if got[name]["unit"] != unit:
                raise ValueError("%s: unit %s, BENCHMARK.json says %s" %
                                 (name, got[name]["unit"], unit))
            value = got[name]["value"]
        elif trace and unit not in TIME_UNITS:
            value = 0
        else:
            raise ValueError("the runner did not report " + name)
        metrics[name] = {"value": value, "unit": unit}
    return {"correct": result["correct"], "attempted": result["attempted"],
            "failed": result["failed"], "metrics": metrics}


def held_out(runner):
    """Latency, rate, energy and success metrics of every workload on the
    default and the held-out seed (host clock for the closed loop)."""
    print("%-18s %-18s %14s %14s" % ("workload", "metric",
                                      "seed %d" % DEFAULT_SEED,
                                      "seed %d" % HELD_OUT_SEED))
    for workload in WORKLOADS:
        results = [run_workload(runner, workload, seed, 1, 0)[1]
                   for seed in (DEFAULT_SEED, HELD_OUT_SEED)]
        for name in HELD_OUT_METRICS:
            print("%-18s %-18s %14.4f %14.4f" % (
                workload, name, results[0]["metrics"][name]["value"],
                results[1]["metrics"][name]["value"]))


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=5)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--held-out", action="store_true",
                        help="report simulated metrics on a held-out seed")
    args = parser.parse_args()
    if not args.held_out and args.workload is None:
        parser.error("--workload is required")

    runner = build()
    if args.held_out:
        held_out(runner)
        return 0
    lines, result = run_workload(runner, args.workload, args.seed,
                                 args.seconds, args.trace)
    print("\n".join(lines))
    print(json.dumps(contract_result(result, args.trace)))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except (subprocess.SubprocessError, OSError, ValueError) as err:
        print("perfbench: %s" % err, file=sys.stderr)
        sys.exit(1)
