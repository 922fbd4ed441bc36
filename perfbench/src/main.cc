// Benchmark runner: one workload per process.
//
//   perfbench_runner --workload <name> [--seed N] [--seconds S] [--trace 0|1]
//
// Untraced (--trace 0) it times set-up several times, then repeats the
// nominal pass while the next pass should end within S seconds (at least
// three times, ten for a workload that reruns on the same system; a pass
// that needs a fresh system is preceded by another set-up).
// It reports set-up time as a median and host throughput from per-slice
// minima over the passes (see SliceMinima), the simulated-clock metrics of
// the nominal pass, the SLO rate from the rate ladder and the output
// checks, and ends with one JSON line holding the end-to-end metrics.
// Traced (--trace 1) it alternates traced and untraced set-ups and passes,
// records a span around every call into a layer and ends with every
// per-layer metric it recorded instead (perfbench/run.py keeps the ones
// BENCHMARK.json names); the gap between the two kinds of pass is the
// tracing overhead.

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <map>
#include <memory>
#include <numeric>
#include <string>
#include <vector>

#include "src/stats.h"
#include "src/trace.h"
#include "src/workloads.h"

namespace perfbench {
namespace {

// A pass on a fresh system (the open loops) costs seconds; a rerunnable
// one is short, and its per-step minima need more samples.
constexpr int kMinPasses = 3;
constexpr int kMinRerunnablePasses = 10;
constexpr int kMaxPasses = 60;
// Set-up samples: at least kMinSetups, more while they have cost under
// kSetupBudgetS in all, at most kMaxSetups.
constexpr int kMinSetups = 5;
constexpr int kMaxSetups = 40;
constexpr double kSetupBudgetS = 0.5;
// Backlog guard: the last quarter of arrivals may see at most 3x the first
// quarter's TTFT p50, plus 500 ms, before the nominal pass counts as
// overloaded.
constexpr double kBacklogFactor = 3;
constexpr double kBacklogSlackUs = 500e3;

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
};

bool ParseArgs(int argc, char** argv, Args* args) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const char* value = argv[i + 1];
    if (key == "--workload") {
      args->workload = value;
    } else if (key == "--seed") {
      args->seed = std::strtoull(value, nullptr, 10);
    } else if (key == "--seconds") {
      args->seconds = std::strtod(value, nullptr);
    } else if (key == "--trace") {
      args->trace = std::strcmp(value, "1") == 0;
    } else {
      return false;
    }
  }
  return argc % 2 == 1 && !args->workload.empty() && args->seconds > 0;
}

// Process high-water resident set, MB.
double PeakRssMb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
    }
  }
  return 0;
}

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
  const char* clock = "";
};

void PrintMetrics(const char* title, const std::vector<Metric>& metrics) {
  std::printf("%s\n", title);
  for (const Metric& m : metrics) {
    std::printf("  %-32s %16.6f %-8s %s\n", m.name.c_str(), m.value,
                m.unit.c_str(), m.clock);
  }
}

std::string ResultJson(bool correct, int64_t attempted, int64_t failed,
                       const std::vector<Metric>& metrics) {
  std::string out = "{\"correct\": ";
  out += correct ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(attempted);
  out += ", \"failed\": " + std::to_string(failed);
  out += ", \"metrics\": {";
  for (size_t i = 0; i < metrics.size(); ++i) {
    char value[64];
    std::snprintf(value, sizeof value, "%.17g", metrics[i].value);
    out += (i ? ", \"" : "\"") + metrics[i].name + "\": {\"value\": " +
           value + ", \"unit\": \"" + metrics[i].unit + "\"}";
  }
  return out + "}}";
}

// The workload's host clock: process CPU time for the single-threaded
// simulations, the steady clock for the closed loop's kernel threads.
double HostClock(const Workload& w) {
  return w.rates().open_loop ? HostCpuSeconds() : HostSeconds();
}

// Releases the previous system and sets up a fresh one; returns the
// set-up's seconds on the workload's host clock.
double TimedSetup(Workload& w, uint64_t seed, Tracer* tracer) {
  w.Release();
  const double t0 = HostClock(w);
  {
    ScopedSpan span(tracer, "bench.setup");
    w.Setup(seed, tracer);
  }
  return HostClock(w) - t0;
}

// One nominal pass, timed on the workload's host clock.
struct Rep {
  double pass_s = 0;
  bool traced = false;
  PassOutcome outcome;
};

Rep RunRep(Workload& w, Tracer* tracer) {
  Rep rep;
  rep.traced = tracer != nullptr;
  const double t0 = HostClock(w);
  {
    ScopedSpan span(tracer, "bench.pass");
    rep.outcome = w.Run(1.0, tracer);
  }
  rep.pass_s = HostClock(w) - t0;
  return rep;
}

// The untraced passes' slices, each followed by the rest of its pass (the
// host time outside every slice) as one more slice.
std::vector<std::vector<double>> UntracedSlices(const std::vector<Rep>& reps) {
  std::vector<std::vector<double>> out;
  for (const Rep& rep : reps) {
    if (!rep.traced) {
      std::vector<double> slices = rep.outcome.slice_s;
      slices.push_back(rep.pass_s -
                       std::accumulate(slices.begin(), slices.end(), 0.0));
      out.push_back(std::move(slices));
    }
  }
  return out;
}

// Latency summary of one pass, on the workload's latency clock.
struct Latency {
  double ttft_p50_ms = 0;
  double ttft_p90_ms = 0;
  double tpot_p50_ms = 0;
  double tpot_p90_ms = 0;
  double task_p90_ms = 0;
};

Latency LatencyOf(const PassOutcome& out) {
  const std::vector<double> ttft = TtftSamples(out.requests);
  const std::vector<double> tpot = TpotSamples(out.requests);
  Latency l;
  l.ttft_p50_ms = Percentile(ttft, 50) / 1e3;
  l.ttft_p90_ms = Percentile(ttft, 90) / 1e3;
  l.tpot_p50_ms = Percentile(tpot, 50) / 1e3;
  l.tpot_p90_ms = Percentile(tpot, 90) / 1e3;
  l.task_p90_ms = Percentile(out.task_latency_us, 90) / 1e3;
  return l;
}

// SLO rate of an open-loop workload: the highest ladder rate at which the
// stated share of offered work meets both limits.
double SloRate(Workload& w, uint64_t seed,
               std::vector<std::string>* problems) {
  const RateSpec& rates = w.rates();
  const int rung =
      LadderSearch(rates.ladder.size(), rates.slo.share, [&](size_t i) {
        const double t0 = HostSeconds();
        w.Release();
        w.Setup(seed, nullptr);
        const PassOutcome out = w.Run(rates.ladder[i] / rates.nominal, nullptr);
        const double share = AttainedShare(rates.slo, out.requests,
                                           out.offered);
        const Latency l = LatencyOf(out);
        std::printf("ladder %-8.4g share %.3f  ttft p90 %.1f ms  tpot p90 "
                    "%.2f ms  (%.1f host s)\n",
                    rates.ladder[i], share, l.ttft_p90_ms, l.tpot_p90_ms,
                    HostSeconds() - t0);
        return share;
      });
  // A rate off either end of the ladder is not a measurement.
  if (rung < 0) {
    problems->push_back("no ladder rate meets the SLO");
    return rates.ladder.front();
  }
  if (rung + 1 == static_cast<int>(rates.ladder.size())) {
    problems->push_back("the top ladder rate meets the SLO: rate clipped");
  }
  return rates.ladder[static_cast<size_t>(rung)];
}

// Unit of a per-layer metric, from its name.
const char* UnitOf(const std::string& name) {
  const auto ends = [&](const char* suffix) {
    const size_t n = std::strlen(suffix);
    return name.size() >= n && name.compare(name.size() - n, n, suffix) == 0;
  };
  if (ends("_ms")) return "ms";
  if (ends("_us") || ends("_us_p50") || ends("_us_p99")) return "us";
  if (ends("_frac") || ends("_rate")) return "frac";
  if (ends("_gb")) return "GB";
  if (ends("_mj")) return "mJ";
  if (ends("_gflop_s")) return "GFLOP/s";
  if (ends("_per_host_s")) return "1/s";
  if (ends("imbalance") || ends("avg_decode_batch")) return "ratio";
  if (ends("max_abs_diff")) return "abs";
  return "count";
}

// Span durations by name over the traced set-ups and passes, in µs.
std::map<std::string, std::vector<double>> SpanDurations(
    const std::vector<Span>& spans) {
  std::map<std::string, std::vector<double>> out;
  for (const Span& s : spans) {
    out[s.name].push_back(s.duration());
  }
  return out;
}

int Main(int argc, char** argv) {
  Args args;
  if (!ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: perfbench_runner --workload <name> [--seed N] "
                 "[--seconds S] [--trace 0|1]\n");
    return 2;
  }
  std::unique_ptr<Workload> w = MakeWorkload(args.workload);
  if (w == nullptr) {
    std::fprintf(stderr, "unknown workload '%s'\n", args.workload.c_str());
    return 2;
  }
  std::setvbuf(stdout, nullptr, _IOLBF, 0);
  std::printf("workload %s  seed %" PRIu64 "  seconds %g  trace %d\n",
              args.workload.c_str(), args.seed, args.seconds, args.trace);

  // Set-up samples, then timed passes. Traced runs alternate untraced and
  // traced set-ups and passes so both see the same machine conditions;
  // only untraced ones are host samples.
  Tracer tracer;
  std::vector<double> setup_s;
  int setups = 0;
  const double setup_start = HostSeconds();
  while (setups < kMinSetups ||
         (setups < kMaxSetups &&
          HostSeconds() - setup_start < kSetupBudgetS)) {
    const bool traced = args.trace && setups % 2 == 1;
    const double s = TimedSetup(*w, args.seed, traced ? &tracer : nullptr);
    if (!traced) {
      setup_s.push_back(s);
    }
    ++setups;
  }
  w->WarmUp();
  std::vector<Rep> reps;
  double peak_rss_mb = 0;
  const double start = HostSeconds();
  // Another pass while it should end within the time budget.
  const auto room_for_more = [&] {
    const double elapsed = HostSeconds() - start;
    return reps.size() < static_cast<size_t>(kMaxPasses) &&
           elapsed + elapsed / static_cast<double>(reps.size()) <=
               args.seconds;
  };
  const size_t min_passes =
      w->Rerunnable() ? kMinRerunnablePasses : kMinPasses;
  while (reps.size() < min_passes || room_for_more()) {
    const bool traced = args.trace && reps.size() % 2 == 1;
    Tracer* t = traced ? &tracer : nullptr;
    if (!reps.empty() && !w->Rerunnable()) {
      const double s = TimedSetup(*w, args.seed, t);
      if (!traced) {
        setup_s.push_back(s);
      }
      w->WarmUp();
    }
    reps.push_back(RunRep(*w, t));
    // Read after the first pass: later passes repeat its work, but on a
    // reused engine the simulator's kernel history keeps growing, so a
    // later reading would grow with the number of passes, i.e. with the
    // host's speed.
    if (reps.size() == 1) {
      peak_rss_mb = PeakRssMb();
    }
  }
  PassOutcome& nominal = reps.front().outcome;
  w->CheckOutside(&nominal);

  std::vector<std::string> problems;
  const uint64_t digest = SimDigest(nominal.requests);
  const RateSpec& rates = w->rates();
  // Open loops run on the simulated clock, closed loops on the host clock.
  const char* clock = rates.open_loop ? "sim" : "host";
  for (const Rep& rep : reps) {
    if (rates.open_loop && SimDigest(rep.outcome.requests) != digest) {
      problems.push_back("simulated timeline differs between passes");
      break;
    }
  }
  for (const std::string& why : nominal.failures) {
    problems.push_back(why);
  }

  // Host-clock samples from the untraced passes.
  std::vector<double> tok_s, traced_tok_s;
  for (const Rep& rep : reps) {
    const double rate = rep.outcome.tokens / rep.pass_s;
    (rep.traced ? traced_tok_s : tok_s).push_back(rate);
  }
  std::printf("passes %zu  set-up s:", reps.size());
  for (double s : setup_s) {
    std::printf(" %.4f", s);
  }
  std::printf("\nhost tok/s (%s clock):",
              rates.open_loop ? "process CPU" : "steady");
  for (const Rep& rep : reps) {
    std::printf(" %.1f%s", rep.outcome.tokens / rep.pass_s,
                rep.traced ? "(t)" : "");
  }
  std::printf("\n");

  // Host throughput: every pass does the same work slice by slice, and
  // other processes can only add time, so the pass is costed as the sum of
  // its slices' minima over the untraced passes.
  const std::vector<double> minima = SliceMinima(UntracedSlices(reps));
  if (minima.empty()) {
    problems.push_back("passes differ in their slice count");
  }
  const double host_s = std::accumulate(minima.begin(), minima.end(), 0.0);
  const double host_tok_s = nominal.tokens / host_s;
  std::printf("slices %zu  host s from slice minima %.4f, median pass %.4f\n",
              minima.size(), host_s, nominal.tokens / Median(tok_s));

  // Latency metrics: the nominal pass on the simulated clock. On the host
  // clock (the closed loop) slice i is engine step i, so each request's
  // latencies are rebuilt from its steps' minima; percentiles and the SLO
  // rate are taken over those.
  Latency lat = LatencyOf(nominal);
  double closed_rate = 0;
  if (!rates.open_loop && !minima.empty()) {
    const size_t n = nominal.requests.size();
    std::vector<double> ttft, tpot, task;
    int64_t met = 0;
    size_t step = 0;
    for (size_t i = 0; i < n; ++i) {
      // The prefill emits the first token, each decode step one more.
      const int steps = nominal.requests[i].decoded_tokens;
      const double first = minima[step] * 1e6;
      double decode = 0;
      for (int d = 1; d < steps; ++d) {
        decode += minima[step + static_cast<size_t>(d)] * 1e6;
      }
      step += static_cast<size_t>(steps);
      ttft.push_back(first);
      task.push_back(first + decode);
      bool ok = first <= rates.slo.ttft_us;
      if (steps >= 2) {
        tpot.push_back(decode / (steps - 1));
        ok = ok && tpot.back() <= rates.slo.tpot_us;
      }
      met += ok;
    }
    // One stream: the loop's span is the sum of its request latencies.
    closed_rate = met / (std::accumulate(task.begin(), task.end(), 0.0) / 1e6);
    lat.ttft_p50_ms = Percentile(ttft, 50) / 1e3;
    lat.ttft_p90_ms = Percentile(ttft, 90) / 1e3;
    lat.tpot_p50_ms = Percentile(tpot, 50) / 1e3;
    lat.tpot_p90_ms = Percentile(tpot, 90) / 1e3;
    lat.task_p90_ms = Percentile(task, 90) / 1e3;
  }
  const size_t n_ttft = TtftSamples(nominal.requests).size();
  const size_t n_tpot = TpotSamples(nominal.requests).size();
  for (const auto& [what, n] :
       {std::pair<const char*, size_t>{"ttft", n_ttft},
        {"tpot", n_tpot},
        {"task", nominal.task_latency_us.size()}}) {
    if (!HasTail(n, 90)) {
      problems.push_back(std::string(what) + " p90 has fewer than ten " +
                         "samples beyond it (" + std::to_string(n) + ")");
    }
  }
  std::printf("samples: ttft %zu  tpot %zu  task %zu  (latency clock: %s)\n",
              n_ttft, n_tpot, nominal.task_latency_us.size(),
              clock);
  if (rates.open_loop) {
    std::printf("sim_digest %016" PRIx64 "\n", digest);
    const Backlog b =
        BacklogOf(nominal.requests, kBacklogFactor, kBacklogSlackUs);
    std::printf("backlog: ttft p50 first quarter %.3f ms, last quarter %.3f "
                "ms -> %s\n",
                b.first_quarter_p50_us / 1e3, b.last_quarter_p50_us / 1e3,
                b.growing ? "GROWING" : "steady");
    if (b.growing) {
      problems.push_back("backlog grows over the nominal pass");
    }
  }
  const int64_t ok = nominal.offered - nominal.failed;

  if (!args.trace) {
    const double slo_rate =
        rates.open_loop ? SloRate(*w, args.seed, &problems) : closed_rate;
    const std::vector<Metric> metrics = {
        {"ttft_p50_ms", lat.ttft_p50_ms, "ms", clock},
        {"ttft_p90_ms", lat.ttft_p90_ms, "ms", clock},
        {"tpot_p50_ms", lat.tpot_p50_ms, "ms", clock},
        {"tpot_p90_ms", lat.tpot_p90_ms, "ms", clock},
        {"task_p90_ms", lat.task_p90_ms, "ms", clock},
        {"slo_rate_rps", slo_rate, "1/s", clock},
        {"energy_mj_per_tok", nominal.energy_uj / 1e3 / nominal.tokens,
         "mJ/tok", "sim"},
        {"success_frac", static_cast<double>(ok) / nominal.offered, "frac",
         "-"},
        {"host_tok_s", host_tok_s, "tok/s", "host"},
        {"peak_rss_mb", peak_rss_mb, "MB", "host"},
        {"setup_s", Median(setup_s), "s", "host"},
    };
    PrintMetrics("end-to-end metrics", metrics);
    for (const std::string& p : problems) {
      std::printf("CHECK FAILED: %s\n", p.c_str());
    }
    std::printf("%s\n", ResultJson(problems.empty(), nominal.offered,
                                   nominal.failed, metrics)
                            .c_str());
    return 0;
  }

  // Traced run: per-layer metrics from the spans and the layer counters.
  std::map<std::string, double> layer = nominal.layer;
  const std::map<std::string, std::vector<double>> spans =
      SpanDurations(tracer.spans());
  const auto span_median_ms = [&](const char* name) {
    const auto it = spans.find(name);
    return it == spans.end() ? 0.0 : Median(it->second) / 1e3;
  };
  const auto span_sum_s = [&](const char* name) {
    const auto it = spans.find(name);
    return it == spans.end()
               ? 0.0
               : std::accumulate(it->second.begin(), it->second.end(), 0.0) /
                     1e6;
  };
  const double traced_passes = static_cast<double>(traced_tok_s.size());
  layer["workload.trace_gen_ms"] = span_median_ms("workload.trace_gen");
  layer["model.weights_create_ms"] = span_median_ms("model.weights_create");
  layer["workload.requests"] = static_cast<double>(nominal.offered);
  double decode = 0;
  for (const RequestTimes& r : nominal.requests) {
    decode += r.decoded_tokens;
  }
  layer["workload.prompt_tokens"] = nominal.tokens - decode;
  layer["workload.decode_tokens"] = decode;
  layer["sim.kernels_per_host_s"] = layer["sim.kernels"] * Median(tok_s) /
                                    nominal.tokens;
  if (spans.count("sched.round")) {
    std::vector<double> rounds = spans.at("sched.round");
    layer["sched.round_host_us_p50"] = Percentile(rounds, 50);
    layer["sched.round_host_us_p99"] = Percentile(rounds, 99);
    layer["sched.submit_host_us"] = span_median_ms("sched.submit") * 1e3;
    layer["sched.end_window_host_ms"] = span_median_ms("sched.end_window");
  }
  if (spans.count("cluster.serve_tasks")) {
    layer["cluster.serve_tasks_host_ms"] =
        span_median_ms("cluster.serve_tasks");
  }
  if (spans.count("engine.prefill")) {
    layer["engine.prefill_host_ms"] = span_median_ms("engine.prefill");
    layer["engine.decode_step_host_ms"] = span_median_ms("engine.decode_step");
    layer["tensor.prefill_gflop_s"] = layer["tensor.prefill_gflop"] *
                                      traced_passes /
                                      span_sum_s("engine.prefill");
    layer["tensor.decode_gflop_s"] = layer["tensor.decode_gflop"] *
                                     traced_passes /
                                     span_sum_s("engine.decode_step");
  }
  // The benchmark's own share of a pass: the pass span minus the layer
  // calls under it.
  const std::vector<double> self = SelfTimes(tracer.spans());
  std::vector<double> pass_self;
  for (size_t i = 0; i < tracer.spans().size(); ++i) {
    if (std::strcmp(tracer.spans()[i].name, "bench.pass") == 0) {
      pass_self.push_back(self[i]);
    }
  }
  layer["bench.pass_self_ms"] = Median(pass_self) / 1e3;
  layer["trace.overhead_frac"] = Median(tok_s) / Median(traced_tok_s) - 1;

  std::vector<Metric> metrics;
  for (const auto& [name, value] : layer) {
    metrics.push_back({name, value, UnitOf(name), ""});
  }
  PrintMetrics("per-layer metrics", metrics);
  std::printf("tracing overhead on host_tok_s: %.2f%% (untraced median %.1f, "
              "traced median %.1f tok/s)\n",
              100 * layer["trace.overhead_frac"], Median(tok_s),
              Median(traced_tok_s));
  for (const std::string& p : problems) {
    std::printf("CHECK FAILED: %s\n", p.c_str());
  }
  std::printf("%s\n", ResultJson(problems.empty(), nominal.offered,
                                 nominal.failed, metrics)
                          .c_str());
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Main(argc, argv); }
