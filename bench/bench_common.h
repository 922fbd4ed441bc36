// Shared harness for the per-figure benchmark binaries.
//
// Every binary regenerates one table or figure from the paper's evaluation:
// it prints the paper-style rows (plus paper-reported reference values where
// the paper gives absolute numbers) and — via the shared main — feeds a
// report::BenchReport that `--report_json=<path>` serializes for the
// perfgate CI pipeline (see EXPERIMENTS.md, "Perf reports"). Host-side
// timing lives in the repository benchmark (perfbench/).
//
// A binary is two pieces:
//   void PrintFigureN(report::BenchReport& report) { ... }   // rows+metrics
//   HETEROLLM_BENCH_MAIN("figN_name", PrintFigureN)          // shared main

#ifndef BENCH_BENCH_COMMON_H_
#define BENCH_BENCH_COMMON_H_

#include <string>
#include <vector>

#include "src/common/table.h"
#include "src/core/engine_registry.h"
#include "src/core/execution_report.h"
#include "src/report/bench_report.h"
#include "src/serve/serving_metrics.h"
#include "src/workload/metrics.h"

namespace heterollm::benchx {

// Runs `engine_name` on a fresh platform/model; simulate-mode weights.
core::GenerationStats RunEngineOnce(const std::string& engine_name,
                                    const model::ModelConfig& cfg,
                                    int prompt_len, int decode_len,
                                    core::EngineOptions opts = {});

// Lowercases a model/engine name into a metric-path segment
// ("Hetero-tensor" -> "hetero_tensor", "Llama-8B" -> "llama_8b").
std::string Slug(const std::string& name);

// Prints the section banner and records it as the report title.
void PrintHeader(report::BenchReport& report, const std::string& id,
                 const std::string& what);

// Prints the rendered table and captures it structurally into the report.
void EmitTable(report::BenchReport& report, const std::string& section,
               const TextTable& table);

// Prints the paper-vs-measured comparison table and records every row as a
// gated anchor (metric name "anchor/<label>" in the JSON).
void EmitAnchors(report::BenchReport& report, const std::string& title,
                 const std::vector<workload::PaperComparison>& rows);

// MetricOptions shorthands: direction decides what the perf gate treats as
// a regression (see report::Better).
report::BenchReport::MetricOptions HigherIsBetter(
    const std::string& unit,
    double tolerance = report::BenchReport::kDefaultTolerance);
report::BenchReport::MetricOptions LowerIsBetter(
    const std::string& unit,
    double tolerance = report::BenchReport::kDefaultTolerance);
report::BenchReport::MetricOptions Calibration(
    const std::string& unit,
    double tolerance = report::BenchReport::kDefaultTolerance);

// Records the aggregate serving metrics (throughput, TTFT/TPOT tails,
// energy) plus the per-unit busy/bytes/flops rows of the embedded
// ExecutionReport under "<prefix>.".
void AddServingMetrics(report::BenchReport& report, const std::string& prefix,
                       const serve::ServingMetrics& m);

// Records per-unit busy time, utilization, DRAM bytes and flops under
// "<prefix>.unit.<name>.".
void AddExecutionReport(report::BenchReport& report, const std::string& prefix,
                        const core::ExecutionReport& er);

// Shared main. Parses the harness flags, runs `print_fn` against a fresh
// BenchReport and serializes the report when requested. Any other argument
// is an error (exit 2).
//
// Harness flags:
//   --report_json=<path>   write the schema-versioned JSON report
int BenchMain(int argc, char** argv, const char* bench_id,
              void (*print_fn)(report::BenchReport&));

}  // namespace heterollm::benchx

// Every bench binary's entire main(): shared flag handling and report
// plumbing in one place.
#define HETEROLLM_BENCH_MAIN(bench_id, print_fn)                     \
  int main(int argc, char** argv) {                                  \
    return ::heterollm::benchx::BenchMain(argc, argv, bench_id,      \
                                          print_fn);                 \
  }

#endif  // BENCH_BENCH_COMMON_H_
