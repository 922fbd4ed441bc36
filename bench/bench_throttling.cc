// Dynamic conditions: thermal/DVFS throttling and scripted interference
// during multi-session serving, with and without epoch-driven reactive
// re-planning.
//
// The platform runs the MobileSustained thermal model plus a scripted
// condition trace (a low-power governor caps the NPU mid-run, then a
// background app starts streaming DRAM). Partition plans and compiled
// schedules solved before the trace engages are stale afterwards: the NPU
// pieces of every cut now run slower and the bandwidth ceiling shrank. The
// reactive engine notices the device-state epoch advance, drops the stale
// caches and re-solves (paying the re-plan cost); the frozen baseline keeps
// executing its original plans at the throttled clocks. Pass
// --report_json=<path> for the machine-readable comparison.

#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "bench/bench_common.h"
#include "src/common/strings.h"
#include "src/common/table.h"
#include "src/serve/iteration_scheduler.h"
#include "src/serve/request_queue.h"
#include "src/serve/replica.h"
#include "src/serve/serving_metrics.h"
#include "src/sim/thermal_model.h"

namespace heterollm {
namespace {

using model::ModelConfig;
using serve::RequestQueue;
using serve::ServingMetrics;

constexpr const char* kEngine = "Hetero-tensor";
constexpr int kMaxBatch = 8;
constexpr int kSessions = 16;
constexpr MicroSeconds kMeanInterarrivalUs = 3e4;

// A low-power governor mode caps the NPU 100 ms into the run and a
// background app starts streaming DRAM at 300 ms; neither lifts, modelling
// the sustained-throttling regime the rest of the run executes under.
std::vector<sim::ConditionEvent> ThrottleTrace() {
  std::vector<sim::ConditionEvent> trace;
  {
    sim::ConditionEvent cap;
    cap.time = 1e5;
    cap.unit = "npu";
    cap.frequency_cap = 0.4;
    trace.push_back(cap);
  }
  {
    sim::ConditionEvent background;
    background.time = 3e5;
    background.background_bandwidth_bytes_per_us = 15e3;
    trace.push_back(background);
  }
  return trace;
}

RequestQueue MakeTrace() {
  // Prefill-heavy chat turns whose prompts land on a few standard padded
  // lengths (chat templates bucket prompts). Recurring shapes are what make
  // plan staleness observable: a shape solved before the throttle event is
  // replayed from cache afterwards, so the frozen engine keeps executing the
  // full-speed cut while the reactive one re-solves it. (A workload where
  // every prompt length is unique solves each prefill fresh — under the
  // already-throttled clocks — in both engines, hiding the effect.)
  std::vector<serve::Request> reqs;
  constexpr int kPromptBuckets[] = {256, 512, 128, 384};
  for (int i = 0; i < kSessions; ++i) {
    reqs.push_back(serve::Request::Chat(i, i * kMeanInterarrivalUs,
                                        kPromptBuckets[i % 4],
                                        8 + (i * 5) % 17));
  }
  return RequestQueue(reqs);
}

struct ThrottledRun {
  ServingMetrics metrics;
  std::vector<std::string> unit_names;
  std::vector<double> frequency_factor;  // at end of run
  std::vector<double> temperature_c;
};

ThrottledRun ServeOnce(const model::ModelWeights& weights, bool reactive) {
  serve::ReplicaOptions ropts;
  ropts.platform = core::PlatformOptionsFor(kEngine);
  ropts.platform.thermal = sim::ThermalConfig::MobileSustained();
  ropts.platform.conditions = ThrottleTrace();
  ropts.engine = kEngine;
  ropts.engine_options.reactive_replanning = reactive;
  ropts.scheduler.max_decode_batch = kMaxBatch;
  auto replica = serve::Replica::Create(ropts, &weights);
  HCHECK(replica.ok());

  ThrottledRun run;
  run.metrics = (*replica)->Serve(MakeTrace());
  const sim::SocSimulator& soc = (*replica)->platform().soc();
  for (int u = 0; u < soc.unit_count(); ++u) {
    run.unit_names.push_back(soc.unit_spec(u).name);
    run.frequency_factor.push_back(soc.UnitFrequencyFactor(u));
    run.temperature_c.push_back(soc.UnitTemperature(u));
  }
  return run;
}

void PrintThrottlingComparison(report::BenchReport& report) {
  benchx::PrintHeader(report, "Throttling",
                      "reactive re-planning vs frozen plans under DVFS "
                      "throttling (Llama-8B serving)");
  const ModelConfig cfg = ModelConfig::Llama8B();
  model::ModelWeights weights =
      model::ModelWeights::Create(cfg, model::ExecutionMode::kSimulate);

  const ThrottledRun frozen = ServeOnce(weights, /*reactive=*/false);
  const ThrottledRun reactive = ServeOnce(weights, /*reactive=*/true);

  TextTable table({"engine", "decode tok/s", "agg tok/s", "ttft p99 (ms)",
                   "e2e p99 (ms)", "replans", "energy (mJ)"});
  struct Row {
    const char* name;
    const ThrottledRun* run;
  };
  for (const Row& row :
       {Row{"frozen plans", &frozen}, Row{"reactive", &reactive}}) {
    const ServingMetrics& m = row.run->metrics;
    table.AddRow({row.name, StrFormat("%.1f", m.decode_tokens_per_s()),
                  StrFormat("%.1f", m.aggregate_tokens_per_s()),
                  StrFormat("%.1f", m.ttft_p99() / 1e3),
                  StrFormat("%.1f", m.latency_p99() / 1e3),
                  StrFormat("%d", m.replan_events),
                  StrFormat("%.1f", m.energy / 1e3)});
    benchx::AddServingMetrics(
        report, "throttling." + benchx::Slug(row.name), m);
  }
  benchx::EmitTable(report, "throttling", table);
  report.AddMetric("throttling.reactive_decode_speedup",
                   reactive.metrics.decode_tokens_per_s() /
                       frozen.metrics.decode_tokens_per_s(),
                   benchx::HigherIsBetter("x"));
  std::printf(
      "\ndecode speedup %.2fx, ttft p99 %.1f -> %.1f ms "
      "(re-plan cost included)\n",
      reactive.metrics.decode_tokens_per_s() /
          frozen.metrics.decode_tokens_per_s(),
      frozen.metrics.ttft_p99() / 1e3, reactive.metrics.ttft_p99() / 1e3);

  std::printf("\nend-of-run device state (reactive run):\n");
  for (size_t u = 0; u < reactive.unit_names.size(); ++u) {
    std::printf("  %-4s freq factor %.2f, %.1f degC\n",
                reactive.unit_names[u].c_str(), reactive.frequency_factor[u],
                reactive.temperature_c[u]);
    report.AddMetric(
        "throttling.device." + benchx::Slug(reactive.unit_names[u]) +
            ".freq_factor",
        reactive.frequency_factor[u], benchx::Calibration(""));
  }
}

}  // namespace
}  // namespace heterollm

HETEROLLM_BENCH_MAIN("throttling", heterollm::PrintThrottlingComparison)
