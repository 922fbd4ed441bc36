// Cross-request prefix reuse: the shared-system-prompt serving pattern
// with the paged KV pool's prefix cache on vs off, on the same trace.
//
// Mobile agent stacks prepend one long system prompt (tool specs, persona,
// few-shot examples) to nearly every request. With the prefix cache on, a
// repeat of the shared head adopts the committed blocks and prefills only
// its unique suffix, so TTFT collapses; and because shared blocks are
// counted once across sessions, the same KV budget admits more concurrent
// sessions. Pass --report_json=<path> for the machine-readable comparison.

#include <cstdio>
#include <string>
#include <vector>

#include "bench/bench_common.h"
#include "src/common/strings.h"
#include "src/common/table.h"
#include "src/model/kv_cache.h"
#include "src/serve/iteration_scheduler.h"
#include "src/serve/request_queue.h"
#include "src/serve/replica.h"
#include "src/serve/serving_metrics.h"

namespace heterollm {
namespace {

using model::KvCache;
using model::ModelConfig;
using serve::RequestQueue;
using serve::ServingMetrics;

constexpr const char* kEngine = "Hetero-tensor";
constexpr int kSessions = 24;
constexpr int kMaxBatch = 8;
constexpr MicroSeconds kMeanInterarrivalUs = 3e4;
constexpr int kSharedPrefixLen = 384;  // the common system prompt

RequestQueue MakeTrace() {
  Rng rng(4242);
  return RequestQueue::SyntheticSharedPrefix(
      rng, kSessions, kMeanInterarrivalUs,
      /*shared_fraction=*/0.8, kSharedPrefixLen,
      /*min_suffix=*/8, /*max_suffix=*/48,
      /*min_decode=*/8, /*max_decode=*/24);
}

ServingMetrics ServeOnce(const model::ModelWeights& weights,
                         const RequestQueue& trace, bool enable_prefix) {
  const ModelConfig cfg = ModelConfig::InternLM1_8B();
  serve::ReplicaOptions ropts;
  ropts.platform = core::PlatformOptionsFor(kEngine);
  ropts.engine = kEngine;
  ropts.scheduler.max_decode_batch = kMaxBatch;
  ropts.scheduler.enable_prefix_cache = enable_prefix;
  // Tight pool: ~2.5 whole conversations of headroom. Without sharing the
  // reservation math serializes admissions; with the shared head counted
  // once, most sessions only add their private suffix blocks.
  ropts.scheduler.kv_budget_bytes = KvCache::BytesForTokens(cfg, 1200);
  auto replica = serve::Replica::Create(ropts, &weights);
  HCHECK(replica.ok());
  return (*replica)->Serve(trace);
}

double MeanTtftUs(const ServingMetrics& m) {
  double sum = 0;
  for (const serve::RequestMetrics& r : m.requests) {
    sum += r.ttft();
  }
  return m.requests.empty() ? 0 : sum / static_cast<double>(m.requests.size());
}

void PrintPrefixReuseComparison(report::BenchReport& report) {
  benchx::PrintHeader(report, "Prefix reuse",
                      "paged KV pool prefix cache on vs off, 80% shared "
                      "384-token system prompt (InternLM-1.8B)");
  const ModelConfig cfg = ModelConfig::InternLM1_8B();
  model::ModelWeights weights =
      model::ModelWeights::Create(cfg, model::ExecutionMode::kSimulate);
  const RequestQueue trace = MakeTrace();

  const ServingMetrics off = ServeOnce(weights, trace, /*enable_prefix=*/false);
  const ServingMetrics on = ServeOnce(weights, trace, /*enable_prefix=*/true);

  TextTable table({"prefix cache", "ttft mean (ms)", "ttft p50 (ms)",
                   "ttft p99 (ms)", "agg tok/s", "peak sessions", "hit rate",
                   "blocks evicted"});
  struct Row {
    const char* name;
    const ServingMetrics* m;
  };
  for (const Row& row : {Row{"off", &off}, Row{"on", &on}}) {
    const ServingMetrics& m = *row.m;
    table.AddRow({row.name, StrFormat("%.1f", MeanTtftUs(m) / 1e3),
                  StrFormat("%.1f", m.ttft_p50() / 1e3),
                  StrFormat("%.1f", m.ttft_p99() / 1e3),
                  StrFormat("%.1f", m.aggregate_tokens_per_s()),
                  StrFormat("%d", m.peak_active_sessions),
                  StrFormat("%.2f", m.prefix_hit_rate()),
                  StrFormat("%lld",
                            static_cast<long long>(m.blocks_evicted))});
    const std::string prefix =
        std::string("prefix_reuse.") + (row.m == &on ? "on" : "off");
    benchx::AddServingMetrics(report, prefix, m);
    report.AddMetric(prefix + ".ttft_mean_ms", MeanTtftUs(m) / 1e3,
                     benchx::LowerIsBetter("ms"));
  }
  benchx::EmitTable(report, "prefix_reuse", table);

  const double reduction = 1.0 - MeanTtftUs(on) / MeanTtftUs(off);
  report.AddMetric("prefix_reuse.ttft_mean_reduction_pct", reduction * 100.0,
                   benchx::HigherIsBetter("%"));
  report.AddMetric("prefix_reuse.peak_sessions_gain",
                   static_cast<double>(on.peak_active_sessions -
                                       off.peak_active_sessions),
                   benchx::HigherIsBetter("sessions"));
  std::printf(
      "\nmean TTFT %.1f -> %.1f ms (%.0f%% reduction), peak sessions "
      "%d -> %d, hit rate %.2f\n",
      MeanTtftUs(off) / 1e3, MeanTtftUs(on) / 1e3, reduction * 100.0,
      off.peak_active_sessions, on.peak_active_sessions,
      on.prefix_hit_rate());
}

}  // namespace
}  // namespace heterollm

HETEROLLM_BENCH_MAIN("prefix_reuse", heterollm::PrintPrefixReuseComparison)
