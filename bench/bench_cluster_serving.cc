// Multi-SoC cluster serving: routing policies over a heterogeneous fleet
// under shared-prefix traffic.
//
// Four Table 1 SoCs (8 Gen 3, K9300, A18, Orin), each a full serving
// replica derived from the 8 Gen 3 calibration via
// `PlatformOptions::FromSocSpec`, co-simulate behind the cluster router.
// The trace is the mobile multi-agent pattern: 70% of requests open with
// one shared 320-token system prompt. Round-robin scatters that family
// across the fleet, so every replica pays the cold prefill and — with the
// KV pool sized tight — keeps re-paying it as unrelated conversations
// evict the head. Prefix-affinity routes the family back to the replica
// whose cache verifiably holds it (live probe, not a stale hint), so the
// head stays warm on one SoC and TTFT collapses toward suffix-only
// prefill. Least-loaded sits between: no redundant-prefill pathology, no
// cache awareness. Goodput scores completions against a TTFT+TPOT SLO per
// the cluster makespan. Pass --report_json=<path> for the machine-readable
// comparison.

#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "bench/bench_common.h"
#include "src/common/strings.h"
#include "src/common/table.h"
#include "src/model/kv_cache.h"
#include "src/serve/cluster/cluster.h"
#include "src/serve/cluster/cluster_metrics.h"
#include "src/serve/cluster/cluster_router.h"
#include "src/serve/replica.h"
#include "src/serve/request_queue.h"
#include "src/serve/serving_metrics.h"
#include "src/sim/soc_spec.h"

namespace heterollm {
namespace {

using model::KvCache;
using model::ModelConfig;
using serve::ClusterMetrics;
using serve::RequestQueue;
using serve::RoutingPolicy;
using serve::RoutingPolicyName;

constexpr int kRequests = 40;
constexpr MicroSeconds kMeanInterarrivalUs = 1.2e4;
constexpr int kSharedPrefixLen = 320;  // the common system prompt
constexpr double kSharedFraction = 0.7;
constexpr int kMaxBatch = 8;
// SLO scored into goodput: first token within 4 s, 120 ms/token after.
constexpr MicroSeconds kSloTtftUs = 4e6;
constexpr MicroSeconds kSloTpotUs = 1.2e5;

constexpr const char* kFleet[] = {"8 Gen 3", "K9300", "A18", "Orin"};

RequestQueue MakeTrace() {
  Rng rng(7070);
  return RequestQueue::SyntheticSharedPrefix(
      rng, kRequests, kMeanInterarrivalUs, kSharedFraction, kSharedPrefixLen,
      /*min_suffix=*/8, /*max_suffix=*/48,
      /*min_decode=*/8, /*max_decode=*/24);
}

ClusterMetrics ServeOnce(const model::ModelWeights& weights,
                         RoutingPolicy policy) {
  const ModelConfig cfg = ModelConfig::InternLM1_8B();
  std::vector<std::unique_ptr<serve::Replica>> fleet;
  for (const char* soc : kFleet) {
    serve::ReplicaOptions ropts;
    ropts.name = benchx::Slug(soc);
    ropts.device = soc;
    ropts.platform = core::PlatformOptions::FromSocSpec(sim::FindSocSpec(soc));
    ropts.scheduler.max_decode_batch = kMaxBatch;
    // Tight per-replica pool (see bench_prefix_reuse): unique suffixes and
    // the 30% unrelated conversations churn it, so a scattered shared head
    // does not stay resident for free.
    ropts.scheduler.kv_budget_bytes = KvCache::BytesForTokens(cfg, 1200);
    StatusOr<std::unique_ptr<serve::Replica>> replica =
        serve::Replica::Create(ropts, &weights);
    HCHECK(replica.ok());
    fleet.push_back(std::move(replica).value());
  }
  serve::ClusterOptions copts;
  copts.router.policy = policy;
  copts.router.max_pending = 64;
  copts.router.max_replica_queue = 6;
  copts.slo.ttft_us = kSloTtftUs;
  copts.slo.tpot_us = kSloTpotUs;
  serve::Cluster cluster(std::move(fleet), copts);
  return cluster.Serve(MakeTrace());
}

void PrintClusterComparison(report::BenchReport& report) {
  benchx::PrintHeader(
      report, "Cluster serving",
      "routing policies over 4 heterogeneous SoCs, 70% shared 320-token "
      "system prompt (InternLM-1.8B)");
  const ModelConfig cfg = ModelConfig::InternLM1_8B();
  model::ModelWeights weights =
      model::ModelWeights::Create(cfg, model::ExecutionMode::kSimulate);

  constexpr RoutingPolicy kPolicies[] = {RoutingPolicy::kRoundRobin,
                                         RoutingPolicy::kLeastLoaded,
                                         RoutingPolicy::kPrefixAffinity};
  std::vector<ClusterMetrics> runs;
  TextTable table({"policy", "goodput (req/s)", "slo %", "agg tok/s",
                   "ttft p99 (ms)", "tpot p99 (ms)", "prefix hit",
                   "rejected"});
  for (const RoutingPolicy policy : kPolicies) {
    runs.push_back(ServeOnce(weights, policy));
    const ClusterMetrics& m = runs.back();
    table.AddRow({RoutingPolicyName(policy),
                  StrFormat("%.2f", m.goodput_rps()),
                  StrFormat("%.0f", m.slo_attainment() * 100.0),
                  StrFormat("%.1f", m.aggregate_tokens_per_s()),
                  StrFormat("%.1f", m.ttft_tail().p99 / 1e3),
                  StrFormat("%.1f", m.tpot_tail().p99 / 1e3),
                  StrFormat("%.2f", m.prefix_hit_rate()),
                  StrFormat("%lld", static_cast<long long>(m.rejected))});
    const std::string prefix = std::string("cluster.") + RoutingPolicyName(policy);
    report.AddMetric(prefix + ".goodput_rps", m.goodput_rps(),
                     benchx::HigherIsBetter("req/s"));
    report.AddMetric(prefix + ".slo_attainment", m.slo_attainment(),
                     benchx::HigherIsBetter(""));
    report.AddMetric(prefix + ".agg_tok_per_s", m.aggregate_tokens_per_s(),
                     benchx::HigherIsBetter("tok/s"));
    report.AddMetric(prefix + ".ttft_p99_ms", m.ttft_tail().p99 / 1e3,
                     benchx::LowerIsBetter("ms"));
    report.AddMetric(prefix + ".tpot_p99_ms", m.tpot_tail().p99 / 1e3,
                     benchx::LowerIsBetter("ms"));
    report.AddMetric(prefix + ".makespan_ms", m.makespan() / 1e3,
                     benchx::LowerIsBetter("ms"));
    report.AddMetric(prefix + ".prefix_hit_rate", m.prefix_hit_rate(),
                     benchx::HigherIsBetter(""));
  }
  benchx::EmitTable(report, "cluster_serving", table);

  const ClusterMetrics& rr = runs[0];
  const ClusterMetrics& affinity = runs[2];
  const double ttft_improvement =
      rr.ttft_tail().p99 / affinity.ttft_tail().p99;
  const double goodput_gain = affinity.goodput_rps() / rr.goodput_rps();
  report.AddMetric("cluster.affinity_vs_rr.ttft_p99_improvement",
                   ttft_improvement, benchx::HigherIsBetter("x"));
  report.AddMetric("cluster.affinity_vs_rr.goodput_gain", goodput_gain,
                   benchx::HigherIsBetter("x"));

  // Per-replica view of the winning policy: where the shared family landed
  // and what each SoC's cache did for it.
  std::printf("\nprefix-affinity fleet detail:\n%s\n",
              affinity.Render().c_str());
  for (const ClusterMetrics::ReplicaRow& row : affinity.replicas) {
    report.AddMetric(
        "cluster.prefix_affinity.replica." + benchx::Slug(row.name) +
            ".prefix_hit_rate",
        row.metrics.prefix_hit_rate(), benchx::HigherIsBetter(""));
  }

  std::printf(
      "\naffinity vs round-robin: ttft p99 %.1f -> %.1f ms (%.2fx), "
      "goodput %.2f -> %.2f req/s (%.2fx)\n",
      rr.ttft_tail().p99 / 1e3, affinity.ttft_tail().p99 / 1e3,
      ttft_improvement, rr.goodput_rps(), affinity.goodput_rps(),
      goodput_gain);
}

}  // namespace
}  // namespace heterollm

HETEROLLM_BENCH_MAIN("cluster_serving", heterollm::PrintClusterComparison)
