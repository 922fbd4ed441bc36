// Speculative decoding: heterogeneous draft/verify split on one SoC.
//
// Decode is memory-bound (§4.1.2): one step streams the whole weight set
// from DRAM to score a single token, so scoring window+1 tokens in one
// batched verify pass costs barely more than one. Three single-session
// configurations decode the same workload on Llama-8B:
//
//   plain        window 0 — the verify loop degenerates to greedy decode
//   ngram        window 4, host-side n-gram self-draft (no second model)
//   draft-model  window 4, InternLM-1.8B drafting on the same platform
//
// plus a serving-mode comparison (continuous batching, window 0 vs 4) where
// every slot in a batched verify iteration advances by up to window+1
// tokens and rejected drafts are rolled back block-exactly on the paged KV
// pool. Pass --report_json=<path> for the machine-readable comparison; the
// perf gate pins tokens/step > 1 and the decode tok/s win.

#include <cstdio>
#include <string>
#include <vector>

#include "bench/bench_common.h"
#include "src/common/rng.h"
#include "src/common/strings.h"
#include "src/common/table.h"
#include "src/model/kv_cache.h"
#include "src/serve/iteration_scheduler.h"
#include "src/serve/request_queue.h"
#include "src/serve/replica.h"
#include "src/serve/serving_metrics.h"
#include "src/serve/speculative.h"

namespace heterollm {
namespace {

using model::KvCache;
using model::ModelConfig;
using serve::RequestQueue;
using serve::ServingMetrics;
using serve::SpeculativeDecoder;
using serve::SpeculativeOptions;
using serve::SpeculativeStats;

constexpr const char* kEngine = "Hetero-tensor";
constexpr int kWindow = 4;
constexpr int kPromptLen = 96;
constexpr int kDecodeLen = 160;

// Chat-style prompt: a small id alphabet with heavy repetition, the regime
// where the n-gram table actually finds its contexts.
std::vector<int32_t> MakePrompt() {
  Rng rng(99);
  std::vector<int32_t> prompt;
  prompt.reserve(kPromptLen);
  for (int i = 0; i < kPromptLen; ++i) {
    prompt.push_back(static_cast<int32_t>(rng.NextBelow(64)));
  }
  return prompt;
}

struct SingleSessionResult {
  SpeculativeStats stats;
  MicroSeconds prefill_latency = 0;
};

// One single-session decode run on simulate-mode Llama-8B. `window` 0 is
// the plain-greedy baseline (same code path, no drafts); `use_draft_model`
// adds an InternLM-1.8B draft engine sharing the platform clock.
SingleSessionResult RunSingleSession(int window, bool use_draft_model,
                                     double sim_acceptance) {
  const ModelConfig cfg = ModelConfig::Llama8B();
  model::ModelWeights weights =
      model::ModelWeights::Create(cfg, model::ExecutionMode::kSimulate);
  core::Platform platform(core::PlatformOptionsFor(kEngine));
  core::EngineOptions opts;
  opts.kv_capacity = 512;
  // The tail of a generation shrinks the draft window (k = remaining - 1),
  // so every verify width up to window+1 needs a static graph.
  opts.decode_widths.clear();
  for (int w = 1; w <= window + 1; ++w) {
    opts.decode_widths.push_back(w);
  }
  auto engine = core::CreateEngine(kEngine, &platform, &weights, opts);

  const ModelConfig draft_cfg = ModelConfig::InternLM1_8B();
  model::ModelWeights draft_weights =
      model::ModelWeights::Create(draft_cfg, model::ExecutionMode::kSimulate);
  std::unique_ptr<core::EngineBase> draft_engine;
  if (use_draft_model) {
    core::EngineOptions draft_opts;
    draft_opts.kv_capacity = 512;
    draft_opts.decode_widths = {1};
    draft_engine =
        core::CreateEngine(kEngine, &platform, &draft_weights, draft_opts);
  }

  KvCache cache(cfg, opts.kv_capacity, model::ExecutionMode::kSimulate);
  SpeculativeOptions spec;
  spec.window = window;
  spec.sim_acceptance = sim_acceptance;
  spec.draft_engine = draft_engine.get();
  SpeculativeDecoder decoder(engine.get(), &cache, spec);

  SingleSessionResult result;
  const MicroSeconds prefill_start = engine->host_now();
  decoder.Prefill(MakePrompt());
  result.prefill_latency = engine->host_now() - prefill_start;
  decoder.Generate(kDecodeLen);
  result.stats = decoder.stats();
  return result;
}

RequestQueue MakeServingTrace() {
  Rng rng(1234);
  return RequestQueue::Synthetic(rng, /*count=*/12,
                                 /*mean_interarrival_us=*/4e4,
                                 /*min_prompt=*/32, /*max_prompt=*/192,
                                 /*min_decode=*/24, /*max_decode=*/64);
}

ServingMetrics ServeOnce(const model::ModelWeights& weights,
                         const RequestQueue& trace, int window) {
  const ModelConfig cfg = ModelConfig::InternLM1_8B();
  serve::ReplicaOptions ropts;
  ropts.platform = core::PlatformOptionsFor(kEngine);
  ropts.engine = kEngine;
  ropts.scheduler.max_decode_batch = 4;
  ropts.scheduler.speculative_window = window;
  ropts.scheduler.kv_budget_bytes = KvCache::BytesForTokens(cfg, 4096);
  auto replica = serve::Replica::Create(ropts, &weights);
  HCHECK(replica.ok());
  return (*replica)->Serve(trace);
}

void AddSingleSessionMetrics(report::BenchReport& report,
                             const std::string& prefix,
                             const SingleSessionResult& r,
                             double baseline_tok_per_s) {
  report.AddMetric(prefix + ".decode_tok_per_s", r.stats.tokens_per_s(),
                   benchx::HigherIsBetter("tok/s"));
  report.AddMetric(prefix + ".tokens_per_step", r.stats.tokens_per_step(),
                   benchx::HigherIsBetter("tok/step"));
  report.AddMetric(prefix + ".acceptance_rate", r.stats.acceptance_rate(),
                   benchx::HigherIsBetter(""));
  report.AddMetric(prefix + ".verify_steps",
                   static_cast<double>(r.stats.verify_steps),
                   benchx::LowerIsBetter("steps"));
  report.AddMetric(prefix + ".rollback_tokens",
                   static_cast<double>(r.stats.rollback_tokens),
                   benchx::Calibration("tok"));
  if (baseline_tok_per_s > 0) {
    report.AddMetric(prefix + ".speedup_vs_plain",
                     r.stats.tokens_per_s() / baseline_tok_per_s,
                     benchx::HigherIsBetter("x"));
  }
}

void PrintSpeculative(report::BenchReport& report) {
  benchx::PrintHeader(report, "Speculative decoding",
                      "draft/verify split: Llama-8B verify, n-gram or "
                      "InternLM-1.8B draft, CoW accept/rollback");

  // --- single session: plain vs n-gram vs draft model ------------------
  const SingleSessionResult plain =
      RunSingleSession(/*window=*/0, /*use_draft_model=*/false,
                       /*sim_acceptance=*/0.0);
  // The n-gram table guesses from repetition alone; the trained draft
  // model agrees with the target far more often. The simulate-mode
  // acceptance probabilities encode that gap.
  const SingleSessionResult ngram =
      RunSingleSession(kWindow, /*use_draft_model=*/false,
                       /*sim_acceptance=*/0.45);
  const SingleSessionResult draft =
      RunSingleSession(kWindow, /*use_draft_model=*/true,
                       /*sim_acceptance=*/0.75);
  const double base_tok_s = plain.stats.tokens_per_s();

  TextTable table({"config", "window", "tok/step", "accept", "decode tok/s",
                   "speedup", "rolled back"});
  struct Row {
    const char* name;
    int window;
    const SingleSessionResult* r;
  };
  for (const Row& row : {Row{"plain", 0, &plain}, Row{"ngram", kWindow, &ngram},
                         Row{"draft-model", kWindow, &draft}}) {
    const SpeculativeStats& s = row.r->stats;
    table.AddRow(
        {row.name, StrFormat("%d", row.window),
         StrFormat("%.2f", s.tokens_per_step()),
         StrFormat("%.2f", s.acceptance_rate()),
         StrFormat("%.1f", s.tokens_per_s()),
         StrFormat("%.2fx", base_tok_s > 0 ? s.tokens_per_s() / base_tok_s : 0),
         StrFormat("%lld", static_cast<long long>(s.rollback_tokens))});
    AddSingleSessionMetrics(
        report, std::string("speculative.") + row.name, *row.r,
        row.r == &plain ? 0.0 : base_tok_s);
  }
  benchx::EmitTable(report, "speculative_single", table);

  // --- serving: continuous batching, window 0 vs 4 ---------------------
  const ModelConfig cfg = ModelConfig::InternLM1_8B();
  model::ModelWeights weights =
      model::ModelWeights::Create(cfg, model::ExecutionMode::kSimulate);
  const RequestQueue trace = MakeServingTrace();
  const ServingMetrics off = ServeOnce(weights, trace, /*window=*/0);
  const ServingMetrics on = ServeOnce(weights, trace, kWindow);

  TextTable serving({"speculation", "decode tok/s", "tok/iter", "accept",
                     "iters", "makespan (ms)"});
  struct SRow {
    const char* name;
    const ServingMetrics* m;
  };
  for (const SRow& row : {SRow{"off", &off}, SRow{"on", &on}}) {
    const ServingMetrics& m = *row.m;
    const double tok_per_iter =
        m.decode_iterations > 0
            ? static_cast<double>(m.total_decoded_tokens()) /
                  m.decode_iterations
            : 0;
    serving.AddRow({row.name, StrFormat("%.1f", m.decode_tokens_per_s()),
                    StrFormat("%.2f", tok_per_iter),
                    StrFormat("%.2f", m.speculative_acceptance_rate()),
                    StrFormat("%d", m.decode_iterations),
                    StrFormat("%.1f", ToMillis(m.makespan()))});
    const std::string prefix =
        std::string("speculative.serve_") + (row.m == &on ? "on" : "off");
    benchx::AddServingMetrics(report, prefix, m);
    report.AddMetric(prefix + ".tokens_per_iter", tok_per_iter,
                     benchx::HigherIsBetter("tok/iter"));
    report.AddMetric(prefix + ".acceptance_rate",
                     m.speculative_acceptance_rate(),
                     benchx::HigherIsBetter(""));
  }
  benchx::EmitTable(report, "speculative_serving", serving);
  report.AddMetric("speculative.serve_speedup",
                   off.decode_tokens_per_s() > 0
                       ? on.decode_tokens_per_s() / off.decode_tokens_per_s()
                       : 0,
                   benchx::HigherIsBetter("x"));

  std::printf(
      "\nsingle session: %.2f (ngram) / %.2f (draft model) tokens per "
      "verify step, decode %.1f -> %.1f / %.1f tok/s; serving decode "
      "%.1f -> %.1f tok/s\n",
      ngram.stats.tokens_per_step(), draft.stats.tokens_per_step(),
      base_tok_s, ngram.stats.tokens_per_s(), draft.stats.tokens_per_s(),
      off.decode_tokens_per_s(), on.decode_tokens_per_s());
}

}  // namespace
}  // namespace heterollm

HETEROLLM_BENCH_MAIN("speculative", heterollm::PrintSpeculative)
