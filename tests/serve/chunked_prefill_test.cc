// Chunked prefill: compute-mode bit-exactness of chunk-by-chunk prefill
// against one-shot prefill (the emitted greedy stream is identical), and
// the kHybridChunked serving policy — budget-shared hybrid iterations,
// preempt-mid-prompt resume without re-prefilling, prefix-cache hits
// skipping whole chunks, and composition with speculative decoding.

#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "src/core/engine_registry.h"
#include "src/model/kv_cache.h"
#include "src/model/kv_pool.h"
#include "src/serve/iteration_scheduler.h"
#include "src/serve/request_queue.h"
#include "src/serve/serving_engine.h"
#include "src/serve/serving_metrics.h"
#include "src/serve/speculative.h"

namespace heterollm::serve {
namespace {

using model::ExecutionMode;
using model::KvBlockPool;
using model::KvCache;
using model::ModelConfig;
using model::ModelWeights;
using tensor::Shape;
using tensor::Tensor;

constexpr const char* kEngine = "Hetero-tensor";
constexpr uint64_t kSeed = 23;

struct Harness {
  std::unique_ptr<core::Platform> platform;
  std::unique_ptr<core::EngineBase> engine;
};

Harness MakeServing(const ModelWeights& weights,
                    const SchedulerOptions& sopts) {
  Harness h;
  h.platform = std::make_unique<core::Platform>(
      core::PlatformOptionsFor(kEngine));
  StatusOr<std::unique_ptr<core::EngineBase>> engine =
      BuildServingEngine(h.platform.get(), &weights, sopts);
  HCHECK(engine.ok());
  h.engine = std::move(engine).value();
  return h;
}

Tensor PromptEmbeddings(const ModelConfig& cfg, int len) {
  std::vector<Tensor> rows;
  rows.reserve(static_cast<size_t>(len));
  for (int t = 0; t < len; ++t) {
    rows.push_back(
        TokenEmbedding(cfg, 100 + t, ExecutionMode::kCompute, kSeed));
  }
  return Tensor::ConcatRows(rows);
}

// Prefills `prompt` into a reference cache in one shot and into a pooled
// cache chunk-by-chunk, then checks the final logits AND an 8-token greedy
// continuation are bit-identical — chunking must be numerically invisible.
void CheckChunkedBitExact(int prompt_len, int64_t chunk_tokens) {
  const ModelConfig cfg = ModelConfig::Tiny();
  const ModelWeights weights =
      ModelWeights::Create(cfg, ExecutionMode::kCompute, 31);
  const Tensor prompt = PromptEmbeddings(cfg, prompt_len);

  core::EngineOptions eopts;
  eopts.kv_capacity = 256;

  core::Platform ref_platform(core::PlatformOptionsFor(kEngine));
  auto ref_engine =
      core::CreateEngine(kEngine, &ref_platform, &weights, eopts);
  KvCache ref_cache(cfg, 256, ExecutionMode::kCompute);
  core::PhaseStats ref = ref_engine->Step(
      {core::Phase::kPrefill, {&ref_cache}, prompt, /*all_rows_logits=*/false});

  core::Platform chunk_platform(core::PlatformOptionsFor(kEngine));
  auto chunk_engine =
      core::CreateEngine(kEngine, &chunk_platform, &weights, eopts);
  KvBlockPool pool(cfg, /*block_tokens=*/16, /*num_blocks=*/32,
                   ExecutionMode::kCompute);
  KvCache chunk_cache = pool.MakeCache(/*max_tokens=*/256);
  core::PhaseStats chunked;
  for (int64_t offset = 0; offset < prompt_len;) {
    const int64_t len =
        std::min<int64_t>(chunk_tokens, prompt_len - offset);
    // Each chunk passes only its own rows; the cache length is the offset.
    chunked = chunk_engine->Step({core::Phase::kPrefill,
                                  {&chunk_cache},
                                  prompt.SliceRows(offset, offset + len),
                                  /*all_rows_logits=*/false});
    offset += len;
  }

  ASSERT_EQ(chunk_cache.length(), ref_cache.length());
  EXPECT_EQ(Tensor::MaxAbsDiff(ref.logits.SliceRows(
                                   ref.logits.shape().rows() - 1,
                                   ref.logits.shape().rows()),
                               chunked.logits.SliceRows(
                                   chunked.logits.shape().rows() - 1,
                                   chunked.logits.shape().rows())),
            0.0f);

  // Greedy continuation: every decoded token (and its logits) must match.
  int32_t ref_tok = Argmax(ref.logits, ref.logits.shape().rows() - 1);
  int32_t chunk_tok =
      Argmax(chunked.logits, chunked.logits.shape().rows() - 1);
  for (int i = 0; i < 8; ++i) {
    ASSERT_EQ(chunk_tok, ref_tok);
    const Tensor emb =
        TokenEmbedding(cfg, ref_tok, ExecutionMode::kCompute, kSeed);
    const core::PhaseStats r = ref_engine->Step(
        {core::Phase::kDecode, {&ref_cache}, emb, /*all_rows_logits=*/false});
    const core::PhaseStats c = chunk_engine->Step(
        {core::Phase::kDecode, {&chunk_cache}, emb, /*all_rows_logits=*/false});
    EXPECT_EQ(Tensor::MaxAbsDiff(r.logits, c.logits), 0.0f);
    ref_tok = Argmax(r.logits, 0);
    chunk_tok = Argmax(c.logits, 0);
  }
}

TEST(ChunkedPrefillTest, BitExactAtChunkSizeOne) {
  CheckChunkedBitExact(/*prompt_len=*/7, /*chunk_tokens=*/1);
}

TEST(ChunkedPrefillTest, BitExactAtChunkSizeSixtyFour) {
  CheckChunkedBitExact(/*prompt_len=*/128, /*chunk_tokens=*/64);
}

TEST(ChunkedPrefillTest, BitExactWithRaggedLastChunk) {
  CheckChunkedBitExact(/*prompt_len=*/130, /*chunk_tokens=*/64);
}

TEST(ChunkedPrefillTest, ChunksCommitSequentially) {
  const ModelConfig cfg = ModelConfig::Tiny();
  const ModelWeights weights =
      ModelWeights::Create(cfg, ExecutionMode::kCompute, 31);
  core::EngineOptions eopts;
  eopts.kv_capacity = 64;
  core::Platform platform(core::PlatformOptionsFor(kEngine));
  auto engine = core::CreateEngine(kEngine, &platform, &weights, eopts);
  KvCache cache(cfg, 64, ExecutionMode::kCompute);
  const Tensor prompt = PromptEmbeddings(cfg, 32);
  // Each chunk commits exactly [offset, offset + len) positions; the next
  // chunk starts at the new cache length.
  auto chunk = [&](int64_t offset, int64_t len) {
    return engine->Step({core::Phase::kPrefill,
                         {&cache},
                         prompt.SliceRows(offset, offset + len),
                         /*all_rows_logits=*/false});
  };
  const core::PhaseStats a = chunk(0, 20);
  EXPECT_EQ(cache.length(), 20);
  EXPECT_EQ(a.tokens, 20);
  const core::PhaseStats b = chunk(20, 12);
  EXPECT_EQ(cache.length(), 32);
  EXPECT_EQ(b.tokens, 12);
}

// kHybridChunked serves a burst to completion, runs ceil(prompt/chunk)
// chunk passes per request, interleaves chunks with decode rounds, and is
// deterministic run-to-run.
TEST(HybridChunkedTest, ServesBurstWithBudgetedChunks) {
  const ModelConfig cfg = ModelConfig::InternLM1_8B();
  ModelWeights weights = ModelWeights::Create(cfg, ExecutionMode::kSimulate);

  auto run_once = [&]() {
    SchedulerOptions sopts;
    sopts.iteration = IterationPolicy::kHybridChunked;
    sopts.max_decode_batch = 4;
    sopts.prefill_chunk_tokens = 64;
    std::vector<Request> reqs;
    for (int i = 0; i < 6; ++i) {
      // prompt 200 = 3 chunks of 64 + a ragged 8-token chunk
      reqs.push_back(Request::Chat(i, i * 2e4, 200, 16));
    }
    Harness h = MakeServing(weights, sopts);
    return IterationScheduler(h.engine.get(), sopts).Run(RequestQueue(reqs));
  };

  const ServingMetrics m = run_once();
  ASSERT_EQ(m.requests.size(), 6u);
  for (const RequestMetrics& r : m.requests) {
    EXPECT_EQ(r.decoded_tokens, 16);
    EXPECT_GE(r.first_token, r.admitted);  // TTFT = last chunk's commit
    EXPECT_GT(r.completion, r.first_token);
  }
  EXPECT_EQ(m.prefill_chunks, 6 * 4);
  EXPECT_EQ(m.chunked_prefill_tokens, 6 * 200);
  EXPECT_EQ(m.chunk_resumed_tokens, 0);
  // Later arrivals prefill while earlier sessions decode.
  EXPECT_GT(m.hybrid_iterations, 0);
  EXPECT_EQ(run_once().ToJson(), m.ToJson());
}

// Preemption parks the committed prompt chunks; re-admission resumes at
// the next chunk, so no prompt token is ever chunk-prefilled twice.
TEST(HybridChunkedTest, PreemptMidPromptResumesWithoutReprefill) {
  const ModelConfig cfg = ModelConfig::InternLM1_8B();
  ModelWeights weights = ModelWeights::Create(cfg, ExecutionMode::kSimulate);

  SchedulerOptions sopts;
  sopts.iteration = IterationPolicy::kHybridChunked;
  sopts.max_decode_batch = 2;
  sopts.prefill_chunk_tokens = 64;
  // 24 blocks of 16 tokens: the long document (21-block footprint) and the
  // newcomer (9 blocks) cannot coexist, so the newcomer preempts it.
  sopts.kv_budget_bytes = KvCache::BytesForTokens(cfg, 24 * 16);

  std::vector<Request> reqs;
  // The document: a 320-token (5-chunk) prompt. The chat lands while it is
  // mid-prompt (its 5 chunks span roughly 300 ms of simulated time) —
  // after at least one chunk has committed.
  reqs.push_back(Request::Chat(0, /*arrival=*/0, 320, 4));
  reqs.push_back(Request::Chat(1, /*arrival=*/1e5, 128, 4));

  Harness h = MakeServing(weights, sopts);
  const ServingMetrics m =
      IterationScheduler(h.engine.get(), sopts).Run(RequestQueue(reqs));

  EXPECT_EQ(m.requests[0].evictions, 1);
  EXPECT_EQ(m.requests[0].decoded_tokens, 4);
  EXPECT_EQ(m.requests[1].decoded_tokens, 4);
  // The document's committed chunks survived the preemption parked, so
  // across both admissions every prompt token ran through exactly one
  // chunk: 320 + 128 total, with no re-prefilled chunk.
  EXPECT_GT(m.chunk_resumed_tokens, 0);
  EXPECT_EQ(m.chunk_resumed_tokens % 64, 0);
  EXPECT_EQ(m.chunked_prefill_tokens, 320 + 128);
  EXPECT_EQ(m.prefill_chunks, 5 + 2);
}

// A prefix-cache hit adopts whole cached blocks and the chunk loop starts
// past them — a hit skips whole chunks, not just tokens.
TEST(HybridChunkedTest, PrefixHitSkipsWholeChunks) {
  const ModelConfig cfg = ModelConfig::InternLM1_8B();
  ModelWeights weights = ModelWeights::Create(cfg, ExecutionMode::kSimulate);

  SchedulerOptions sopts;
  sopts.iteration = IterationPolicy::kHybridChunked;
  sopts.max_decode_batch = 2;
  sopts.prefill_chunk_tokens = 32;

  std::vector<int32_t> tokens;
  for (int t = 0; t < 96; ++t) {
    tokens.push_back(1000 + t);
  }
  std::vector<Request> reqs;
  for (int i = 0; i < 2; ++i) {
    // Arrivals far apart: the first completes before the second. Prompt 96
    // = 3 chunks of 32.
    reqs.push_back(Request::Chat(i, i * 1e6, 96, 4, tokens));
  }

  Harness h = MakeServing(weights, sopts);
  const ServingMetrics m =
      IterationScheduler(h.engine.get(), sopts).Run(RequestQueue(reqs));

  EXPECT_EQ(m.requests[0].decoded_tokens, 4);
  EXPECT_EQ(m.requests[1].decoded_tokens, 4);
  // The second request's hit covers every full cached block; only the
  // residual tail is chunk-prefilled, in a single ragged chunk.
  EXPECT_GT(m.prefix_hit_tokens, 0);
  EXPECT_EQ(m.chunked_prefill_tokens + m.prefix_hit_tokens, 2 * 96);
  EXPECT_EQ(m.prefill_chunks, 3 + 1);
}

// Speculative decoding rides inside the decode half of hybrid iterations
// unchanged: drafts verify, rejected rows roll back, chunks keep flowing.
TEST(HybridChunkedTest, ComposesWithSpeculativeDecoding) {
  const ModelConfig cfg = ModelConfig::InternLM1_8B();
  ModelWeights weights = ModelWeights::Create(cfg, ExecutionMode::kSimulate);

  auto run_once = [&]() {
    SchedulerOptions sopts;
    sopts.iteration = IterationPolicy::kHybridChunked;
    sopts.max_decode_batch = 4;
    sopts.prefill_chunk_tokens = 48;
    sopts.speculative_window = 3;
    sopts.speculative_acceptance = 0.75;
    std::vector<Request> reqs;
    for (int i = 0; i < 5; ++i) {
      reqs.push_back(Request::Chat(i, i * 1e4, 100, 24));
    }
    Harness h = MakeServing(weights, sopts);
    return IterationScheduler(h.engine.get(), sopts).Run(RequestQueue(reqs));
  };

  const ServingMetrics m = run_once();
  for (const RequestMetrics& r : m.requests) {
    EXPECT_EQ(r.decoded_tokens, 24);
  }
  EXPECT_GT(m.total_draft_tokens(), 0);
  EXPECT_EQ(m.chunked_prefill_tokens, 5 * 100);
  EXPECT_EQ(run_once().ToJson(), m.ToJson());
}

// The headline scheduling property: under mixed long-prompt/short-decode
// traffic, hybrid chunking bounds the decode stall behind any prefill to
// one chunk, so the TPOT tail beats prefill-first on the same trace.
TEST(HybridChunkedTest, ImprovesTpotTailUnderMixedTraffic) {
  const ModelConfig cfg = ModelConfig::InternLM1_8B();
  ModelWeights weights = ModelWeights::Create(cfg, ExecutionMode::kSimulate);

  auto serve = [&](IterationPolicy policy) {
    Rng rng(77);
    RequestQueue queue = RequestQueue::SyntheticMixed(
        rng, /*count=*/16, /*mean_interarrival_us=*/3e4,
        /*long_fraction=*/0.25, /*min_long_prompt=*/768,
        /*max_long_prompt=*/1024, /*long_decode=*/8,
        /*min_prompt=*/32, /*max_prompt=*/96,
        /*min_decode=*/24, /*max_decode=*/48);
    SchedulerOptions sopts;
    sopts.iteration = policy;
    sopts.max_decode_batch = 8;
    sopts.prefill_chunk_tokens = 128;
    sopts.kv_budget_bytes = 512 * kMiB;
    Harness h = MakeServing(weights, sopts);
    return IterationScheduler(h.engine.get(), sopts).Run(queue);
  };

  const ServingMetrics pf = serve(IterationPolicy::kPrefillFirst);
  const ServingMetrics hybrid = serve(IterationPolicy::kHybridChunked);
  for (const RequestMetrics& r : hybrid.requests) {
    EXPECT_GT(r.completion, 0);
  }
  EXPECT_LT(hybrid.tpot_tail().p99, pf.tpot_tail().p99);
}

TEST(HybridChunkedTest, ValidatedRejectsBadChunkOptions) {
  SchedulerOptions bad_chunk;
  bad_chunk.iteration = IterationPolicy::kHybridChunked;
  bad_chunk.prefill_chunk_tokens = 0;
  EXPECT_FALSE(SchedulerOptions::Validated(bad_chunk).ok());

  SchedulerOptions bad_budget;
  bad_budget.iteration = IterationPolicy::kHybridChunked;
  bad_budget.iteration_token_budget = -1;
  EXPECT_FALSE(SchedulerOptions::Validated(bad_budget).ok());

  SchedulerOptions ok;
  ok.iteration = IterationPolicy::kHybridChunked;
  ok.prefill_chunk_tokens = 64;
  ok.iteration_token_budget = 96;
  EXPECT_TRUE(SchedulerOptions::Validated(ok).ok());
}

}  // namespace
}  // namespace heterollm::serve
