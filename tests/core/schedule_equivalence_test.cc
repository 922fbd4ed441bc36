// Compile-and-replay equivalence: for every engine, executing through the
// graph IR (placement pass + CompiledSchedule replay) must be
// indistinguishable from the legacy hand-coded loop — bit-exact logits and
// hidden states in compute mode, identical simulated latencies — and the
// steady-state decode path must never consult the solver or profiler again.

#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "src/core/engine_registry.h"
#include "src/core/hetero_engine.h"
#include "src/graph/builder.h"
#include "src/graph/interpreter.h"
#include "src/graph/passes.h"
#include "src/model/kv_cache.h"

namespace heterollm::core {
namespace {

using model::ExecutionMode;
using model::KvCache;
using model::ModelConfig;
using model::ModelWeights;
using tensor::Shape;
using tensor::Tensor;

struct EngineRun {
  std::vector<Tensor> logits;
  std::vector<Tensor> hidden;
  std::vector<MicroSeconds> latencies;
};

// Prefill + two decode steps on a fresh engine/platform pair.
EngineRun RunOnce(const std::string& engine_name, const ModelWeights& weights,
                  bool use_compiled_schedule, const Tensor& prompt,
                  const Tensor& tok1, const Tensor& tok2) {
  Platform platform(PlatformOptionsFor(engine_name));
  EngineOptions opts;
  opts.use_compiled_schedule = use_compiled_schedule;
  auto engine = CreateEngine(engine_name, &platform, &weights, opts);
  EngineRun run;
  for (const Tensor* input : {&prompt, &tok1, &tok2}) {
    PhaseStats stats = input == &prompt ? engine->Prefill(*input)
                                        : engine->DecodeStep(*input);
    run.logits.push_back(stats.logits);
    run.hidden.push_back(stats.hidden);
    run.latencies.push_back(stats.latency);
  }
  return run;
}

class ScheduleEquivalenceTest : public ::testing::TestWithParam<const char*> {
};

TEST_P(ScheduleEquivalenceTest, CompiledReplayMatchesLegacyLoopExactly) {
  const std::string engine_name = GetParam();
  const ModelConfig cfg = ModelConfig::Tiny();
  const ModelWeights weights =
      ModelWeights::Create(cfg, ExecutionMode::kCompute, 99);

  // Misaligned prompt length exercises padding / pipe / seq-cut plans.
  Rng rng(123);
  Tensor prompt = Tensor::Random(Shape({37, cfg.hidden}), rng, 0.1f);
  Tensor tok1 = Tensor::Random(Shape({1, cfg.hidden}), rng, 0.1f);
  Tensor tok2 = Tensor::Random(Shape({1, cfg.hidden}), rng, 0.1f);

  EngineRun legacy = RunOnce(engine_name, weights, false, prompt, tok1, tok2);
  EngineRun compiled = RunOnce(engine_name, weights, true, prompt, tok1, tok2);

  for (size_t i = 0; i < legacy.logits.size(); ++i) {
    // Bit-exact numerics: both paths run the same kernels on the same
    // operands in the same order.
    EXPECT_EQ(Tensor::MaxAbsDiff(legacy.logits[i], compiled.logits[i]), 0.0f)
        << engine_name << " step " << i;
    EXPECT_EQ(Tensor::MaxAbsDiff(legacy.hidden[i], compiled.hidden[i]), 0.0f)
        << engine_name << " step " << i;
    // Identical timing: same submissions, same syncs, same clock arithmetic.
    EXPECT_DOUBLE_EQ(legacy.latencies[i], compiled.latencies[i])
        << engine_name << " step " << i;
  }
}

INSTANTIATE_TEST_SUITE_P(AllEngines, ScheduleEquivalenceTest,
                         ::testing::Values("llama.cpp", "MLC", "MNN-OpenCL",
                                           "PPL-OpenCL", "Hetero-layer",
                                           "Hetero-tensor", "Online-prepare",
                                           "Padding", "Pipe", "Chunked"),
                         [](const auto& info) {
                           std::string name = info.param;
                           for (char& c : name) {
                             if (!isalnum(static_cast<unsigned char>(c))) {
                               c = '_';
                             }
                           }
                           return name;
                         });

// The serving path (continuous-batching decode) replays a serving-mode
// schedule; its timing must match the legacy loop too.
TEST(ScheduleEquivalenceTest, ServingBatchedDecodeTimingMatchesLegacy) {
  const ModelConfig cfg = ModelConfig::Tiny();
  const ModelWeights weights =
      ModelWeights::Create(cfg, ExecutionMode::kSimulate);

  auto run = [&](bool use_compiled_schedule) {
    Platform platform(PlatformOptionsFor("Hetero-tensor"));
    EngineOptions opts;
    opts.use_compiled_schedule = use_compiled_schedule;
    auto engine = CreateEngine("Hetero-tensor", &platform, &weights, opts);

    std::vector<std::unique_ptr<KvCache>> caches;
    std::vector<KvCache*> batch;
    std::vector<MicroSeconds> latencies;
    for (int i = 0; i < 3; ++i) {
      caches.push_back(
          std::make_unique<KvCache>(cfg, 256, ExecutionMode::kSimulate));
      PhaseStats prefill = engine->Step(
          {Phase::kPrefill, {caches.back().get()},
           Tensor::Deferred(Shape({64, cfg.hidden}), tensor::DType::kFp16),
           /*all_rows_logits=*/false});
      latencies.push_back(prefill.latency);
      batch.push_back(caches.back().get());
    }
    const Tensor tokens =
        Tensor::Deferred(Shape({3, cfg.hidden}), tensor::DType::kFp16);
    for (int step = 0; step < 3; ++step) {
      latencies.push_back(
          engine
              ->Step({Phase::kDecode, batch, tokens, /*all_rows_logits=*/false})
              .latency);
    }
    return latencies;
  };

  const std::vector<MicroSeconds> legacy = run(false);
  const std::vector<MicroSeconds> compiled = run(true);
  ASSERT_EQ(legacy.size(), compiled.size());
  for (size_t i = 0; i < legacy.size(); ++i) {
    EXPECT_DOUBLE_EQ(legacy[i], compiled[i]) << "iteration " << i;
  }
}

// Fused-QKV execution (FuseQkv pass -> one matmul + column slices) must
// match the graph interpreter running the same optimized graph.
TEST(ScheduleEquivalenceTest, FusedQkvMatchesInterpreterOnOptimizedGraph) {
  const ModelConfig cfg = ModelConfig::Tiny();
  const ModelWeights weights =
      ModelWeights::Create(cfg, ExecutionMode::kCompute, 42);

  Rng rng(7);
  Tensor prompt = Tensor::Random(Shape({33, cfg.hidden}), rng, 0.1f);
  Tensor tok = Tensor::Random(Shape({1, cfg.hidden}), rng, 0.1f);

  // Reference: interpreter over the fully optimized (fused) graph. FuseQkv
  // needs inferred shapes for the column-slice widths; the slices are
  // column-based, so the same graph serves both prefill and decode rows.
  graph::Graph g = graph::BuildModelGraph(cfg);
  ASSERT_TRUE(graph::InferShapes(&g, cfg, 33).ok());
  graph::Graph fused = graph::OptimizeGraph(g).graph;
  graph::GraphInterpreter interp(&weights);
  auto ref_prefill = interp.Run(fused, prompt);
  ASSERT_TRUE(ref_prefill.ok());
  auto ref_decode = interp.Run(fused, tok);
  ASSERT_TRUE(ref_decode.ok());

  for (const char* name : {"PPL-OpenCL", "Hetero-tensor"}) {
    Platform platform(PlatformOptionsFor(name));
    EngineOptions opts;
    opts.fuse_qkv = true;
    auto engine = CreateEngine(name, &platform, &weights, opts);

    PhaseStats prefill = engine->Prefill(prompt);
    const auto& ref_out = ref_prefill.value();  // [hidden, logits all rows]
    const int64_t rows = ref_out[1].shape().rows();
    EXPECT_LT(Tensor::MaxAbsDiff(prefill.hidden, ref_out[0]), 1e-6f) << name;
    EXPECT_LT(Tensor::MaxAbsDiff(prefill.logits,
                                 ref_out[1].SliceRows(rows - 1, rows)),
              1e-6f)
        << name;

    PhaseStats decode = engine->DecodeStep(tok);
    const auto& ref_dec = ref_decode.value();
    EXPECT_LT(Tensor::MaxAbsDiff(decode.logits, ref_dec[1]), 1e-6f) << name;
  }
}

// The point of compiled schedules: after the first decode iteration at a
// given width/batch size, neither the solver nor the profiler is consulted
// again — plans replay from the schedule.
TEST(ScheduleEquivalenceTest, SolverIdleAfterFirstDecodeIteration) {
  const ModelConfig cfg = ModelConfig::Tiny();
  const ModelWeights weights =
      ModelWeights::Create(cfg, ExecutionMode::kSimulate);
  Platform platform(PlatformOptionsFor("Hetero-tensor"));
  HeteroEngine engine(HeteroLevel::kTensor, &platform, &weights);

  auto deferred = [&](int64_t rows) {
    return Tensor::Deferred(Shape({rows, cfg.hidden}), tensor::DType::kFp16);
  };
  engine.Prefill(deferred(64));
  engine.DecodeStep(deferred(1));  // compiles the width-1 decode schedule

  const int decides = engine.solver().decide_calls();
  const int queries = engine.profiler().query_count();
  EXPECT_GT(decides, 0);  // the first iteration did consult the solver
  for (int step = 0; step < 5; ++step) {
    engine.DecodeStep(deferred(1));
  }
  EXPECT_EQ(engine.solver().decide_calls(), decides);
  EXPECT_EQ(engine.profiler().query_count(), queries);

  // A new decode width is a new schedule: one more compile, then idle again.
  engine.DecodeStep(deferred(4));
  const int decides_w4 = engine.solver().decide_calls();
  EXPECT_GT(decides_w4, decides);
  engine.DecodeStep(deferred(4));
  EXPECT_EQ(engine.solver().decide_calls(), decides_w4);
}

TEST(ScheduleEquivalenceTest, SolverIdleAfterFirstServingBatchIteration) {
  const ModelConfig cfg = ModelConfig::Tiny();
  const ModelWeights weights =
      ModelWeights::Create(cfg, ExecutionMode::kSimulate);
  Platform platform(PlatformOptionsFor("Hetero-tensor"));
  HeteroEngine engine(HeteroLevel::kTensor, &platform, &weights);

  std::vector<std::unique_ptr<KvCache>> caches;
  std::vector<KvCache*> batch;
  for (int i = 0; i < 3; ++i) {
    caches.push_back(
        std::make_unique<KvCache>(cfg, 256, ExecutionMode::kSimulate));
    engine.Step(
        {Phase::kPrefill, {caches.back().get()},
         Tensor::Deferred(Shape({32, cfg.hidden}), tensor::DType::kFp16),
         /*all_rows_logits=*/false});
    batch.push_back(caches.back().get());
  }

  const StepBatch decode{
      Phase::kDecode, batch,
      Tensor::Deferred(Shape({3, cfg.hidden}), tensor::DType::kFp16),
      /*all_rows_logits=*/false};
  engine.Step(decode);  // compiles the batch-3 serving schedule
  const int decides = engine.solver().decide_calls();
  const int queries = engine.profiler().query_count();
  for (int step = 0; step < 4; ++step) {
    engine.Step(decode);
  }
  EXPECT_EQ(engine.solver().decide_calls(), decides);
  EXPECT_EQ(engine.profiler().query_count(), queries);
}

}  // namespace
}  // namespace heterollm::core
