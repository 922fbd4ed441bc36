// Compile-and-replay equivalence: for every FLOAT engine, executing through
// the graph IR (placement pass + CompiledSchedule replay) must reproduce the
// graph interpreter bit for bit — logits and hidden states in compute mode,
// fused QKV or not — and the steady-state decode path must never consult
// the solver or profiler again. Simulated timing is pinned separately by
// the golden timeline digests (timeline_digest_test.cc).

#include <memory>
#include <set>
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

// Numerics reference: the graph interpreter running the unoptimized model
// graph over `inputs` (a prefill, then decodes). Each step's outputs are
// [final hidden states, logits of every row].
std::vector<std::vector<Tensor>> InterpreterOutputs(
    const ModelWeights& weights, const std::vector<Tensor>& inputs) {
  const ModelConfig& cfg = weights.config();
  graph::Graph g = graph::BuildModelGraph(cfg);
  EXPECT_TRUE(graph::InferShapes(&g, cfg, inputs[0].shape().rows()).ok());
  graph::GraphInterpreter interp(&weights);
  std::vector<std::vector<Tensor>> refs;
  for (const Tensor& input : inputs) {
    auto ref = interp.Run(g, input);
    EXPECT_TRUE(ref.ok()) << ref.status().ToString();
    refs.push_back(std::move(ref.value()));
  }
  return refs;
}

// A prompt of `prompt_rows` rows, then `decodes` single-row steps.
std::vector<Tensor> SessionInputs(const ModelConfig& cfg, int64_t prompt_rows,
                                  int decodes) {
  Rng rng(123);
  std::vector<Tensor> inputs = {
      Tensor::Random(Shape({prompt_rows, cfg.hidden}), rng, 0.1f)};
  for (int d = 0; d < decodes; ++d) {
    inputs.push_back(Tensor::Random(Shape({1, cfg.hidden}), rng, 0.1f));
  }
  return inputs;
}

// Replays `inputs` through a fresh `engine_name` engine and expects every
// step to match the interpreter's `refs` bit for bit. Returns the partition
// kinds of the prefill's matmuls, read from the MatmulPlans of the graph
// placed by the engine that ran.
std::set<PartitionKind> ExpectReplayMatches(
    const std::string& engine_name, const ModelWeights& weights,
    const std::vector<Tensor>& inputs,
    const std::vector<std::vector<Tensor>>& refs, bool fuse_qkv,
    int threads) {
  SCOPED_TRACE(engine_name + (fuse_qkv ? " fuse_qkv" : "") +
               " kernel_threads=" + std::to_string(threads));
  Platform platform(PlatformOptionsFor(engine_name));
  EngineOptions opts;
  opts.fuse_qkv = fuse_qkv;
  opts.kernel_threads = threads;
  auto engine = CreateEngine(engine_name, &platform, &weights, opts);
  for (size_t i = 0; i < inputs.size(); ++i) {
    const PhaseStats stats = i == 0 ? engine->Prefill(inputs[i])
                                    : engine->DecodeStep(inputs[i]);
    // The engine keeps the last row's logits.
    const Tensor& ref_logits = refs[i][1];
    const int64_t rows = ref_logits.shape().rows();
    EXPECT_EQ(Tensor::MaxAbsDiff(stats.hidden, refs[i][0]), 0.0f)
        << "step " << i;
    EXPECT_EQ(Tensor::MaxAbsDiff(stats.logits,
                                 ref_logits.SliceRows(rows - 1, rows)),
              0.0f)
        << "step " << i;
  }

  const ModelConfig& cfg = weights.config();
  graph::Graph g = graph::BuildModelGraph(cfg);
  EXPECT_TRUE(graph::InferShapes(&g, cfg, inputs[0].shape().rows()).ok());
  StatusOr<graph::PlacedGraph> placed =
      graph::PlaceGraph(g, Phase::kPrefill, engine.get());
  EXPECT_TRUE(placed.ok()) << placed.status().ToString();
  std::set<PartitionKind> kinds;
  for (const graph::NodePlacement& p : placed.value().placements) {
    if (p.is_matmul) {
      kinds.insert(p.plan.kind);
    }
  }
  return kinds;
}

// Replay runs the same kernels on the same operands as the interpreter, so
// every engine whose matmuls stay FLOAT agrees exactly — with or without the
// fused-QKV pass, at any kernel thread count. A misaligned prompt length
// exercises padding / pipe / seq-cut plans.
class ScheduleEquivalenceTest : public ::testing::TestWithParam<const char*> {
};

TEST_P(ScheduleEquivalenceTest, CompiledReplayMatchesInterpreterExactly) {
  const ModelConfig cfg = ModelConfig::Tiny();
  const ModelWeights weights =
      ModelWeights::Create(cfg, ExecutionMode::kCompute, 99);
  const std::vector<Tensor> inputs = SessionInputs(cfg, 37, /*decodes=*/2);
  const auto refs = InterpreterOutputs(weights, inputs);
  for (const bool fuse_qkv : {false, true}) {
    for (const int threads : {1, 2}) {
      ExpectReplayMatches(GetParam(), weights, inputs, refs, fuse_qkv,
                          threads);
    }
  }
}

// MLLM-NPU is left out: its INT8 activation path differs from the FLOAT
// reference by design (engine_numerics_test measures that loss).
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

// Tiny is too small for any cut: Hetero-tensor runs its matmuls whole on
// the GPU. Small does cut, so the replay check also runs on it at prompts
// 37, 64 and 256 (256 rows span 16 KV blocks), each followed by one decode.
// Each case asserts the partition kinds it relies on, so a solver or cost
// change that stops cutting fails here instead of passing quietly.
TEST(ScheduleEquivalenceTest, SmallModelReplayMatchesInterpreterExactly) {
  using K = PartitionKind;
  struct Case {
    int64_t prompt;
    const char* engine;
    std::set<PartitionKind> relies_on;
  };
  // At 37 rows Hetero-tensor gives the FFN a hybrid cut: padded rows on the
  // NPU over part of the output features, the rest on the GPU. The other
  // kHybridCuts put every feature on the NPU: plain padding. Aligned
  // prompts run whole on the NPU under Hetero-layer, Padding and Chunked.
  const Case cases[] = {
      {37, "Hetero-tensor", {K::kHybridCut}},
      {37, "Hetero-layer", {K::kHybridCut}},
      {37, "Pipe", {K::kSeqCut}},
      {37, "Padding", {K::kHybridCut}},
      {37, "Chunked", {K::kHybridCut}},
      {64, "Hetero-tensor", {K::kRowCut, K::kSeqCut}},
      {64, "Hetero-layer", {K::kNone}},
      {64, "Pipe", {K::kSeqCut}},
      {64, "Padding", {K::kNone}},
      {64, "Chunked", {K::kNone}},
      {256, "Hetero-tensor", {K::kRowCut, K::kSeqCut}},
      {256, "Hetero-layer", {K::kNone}},
      {256, "Pipe", {K::kSeqCut}},
      {256, "Padding", {K::kNone}},
      {256, "Chunked", {K::kNone}},
  };
  const ModelConfig cfg = ModelConfig::Small();
  const ModelWeights weights =
      ModelWeights::Create(cfg, ExecutionMode::kCompute, 99);
  std::vector<Tensor> inputs;
  std::vector<std::vector<Tensor>> refs;
  for (const Case& c : cases) {
    SCOPED_TRACE("prompt " + std::to_string(c.prompt));
    if (inputs.empty() || inputs[0].shape().rows() != c.prompt) {
      inputs = SessionInputs(cfg, c.prompt, /*decodes=*/1);
      refs = InterpreterOutputs(weights, inputs);
    }
    const std::set<PartitionKind> kinds =
        ExpectReplayMatches(c.engine, weights, inputs, refs,
                            /*fuse_qkv=*/false, /*threads=*/2);
    for (const PartitionKind kind : c.relies_on) {
      EXPECT_EQ(kinds.count(kind), 1u)
          << c.engine << " no longer places a " << PartitionKindName(kind);
    }
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
    EXPECT_EQ(Tensor::MaxAbsDiff(prefill.hidden, ref_out[0]), 0.0f) << name;
    EXPECT_EQ(Tensor::MaxAbsDiff(prefill.logits,
                                 ref_out[1].SliceRows(rows - 1, rows)),
              0.0f)
        << name;

    PhaseStats decode = engine->DecodeStep(tok);
    const auto& ref_dec = ref_decode.value();
    EXPECT_EQ(Tensor::MaxAbsDiff(decode.logits, ref_dec[1]), 0.0f) << name;
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
