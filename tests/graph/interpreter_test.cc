// The graph front end must agree exactly with the engines: the interpreter
// running the built model graph produces bit-identical numbers to the
// engines' compiled-schedule replay (which all match the Reference in
// engine_numerics_test), and the optimization passes change no number.

#include "src/graph/interpreter.h"

#include <gtest/gtest.h>

#include "src/core/engine_registry.h"
#include "src/graph/passes.h"

namespace heterollm::graph {
namespace {

using model::ExecutionMode;
using model::ModelConfig;
using model::ModelWeights;
using tensor::Shape;
using tensor::Tensor;

class InterpreterTest : public ::testing::Test {
 protected:
  InterpreterTest()
      : cfg_(ModelConfig::Tiny()),
        weights_(ModelWeights::Create(cfg_, ExecutionMode::kCompute, 21)) {}

  ModelConfig cfg_;
  ModelWeights weights_;
};

TEST_F(InterpreterTest, MatchesEnginePrefill) {
  Graph g = BuildModelGraph(cfg_);
  ASSERT_TRUE(InferShapes(&g, cfg_, 12).ok());

  Rng rng(41);
  Tensor prompt = Tensor::Random(Shape({12, cfg_.hidden}), rng, 0.1f);

  GraphInterpreter interp(&weights_);
  auto graph_out = interp.Run(g, prompt);
  ASSERT_TRUE(graph_out.ok());

  core::Platform platform;
  auto engine = core::CreateEngine("PPL-OpenCL", &platform, &weights_);
  core::PhaseStats engine_out = engine->Prefill(prompt);

  // Output 0: final hidden states. Output 1: logits (the graph computes
  // them for every row; the engine keeps only the last row).
  EXPECT_EQ(Tensor::MaxAbsDiff((*graph_out)[0], engine_out.hidden), 0.0f);
  const Tensor& logits_all = (*graph_out)[1];
  Tensor last_logits =
      logits_all.SliceRows(logits_all.shape().rows() - 1,
                           logits_all.shape().rows());
  EXPECT_EQ(Tensor::MaxAbsDiff(last_logits, engine_out.logits), 0.0f);
}

TEST_F(InterpreterTest, AutoregressiveDecodeMatchesEngine) {
  Graph g = BuildModelGraph(cfg_);
  ASSERT_TRUE(InferShapes(&g, cfg_, 8).ok());

  Rng rng(43);
  Tensor prompt = Tensor::Random(Shape({8, cfg_.hidden}), rng, 0.1f);
  Tensor token = Tensor::Random(Shape({1, cfg_.hidden}), rng, 0.1f);

  GraphInterpreter interp(&weights_);
  ASSERT_TRUE(interp.Run(g, prompt).ok());
  EXPECT_EQ(interp.cache_length(), 8);
  auto step = interp.Run(g, token);
  ASSERT_TRUE(step.ok());
  EXPECT_EQ(interp.cache_length(), 9);

  core::Platform platform;
  auto engine = core::CreateEngine("Hetero-tensor", &platform, &weights_);
  engine->Prefill(prompt);
  core::PhaseStats engine_step = engine->DecodeStep(token);

  Tensor graph_logits = (*step)[1];
  EXPECT_EQ(Tensor::MaxAbsDiff(graph_logits, engine_step.logits), 0.0f);
}

TEST_F(InterpreterTest, OptimizedGraphDecodesIdentically) {
  Graph g = BuildModelGraph(cfg_);
  ASSERT_TRUE(InferShapes(&g, cfg_, 8).ok());
  PassResult opt = OptimizeGraph(g);

  Rng rng(47);
  Tensor prompt = Tensor::Random(Shape({8, cfg_.hidden}), rng, 0.1f);
  Tensor token = Tensor::Random(Shape({1, cfg_.hidden}), rng, 0.1f);

  GraphInterpreter a(&weights_);
  GraphInterpreter b(&weights_);
  auto a1 = a.Run(g, prompt);
  auto b1 = b.Run(opt.graph, prompt);
  auto a2 = a.Run(g, token);
  auto b2 = b.Run(opt.graph, token);
  ASSERT_TRUE(a2.ok() && b2.ok());
  EXPECT_EQ(Tensor::MaxAbsDiff((*a2)[1], (*b2)[1]), 0.0f);
  (void)a1;
  (void)b1;
}

TEST_F(InterpreterTest, ResetClearsCache) {
  Graph g = BuildModelGraph(cfg_);
  ASSERT_TRUE(InferShapes(&g, cfg_, 4).ok());
  Rng rng(51);
  Tensor prompt = Tensor::Random(Shape({4, cfg_.hidden}), rng, 0.1f);
  GraphInterpreter interp(&weights_);
  ASSERT_TRUE(interp.Run(g, prompt).ok());
  interp.ResetSession();
  EXPECT_EQ(interp.cache_length(), 0);
  auto again = interp.Run(g, prompt);
  ASSERT_TRUE(again.ok());
}

TEST_F(InterpreterTest, RejectsInvalidGraph) {
  Graph g;
  NodeId a = g.Add(OpType::kInput, "in", {});
  g.Add(OpType::kAdd, "bad", {a});  // wrong arity, and no outputs marked
  GraphInterpreter interp(&weights_);
  Rng rng(1);
  Tensor input = Tensor::Random(Shape({1, cfg_.hidden}), rng);
  EXPECT_FALSE(interp.Run(g, input).ok());
}

}  // namespace
}  // namespace heterollm::graph
