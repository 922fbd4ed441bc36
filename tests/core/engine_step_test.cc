// EngineBase::Step input validation: every malformed batch aborts at the
// entry point, before any KV cache opens a step.

#include <memory>

#include <gtest/gtest.h>

#include "src/core/engine_registry.h"
#include "src/model/kv_cache.h"

namespace heterollm::core {
namespace {

using model::ExecutionMode;
using model::KvCache;
using model::ModelConfig;
using model::ModelWeights;
using tensor::Shape;
using tensor::Tensor;

Tensor Rows(int64_t rows, int64_t width) {
  return Tensor::Deferred(Shape({rows, width}), tensor::DType::kFp16);
}

class StepDeathTest : public ::testing::Test {
 protected:
  explicit StepDeathTest(ExecutionMode mode = ExecutionMode::kSimulate)
      : cfg_(ModelConfig::Tiny()),
        weights_(ModelWeights::Create(cfg_, mode, 5)),
        platform_(PlatformOptionsFor("Hetero-tensor")),
        engine_(CreateEngine("Hetero-tensor", &platform_, &weights_)),
        a_(cfg_, 64, mode),
        b_(cfg_, 64, mode) {}

  ModelConfig cfg_;
  ModelWeights weights_;
  Platform platform_;
  std::unique_ptr<EngineBase> engine_;
  KvCache a_;
  KvCache b_;
};

TEST_F(StepDeathTest, NullCacheAborts) {
  EXPECT_DEATH(engine_->Step({Phase::kDecode, {&a_, nullptr},
                              Rows(2, cfg_.hidden),
                              /*all_rows_logits=*/false}),
               "null KV cache");
}

TEST_F(StepDeathTest, ZeroRowsAborts) {
  EXPECT_DEATH(engine_->Step({Phase::kPrefill, {&a_}, Rows(0, cfg_.hidden),
                              /*all_rows_logits=*/false}),
               "at least one row");
}

TEST_F(StepDeathTest, RowsNotAMultipleOfSlotsAbort) {
  EXPECT_DEATH(engine_->Step({Phase::kDecode, {&a_, &b_},
                              Rows(3, cfg_.hidden),
                              /*all_rows_logits=*/true}),
               "multiple of the slot count");
}

TEST_F(StepDeathTest, WrongHiddenWidthAborts) {
  EXPECT_DEATH(engine_->Step({Phase::kDecode, {},
                              Rows(1, cfg_.hidden + 1),
                              /*all_rows_logits=*/false}),
               "hidden size");
}

class ComputeStepDeathTest : public StepDeathTest {
 protected:
  ComputeStepDeathTest() : StepDeathTest(ExecutionMode::kCompute) {}
};

TEST_F(ComputeStepDeathTest, MultiSlotBatchRequiresSimulate) {
  EXPECT_DEATH(engine_->Step({Phase::kDecode, {&a_, &b_},
                              Rows(2, cfg_.hidden),
                              /*all_rows_logits=*/false}),
               "timing-only");
}

// A well-formed multi-slot prefill splits its rows evenly across the slots
// and keeps every row's logits.
TEST_F(StepDeathTest, ValidMultiSlotBatchAdvancesEverySlot) {
  const PhaseStats stats = engine_->Step({Phase::kPrefill, {&a_, &b_},
                                          Rows(8, cfg_.hidden),
                                          /*all_rows_logits=*/false});
  EXPECT_EQ(stats.tokens, 8);
  EXPECT_EQ(a_.length(), 4);
  EXPECT_EQ(b_.length(), 4);
  EXPECT_EQ(stats.logits.shape().rows(), 8);
}

}  // namespace
}  // namespace heterollm::core
