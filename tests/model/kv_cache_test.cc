#include "src/model/kv_cache.h"

#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "src/common/rng.h"

namespace heterollm::model {
namespace {

using tensor::Shape;
using tensor::Tensor;

TEST(KvCacheTest, StartsEmpty) {
  KvCache cache(ModelConfig::Tiny(), 128, ExecutionMode::kCompute);
  EXPECT_EQ(cache.length(), 0);
  EXPECT_EQ(cache.K(0).shape().rows(), 0);
  EXPECT_FALSE(cache.step_open());
}

TEST(KvCacheTest, CommittedStepGrowsAllLayers) {
  ModelConfig cfg = ModelConfig::Tiny();
  KvCache cache(cfg, 128, ExecutionMode::kCompute);
  Rng rng(1);
  Tensor k = Tensor::Random(Shape({4, cfg.kv_dim()}), rng);
  Tensor v = Tensor::Random(Shape({4, cfg.kv_dim()}), rng);
  cache.BeginStep(4);
  for (int l = 0; l < cfg.num_layers; ++l) {
    cache.AppendLayer(l, k, v);
  }
  cache.CommitStep();
  EXPECT_EQ(cache.length(), 4);
  EXPECT_EQ(cache.K(0).shape(), Shape({4, cfg.kv_dim()}));
}

// During an open step, a layer that has appended sees its in-flight rows
// (attention for layer L runs right after L's append) while `length()` stays
// at the committed count (the RoPE offset for this step's rows).
TEST(KvCacheTest, OpenStepIsVisiblePerLayerButUncommitted) {
  ModelConfig cfg = ModelConfig::Tiny();
  KvCache cache(cfg, 128, ExecutionMode::kCompute);
  Rng rng(2);
  Tensor k = Tensor::Random(Shape({2, cfg.kv_dim()}), rng);
  cache.BeginStep(2);
  cache.AppendLayer(0, k, k);
  EXPECT_TRUE(cache.step_open());
  EXPECT_EQ(cache.length(), 0);                // not committed yet
  EXPECT_EQ(cache.K(0).shape().rows(), 2);     // layer 0 sees its rows
  EXPECT_EQ(cache.K(1).shape().rows(), 0);     // layer 1 has not appended
  cache.AppendLayer(1, k, k);
  cache.CommitStep();
  EXPECT_EQ(cache.length(), 2);
  EXPECT_EQ(cache.K(1).shape().rows(), 2);
}

TEST(KvCacheTest, ValuesRoundTrip) {
  ModelConfig cfg = ModelConfig::Tiny();
  KvCache cache(cfg, 16, ExecutionMode::kCompute);
  Rng rng(3);
  Tensor k1 = Tensor::Random(Shape({3, cfg.kv_dim()}), rng);
  Tensor v1 = Tensor::Random(Shape({3, cfg.kv_dim()}), rng);
  Tensor k2 = Tensor::Random(Shape({1, cfg.kv_dim()}), rng);
  Tensor v2 = Tensor::Random(Shape({1, cfg.kv_dim()}), rng);
  cache.AppendStep(std::vector<Tensor>(cfg.num_layers, k1),
                   std::vector<Tensor>(cfg.num_layers, v1));
  cache.AppendStep(std::vector<Tensor>(cfg.num_layers, k2),
                   std::vector<Tensor>(cfg.num_layers, v2));
  Tensor k = cache.K(0);
  EXPECT_EQ(k.shape().rows(), 4);
  EXPECT_EQ(tensor::Tensor::MaxAbsDiff(k.SliceRows(0, 3), k1), 0.0f);
  EXPECT_EQ(tensor::Tensor::MaxAbsDiff(k.SliceRows(3, 4), k2), 0.0f);
  EXPECT_EQ(tensor::Tensor::MaxAbsDiff(cache.V(0).SliceRows(3, 4), v2), 0.0f);
}

TEST(KvCacheTest, ResetClears) {
  ModelConfig cfg = ModelConfig::Tiny();
  KvCache cache(cfg, 16, ExecutionMode::kCompute);
  Rng rng(4);
  Tensor k = Tensor::Random(Shape({3, cfg.kv_dim()}), rng);
  cache.AppendStep(std::vector<Tensor>(cfg.num_layers, k),
                   std::vector<Tensor>(cfg.num_layers, k));
  cache.Reset();
  EXPECT_EQ(cache.length(), 0);
  EXPECT_EQ(cache.K(0).shape().rows(), 0);
}

TEST(KvCacheTest, SimulateModeTracksShapesOnly) {
  ModelConfig cfg = ModelConfig::Llama8B();
  KvCache cache(cfg, 2048, ExecutionMode::kSimulate);
  Tensor k = Tensor::Deferred(Shape({256, cfg.kv_dim()}));
  cache.AppendStep(std::vector<Tensor>(cfg.num_layers, k),
                   std::vector<Tensor>(cfg.num_layers, k));
  EXPECT_EQ(cache.length(), 256);
  EXPECT_FALSE(cache.K(5).has_data());
  EXPECT_EQ(cache.K(5).shape().rows(), 256);
}

TEST(KvCacheTest, PopulatedBytesFp16) {
  ModelConfig cfg = ModelConfig::Llama8B();
  KvCache cache(cfg, 2048, ExecutionMode::kSimulate);
  Tensor k = Tensor::Deferred(Shape({100, cfg.kv_dim()}));
  cache.AppendStep(std::vector<Tensor>(cfg.num_layers, k),
                   std::vector<Tensor>(cfg.num_layers, k));
  // 2 (K+V) * 100 rows * 1024 * 2 bytes * 32 layers.
  EXPECT_DOUBLE_EQ(cache.populated_bytes(), 2.0 * 100 * 1024 * 2 * 32);
}

TEST(KvCacheTest, BlocksForTokensRoundsUp) {
  EXPECT_EQ(KvCache::BlocksForTokens(0, 16), 0);
  EXPECT_EQ(KvCache::BlocksForTokens(1, 16), 1);
  EXPECT_EQ(KvCache::BlocksForTokens(16, 16), 1);
  EXPECT_EQ(KvCache::BlocksForTokens(17, 16), 2);
}

TEST(KvCacheDeathTest, OverflowAborts) {
  ModelConfig cfg = ModelConfig::Tiny();
  KvCache cache(cfg, 4, ExecutionMode::kCompute);
  EXPECT_DEATH(cache.BeginStep(5), "overflow");
}

// The transactional boundary rejects the misuse the old per-layer Append
// silently tolerated: partial steps, double appends, row mismatches.
TEST(KvCacheDeathTest, PartialCommitAborts) {
  ModelConfig cfg = ModelConfig::Tiny();
  KvCache cache(cfg, 16, ExecutionMode::kCompute);
  Rng rng(5);
  Tensor k = Tensor::Random(Shape({2, cfg.kv_dim()}), rng);
  cache.BeginStep(2);
  cache.AppendLayer(0, k, k);  // layer 1 never appends
  EXPECT_DEATH(cache.CommitStep(), "partial step");
}

TEST(KvCacheDeathTest, DoubleAppendAborts) {
  ModelConfig cfg = ModelConfig::Tiny();
  KvCache cache(cfg, 16, ExecutionMode::kCompute);
  Rng rng(6);
  Tensor k = Tensor::Random(Shape({2, cfg.kv_dim()}), rng);
  cache.BeginStep(2);
  cache.AppendLayer(0, k, k);
  EXPECT_DEATH(cache.AppendLayer(0, k, k), "already appended");
}

TEST(KvCacheDeathTest, RowMismatchAborts) {
  ModelConfig cfg = ModelConfig::Tiny();
  KvCache cache(cfg, 16, ExecutionMode::kCompute);
  Rng rng(7);
  Tensor k3 = Tensor::Random(Shape({3, cfg.kv_dim()}), rng);
  cache.BeginStep(2);
  EXPECT_DEATH(cache.AppendLayer(0, k3, k3), "does not match");
}

TEST(KvCacheDeathTest, AppendOutsideStepAborts) {
  ModelConfig cfg = ModelConfig::Tiny();
  KvCache cache(cfg, 16, ExecutionMode::kCompute);
  Rng rng(8);
  Tensor k = Tensor::Random(Shape({1, cfg.kv_dim()}), rng);
  EXPECT_DEATH(cache.AppendLayer(0, k, k), "step");
}

// Appends `rows` random rows to every layer in one committed step.
void AppendRows(KvCache* cache, const ModelConfig& cfg, int64_t rows,
                Rng& rng) {
  const Tensor k = Tensor::Random(Shape({rows, cfg.kv_dim()}), rng);
  const Tensor v = Tensor::Random(Shape({rows, cfg.kv_dim()}), rng);
  cache->AppendStep(
      std::vector<Tensor>(static_cast<size_t>(cfg.num_layers), k),
      std::vector<Tensor>(static_cast<size_t>(cfg.num_layers), v));
}

TEST(KvCacheTest, RollbackToTruncatesAndAllowsRedecode) {
  ModelConfig cfg = ModelConfig::Tiny();
  KvCache cache(cfg, 32, ExecutionMode::kCompute);
  Rng rng(9);
  AppendRows(&cache, cfg, 6, rng);
  const Tensor kept = cache.K(0).SliceRows(0, 3);

  cache.RollbackTo(3);
  EXPECT_EQ(cache.length(), 3);
  EXPECT_EQ(cache.K(0).shape().rows(), 3);
  EXPECT_EQ(Tensor::MaxAbsDiff(cache.K(0), kept), 0.0f);

  // The truncated tail is writable again.
  AppendRows(&cache, cfg, 2, rng);
  EXPECT_EQ(cache.length(), 5);
  EXPECT_EQ(Tensor::MaxAbsDiff(cache.K(0).SliceRows(0, 3), kept), 0.0f);

  // No-op rollback and rollback-to-empty are both legal.
  cache.RollbackTo(5);
  EXPECT_EQ(cache.length(), 5);
  cache.RollbackTo(0);
  EXPECT_EQ(cache.length(), 0);
  EXPECT_EQ(cache.held_blocks(), 0);  // the only block went back to the pool

  // The next step takes a block again, and its rows read back.
  const Tensor k = Tensor::Random(Shape({4, cfg.kv_dim()}), rng);
  const Tensor v = Tensor::Random(Shape({4, cfg.kv_dim()}), rng);
  cache.AppendStep(std::vector<Tensor>(static_cast<size_t>(cfg.num_layers), k),
                   std::vector<Tensor>(static_cast<size_t>(cfg.num_layers), v));
  EXPECT_EQ(cache.length(), 4);
  EXPECT_EQ(cache.held_blocks(), 1);
  for (int l = 0; l < cfg.num_layers; ++l) {
    EXPECT_EQ(Tensor::MaxAbsDiff(cache.K(l), k), 0.0f);
    EXPECT_EQ(Tensor::MaxAbsDiff(cache.V(l), v), 0.0f);
  }
}

TEST(KvCacheTest, TryReserveStepOnContiguousCacheIsIdempotent) {
  ModelConfig cfg = ModelConfig::Tiny();
  KvCache cache(cfg, 16, ExecutionMode::kCompute);
  Rng rng(10);
  EXPECT_TRUE(cache.TryReserveStep(4));
  // BeginStep re-runs the reservation; holding the rows already makes it a
  // no-op rather than a double allocation.
  AppendRows(&cache, cfg, 4, rng);
  EXPECT_EQ(cache.length(), 4);
}

TEST(KvCacheTest, MoveLeavesSourceInert) {
  ModelConfig cfg = ModelConfig::Tiny();
  Rng rng(11);
  KvCache cache(cfg, 32, ExecutionMode::kCompute);
  AppendRows(&cache, cfg, 5, rng);
  const Tensor before = cache.K(0);

  KvCache moved = std::move(cache);
  EXPECT_EQ(moved.length(), 5);
  EXPECT_EQ(moved.held_blocks(), 1);
  EXPECT_EQ(Tensor::MaxAbsDiff(moved.K(0), before), 0.0f);
  // NOLINTNEXTLINE(bugprone-use-after-move): the inert-source contract.
  EXPECT_EQ(cache.length(), 0);
  EXPECT_EQ(cache.held_blocks(), 0);
  // Both destructors run at scope exit; the moved-from shell must not
  // release the block the target now owns.
}

// The capacity constructor's private pool hands out standard blocks as the
// session grows, and gives them all back on Reset.
TEST(KvCacheTest, PrivatePoolGrowsInStandardBlocks) {
  ModelConfig cfg = ModelConfig::Tiny();
  KvCache cache(cfg, 128, ExecutionMode::kCompute);
  EXPECT_EQ(cache.block_tokens(), kKvBlockTokens);
  EXPECT_EQ(cache.held_blocks(), 0);
  Rng rng(12);
  for (const int64_t rows : {5, 11, 1, 16, 20}) {
    AppendRows(&cache, cfg, rows, rng);
    EXPECT_EQ(cache.held_blocks(),
              KvCache::BlocksForTokens(cache.length(), kKvBlockTokens))
        << "length " << cache.length();
  }
  EXPECT_EQ(cache.length(), 53);
  EXPECT_EQ(cache.held_blocks(), 4);
  cache.Reset();
  EXPECT_EQ(cache.held_blocks(), 0);
}

// A capacity that is not a multiple of the block size still fills to the
// last position, and one row past it overflows.
TEST(KvCacheDeathTest, RaggedCapacityFillsThenOverflows) {
  ModelConfig cfg = ModelConfig::Tiny();
  KvCache cache(cfg, 37, ExecutionMode::kCompute);
  Rng rng(13);
  AppendRows(&cache, cfg, 36, rng);
  AppendRows(&cache, cfg, 1, rng);
  EXPECT_EQ(cache.length(), 37);
  EXPECT_EQ(cache.held_blocks(), 3);
  EXPECT_DEATH(cache.BeginStep(1), "overflow");
}

TEST(KvCacheDeathTest, RollbackDuringOpenStepAborts) {
  ModelConfig cfg = ModelConfig::Tiny();
  KvCache cache(cfg, 16, ExecutionMode::kCompute);
  cache.BeginStep(2);
  EXPECT_DEATH(cache.RollbackTo(0), "uncommitted step");
}

}  // namespace
}  // namespace heterollm::model
