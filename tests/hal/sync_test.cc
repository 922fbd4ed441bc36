#include "src/hal/sync.h"

#include <gtest/gtest.h>

namespace heterollm::hal {
namespace {

class SyncTest : public ::testing::Test {
 protected:
  SyncTest() : soc_(sim::MemoryConfig{}) {
    unit_ = soc_.AddUnit({"gpu", 45e3, {}});
  }

  sim::KernelHandle RunKernel(MicroSeconds compute, MicroSeconds at = 0) {
    return soc_.Submit(unit_, {soc_.InternLabel("k"), compute, 0, 0}, at);
  }

  sim::SocSimulator soc_;
  sim::UnitId unit_ = -1;
  SyncMechanism sync_;
};

TEST_F(SyncTest, BaselineChargesCopyPath) {
  sim::KernelHandle k = RunKernel(100.0);
  const MicroSeconds host =
      sync_.WaitKernel(soc_, k, /*host_now=*/0, SyncMode::kBaseline);
  EXPECT_DOUBLE_EQ(host, 100.0 + sync_.config().copy_sync_us);
}

TEST_F(SyncTest, FastSyncCostsMicroseconds) {
  sim::KernelHandle k = RunKernel(1000.0);
  const MicroSeconds host =
      sync_.WaitKernel(soc_, k, /*host_now=*/0, SyncMode::kFast);
  EXPECT_GE(host, 1000.0);
  EXPECT_LE(host, 1000.0 + 2 * sync_.config().fast_poll_us);
}

TEST_F(SyncTest, FastSyncOnAlreadyFinishedKernel) {
  sim::KernelHandle k = RunKernel(10.0);
  soc_.WaitForKernel(k);
  const MicroSeconds host =
      sync_.WaitKernel(soc_, k, /*host_now=*/500.0, SyncMode::kFast);
  EXPECT_DOUBLE_EQ(host, 500.0 + sync_.config().fast_poll_us);
}

TEST_F(SyncTest, BaselineOnFinishedKernelStillPaysCopy) {
  sim::KernelHandle k = RunKernel(10.0);
  soc_.WaitForKernel(k);
  const MicroSeconds host =
      sync_.WaitKernel(soc_, k, /*host_now=*/500.0, SyncMode::kBaseline);
  EXPECT_DOUBLE_EQ(host, 500.0 + sync_.config().copy_sync_us);
}

TEST_F(SyncTest, FastVsBaselineGapIsLarge) {
  sim::KernelHandle k1 = RunKernel(200.0);
  const MicroSeconds fast = sync_.WaitKernel(soc_, k1, 0, SyncMode::kFast);
  sim::KernelHandle k2 = RunKernel(200.0, fast);
  const MicroSeconds baseline =
      sync_.WaitKernel(soc_, k2, fast, SyncMode::kBaseline) - fast;
  EXPECT_GT(baseline / (fast - 200.0), 20.0);
}

TEST_F(SyncTest, TelemetryCountsWaits) {
  sim::KernelHandle k = RunKernel(50.0);
  sync_.WaitKernel(soc_, k, 0, SyncMode::kFast);
  EXPECT_EQ(sync_.wait_count(), 1);
  EXPECT_GT(sync_.total_sync_overhead(), 0);
}

}  // namespace
}  // namespace heterollm::hal
