#include "src/sim/soc_simulator.h"

#include <string>
#include <vector>

#include <gtest/gtest.h>

namespace heterollm::sim {
namespace {

MemoryConfig NoLossConfig() {
  MemoryConfig cfg;
  cfg.soc_bandwidth_bytes_per_us = 68e3;
  cfg.multi_stream_efficiency = 1.0;
  return cfg;
}

UnitSpec Gpu() {
  return UnitSpec{"gpu", /*bandwidth_cap_bytes_per_us=*/45e3, {4.0, 0.0}};
}
UnitSpec Npu() {
  return UnitSpec{"npu", /*bandwidth_cap_bytes_per_us=*/42e3, {2.0, 0.0}};
}

TEST(SocSimulatorTest, ComputeOnlyKernel) {
  SocSimulator soc(NoLossConfig());
  UnitId gpu = soc.AddUnit(Gpu());
  KernelHandle k =
      soc.Submit(gpu, {soc.InternLabel("k"), /*compute=*/100.0, 0, 0}, 0);
  EXPECT_DOUBLE_EQ(soc.WaitForKernel(k), 100.0);
}

TEST(SocSimulatorTest, LaunchOverheadDelaysCompletion) {
  SocSimulator soc(NoLossConfig());
  UnitId gpu = soc.AddUnit(Gpu());
  KernelHandle k =
      soc.Submit(gpu,
                 {soc.InternLabel("k"), 100.0, 0, /*launch_overhead=*/20.0}, 0);
  EXPECT_DOUBLE_EQ(soc.WaitForKernel(k), 120.0);
}

TEST(SocSimulatorTest, MemoryBoundKernel) {
  SocSimulator soc(NoLossConfig());
  UnitId gpu = soc.AddUnit(Gpu());
  // 450e3 bytes at 45e3 B/µs -> 10 µs; compute only 1 µs.
  KernelHandle k = soc.Submit(gpu, {soc.InternLabel("k"), 1.0, 450e3, 0}, 0);
  EXPECT_DOUBLE_EQ(soc.WaitForKernel(k), 10.0);
}

TEST(SocSimulatorTest, RooflineTakesMax) {
  SocSimulator soc(NoLossConfig());
  UnitId gpu = soc.AddUnit(Gpu());
  KernelHandle k = soc.Submit(gpu, {soc.InternLabel("k"), 50.0, 450e3, 0}, 0);
  EXPECT_DOUBLE_EQ(soc.WaitForKernel(k), 50.0);  // compute-bound
}

TEST(SocSimulatorTest, FifoOrderWithinUnit) {
  SocSimulator soc(NoLossConfig());
  UnitId gpu = soc.AddUnit(Gpu());
  KernelHandle k1 = soc.Submit(gpu, {soc.InternLabel("k1"), 10.0, 0, 0}, 0);
  KernelHandle k2 = soc.Submit(gpu, {soc.InternLabel("k2"), 5.0, 0, 0}, 0);
  EXPECT_DOUBLE_EQ(soc.WaitForKernel(k2), 15.0);
  EXPECT_DOUBLE_EQ(soc.CompletionTime(k1), 10.0);
}

TEST(SocSimulatorTest, SubmitTimeDelaysStart) {
  SocSimulator soc(NoLossConfig());
  UnitId gpu = soc.AddUnit(Gpu());
  KernelHandle k = soc.Submit(gpu, {soc.InternLabel("k"), 10.0, 0, 0},
                              /*submit_time=*/100.0);
  EXPECT_DOUBLE_EQ(soc.WaitForKernel(k), 110.0);
  EXPECT_DOUBLE_EQ(soc.StartTime(k), 100.0);
}

TEST(SocSimulatorTest, ParallelUnitsContendForBandwidth) {
  SocSimulator soc(NoLossConfig());
  UnitId gpu = soc.AddUnit(Gpu());
  UnitId npu = soc.AddUnit(Npu());
  // Each wants to move 340e3 bytes. Alone: gpu 7.56 µs, npu 8.1 µs.
  // Together, fair share is 34e3 each: both take 10 µs.
  KernelHandle kg = soc.Submit(gpu, {soc.InternLabel("g"), 0.0, 340e3, 0}, 0);
  KernelHandle kn = soc.Submit(npu, {soc.InternLabel("n"), 0.0, 340e3, 0}, 0);
  MicroSeconds tg = soc.WaitForKernel(kg);
  MicroSeconds tn = soc.WaitForKernel(kn);
  EXPECT_NEAR(tg, 10.0, 1e-6);
  EXPECT_NEAR(tn, 10.0, 1e-6);
}

TEST(SocSimulatorTest, SequentialSubmissionAfterWait) {
  SocSimulator soc(NoLossConfig());
  UnitId gpu = soc.AddUnit(Gpu());
  KernelHandle k1 = soc.Submit(gpu, {soc.InternLabel("k1"), 10.0, 0, 0}, 0);
  MicroSeconds t1 = soc.WaitForKernel(k1);
  KernelHandle k2 =
      soc.Submit(gpu, {soc.InternLabel("k2"), 10.0, 0, 0}, t1 + 5.0);
  EXPECT_DOUBLE_EQ(soc.WaitForKernel(k2), 25.0);
}

TEST(SocSimulatorTest, UnitHasWorkReflectsQueue) {
  SocSimulator soc(NoLossConfig());
  UnitId gpu = soc.AddUnit(Gpu());
  EXPECT_FALSE(soc.UnitHasWork(gpu));
  KernelHandle k = soc.Submit(gpu, {soc.InternLabel("k"), 10.0, 0, 0}, 0);
  EXPECT_TRUE(soc.UnitHasWork(gpu));
  soc.WaitForKernel(k);
  EXPECT_FALSE(soc.UnitHasWork(gpu));
}

TEST(SocSimulatorTest, WaitForUnitIdleReturnsLastCompletion) {
  SocSimulator soc(NoLossConfig());
  UnitId gpu = soc.AddUnit(Gpu());
  soc.Submit(gpu, {soc.InternLabel("k1"), 10.0, 0, 0}, 0);
  soc.Submit(gpu, {soc.InternLabel("k2"), 10.0, 0, 0}, 0);
  EXPECT_DOUBLE_EQ(soc.WaitForUnitIdle(gpu), 20.0);
}

TEST(SocSimulatorTest, DrainAllFinishesEverything) {
  SocSimulator soc(NoLossConfig());
  UnitId gpu = soc.AddUnit(Gpu());
  UnitId npu = soc.AddUnit(Npu());
  soc.Submit(gpu, {soc.InternLabel("g"), 30.0, 0, 0}, 0);
  soc.Submit(npu, {soc.InternLabel("n"), 50.0, 0, 0}, 0);
  EXPECT_DOUBLE_EQ(soc.DrainAll(), 50.0);
}

TEST(SocSimulatorTest, BusyTimeAndPowerAccounted) {
  SocSimulator soc(NoLossConfig());
  UnitId gpu = soc.AddUnit(Gpu());
  KernelHandle k = soc.Submit(gpu, {soc.InternLabel("k"), 100.0, 0, 0}, 0);
  soc.WaitForKernel(k);
  EXPECT_DOUBLE_EQ(soc.UnitBusyTime(gpu), 100.0);
  // 100 µs at 4 W = 400 µJ.
  EXPECT_DOUBLE_EQ(soc.power().TotalEnergy(100.0), 400.0);
}

// A kernel on an otherwise-idle unit that overlaps another unit's stream
// slows down mid-flight and speeds back up when the other stream ends.
TEST(SocSimulatorTest, TimeVaryingBandwidthIntegration) {
  SocSimulator soc(NoLossConfig());
  UnitId gpu = soc.AddUnit(Gpu());
  UnitId npu = soc.AddUnit(Npu());
  // GPU: 450e3 bytes. Alone it would take 10 µs at 45e3.
  KernelHandle kg = soc.Submit(gpu, {soc.InternLabel("g"), 0.0, 450e3, 0}, 0);
  // NPU: short burst of 68e3 bytes starting at t=0: fair share 34e3 each ->
  // npu finishes at t=2, gpu then accelerates to 45e3.
  KernelHandle kn = soc.Submit(npu, {soc.InternLabel("n"), 0.0, 68e3, 0}, 0);
  MicroSeconds tn = soc.WaitForKernel(kn);
  EXPECT_NEAR(tn, 2.0, 1e-6);
  // GPU progressed 68e3 bytes in [0,2], remaining 382e3 at 45e3 -> +8.49 µs.
  MicroSeconds tg = soc.WaitForKernel(kg);
  EXPECT_NEAR(tg, 2.0 + 382e3 / 45e3, 1e-6);
}

TEST(SocSimulatorTest, ManyKernelsStressFifo) {
  SocSimulator soc(NoLossConfig());
  UnitId gpu = soc.AddUnit(Gpu());
  KernelHandle last = kInvalidKernel;
  for (int i = 0; i < 1000; ++i) {
    last = soc.Submit(gpu, {soc.InternLabel("k"), 1.0, 0, 0}, 0);
  }
  EXPECT_DOUBLE_EQ(soc.WaitForKernel(last), 1000.0);
}

TEST(SocSimulatorTest, InternLabelReturnsStableIds) {
  SocSimulator soc(NoLossConfig());
  EXPECT_EQ(soc.InternLabel(""), 0);
  const LabelId a = soc.InternLabel("gpu:matmul");
  EXPECT_EQ(soc.InternLabel(std::string("gpu:") + "matmul"), a);
  const LabelId b = soc.InternLabel("npu:matmul");
  EXPECT_NE(a, b);
  EXPECT_EQ(soc.InternLabel("npu:matmul"), b);
  EXPECT_EQ(soc.label_name(a), "gpu:matmul");
  EXPECT_EQ(soc.label_name(b), "npu:matmul");
  EXPECT_EQ(soc.label_count(), 3);
}

TEST(SocSimulatorTest, DrainReleasesLiveKernelsButKeepsTimeline) {
  SocSimulator soc(NoLossConfig());
  const UnitId gpu = soc.AddUnit(Gpu());
  const UnitId npu = soc.AddUnit(Npu());
  const LabelId label = soc.InternLabel("k");
  std::vector<KernelHandle> handles;
  for (int i = 0; i < 200; ++i) {
    const UnitId unit = i % 3 == 0 ? npu : gpu;
    handles.push_back(soc.Submit(
        unit, {label, 5.0 + i % 7, 1e3 * (i % 5), 1.0}, 10.0 * (i % 11)));
  }
  soc.WaitForKernel(handles[3]);
  EXPECT_GT(soc.live_kernel_count(), 0u);
  soc.DrainAll();
  EXPECT_EQ(soc.live_kernel_count(), 0u);
  EXPECT_EQ(soc.kernel_count(), 200);
  for (size_t i = 0; i < handles.size(); ++i) {
    const KernelHandle h = handles[i];
    ASSERT_TRUE(soc.IsFinished(h));
    EXPECT_GE(soc.CompletionTime(h), soc.StartTime(h));
    EXPECT_EQ(soc.record(h).end, soc.CompletionTime(h));
    EXPECT_EQ(soc.record(h).unit, i % 3 == 0 ? npu : gpu);
    EXPECT_EQ(soc.record(h).bytes, 1e3 * static_cast<double>(i % 5));
  }
  // Handles keep counting after the table emptied.
  const KernelHandle next = soc.Submit(gpu, {label, 1.0, 0, 0}, soc.now());
  EXPECT_EQ(next, 200);
  soc.WaitForKernel(next);
  EXPECT_EQ(soc.live_kernel_count(), 0u);
}

TEST(KernelTimelineTest, RecordsSpanChunks) {
  KernelTimeline timeline;
  const KernelHandle n = 2 * KernelTimeline::kChunkSize + 3;
  for (KernelHandle h = 0; h < n; ++h) {
    EXPECT_EQ(timeline.Append({static_cast<LabelId>(h % 5), 1,
                               static_cast<MicroSeconds>(h), 0, 0, 0}),
              h);
  }
  ASSERT_EQ(timeline.size(), n);
  const KernelRecord* first = &timeline[0];
  for (KernelHandle h : {KernelHandle{0}, KernelTimeline::kChunkSize - 1,
                         KernelTimeline::kChunkSize, n - 1}) {
    EXPECT_EQ(timeline[h].start, static_cast<MicroSeconds>(h));
    EXPECT_EQ(timeline[h].label, static_cast<LabelId>(h % 5));
  }
  // Appending never moves earlier records.
  timeline.Append({0, 0, 0, 0, 0, 0});
  EXPECT_EQ(first, &timeline[0]);
}

}  // namespace
}  // namespace heterollm::sim
