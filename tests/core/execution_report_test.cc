#include "src/core/execution_report.h"

#include <gtest/gtest.h>

#include "src/core/engine_registry.h"
#include "src/core/hetero_engine.h"

namespace heterollm::core {
namespace {

using model::ExecutionMode;
using model::ModelConfig;
using model::ModelWeights;

TEST(CanonicalizeLabelTest, CollapsesDigitRuns) {
  EXPECT_EQ(CanonicalizeKernelLabel("attn:L17"), "attn:L#");
  EXPECT_EQ(CanonicalizeKernelLabel("q:npu-seq256"), "q:npu-seq#");
  EXPECT_EQ(CanonicalizeKernelLabel("rmsnorm"), "rmsnorm");
  EXPECT_EQ(CanonicalizeKernelLabel("a1b22c333"), "a#b#c#");
}

class ExecutionReportTest : public ::testing::Test {
 protected:
  ExecutionReportTest()
      : weights_(ModelWeights::Create(ModelConfig::Llama8B(),
                                      ExecutionMode::kSimulate)) {}
  ModelWeights weights_;
};

TEST_F(ExecutionReportTest, AggregatesPrefillRun) {
  Platform plat;
  auto engine = CreateEngine("Hetero-tensor", &plat, &weights_);
  GenerationStats stats = engine->Generate(256, 0);
  ExecutionReport report = ExecutionReport::Build(
      plat, 0, stats.prefill.latency + engine->host_now());

  ASSERT_EQ(report.units.size(), 3u);
  double npu_util = 0;
  double gpu_util = 0;
  for (const auto& row : report.units) {
    if (row.unit == "npu") {
      npu_util = row.utilization;
    }
    if (row.unit == "gpu") {
      gpu_util = row.utilization;
    }
    EXPECT_GE(row.utilization, 0.0);
    EXPECT_LE(row.utilization, 1.0 + 1e-9);
  }
  // Prefill is NPU-dominant with meaningful GPU participation (Fig. 11).
  EXPECT_GT(npu_util, 0.4);
  EXPECT_GT(gpu_util, 0.05);

  // FFN matmuls dominate the op breakdown.
  ASSERT_FALSE(report.ops.empty());
  bool ffn_in_top3 = false;
  for (size_t i = 0; i < std::min<size_t>(3, report.ops.size()); ++i) {
    const std::string& op = report.ops[i].op;
    if (op.find("down") != std::string::npos ||
        op.find("gate") != std::string::npos ||
        op.find("up") != std::string::npos) {
      ffn_in_top3 = true;
    }
  }
  EXPECT_TRUE(ffn_in_top3);
}

TEST_F(ExecutionReportTest, RenderContainsTables) {
  Platform plat;
  auto engine = CreateEngine("PPL-OpenCL", &plat, &weights_);
  engine->Generate(64, 2);
  ExecutionReport report =
      ExecutionReport::Build(plat, 0, engine->host_now());
  const std::string text = report.Render();
  EXPECT_NE(text.find("utilization"), std::string::npos);
  EXPECT_NE(text.find("gpu"), std::string::npos);
  EXPECT_NE(text.find("% of window"), std::string::npos);
}

TEST_F(ExecutionReportTest, WindowClippingBoundsBusyTime) {
  Platform plat;
  auto engine = CreateEngine("PPL-OpenCL", &plat, &weights_);
  engine->Generate(64, 0);
  // A tiny window cannot contain more busy time than its own span.
  ExecutionReport report = ExecutionReport::Build(plat, 0, 1000.0);
  for (const auto& row : report.units) {
    EXPECT_LE(row.busy, 1000.0 + 1e-6);
  }
}

TEST_F(ExecutionReportTest, StraddlingKernelProratesBytesAndFlops) {
  Platform plat;
  sim::SocSimulator& soc = plat.soc();
  const sim::UnitId gpu = plat.gpu().unit();
  // One 100 µs compute-bound kernel carrying 1 MB and 2 GFLOP.
  sim::KernelDesc desc;
  desc.label = soc.InternLabel("mm");
  desc.compute_time = 100.0;
  desc.memory_bytes = 1e6;
  desc.flops = 2e9;
  soc.Submit(gpu, desc, 0);
  soc.DrainAll();

  // Window [25, 75] covers half the kernel: busy time, bytes and flops must
  // all be prorated by the same clipped fraction — the pre-fix behavior
  // charged the full traffic to the half-length window, doubling GB/s.
  ExecutionReport half = ExecutionReport::Build(plat, 25.0, 75.0);
  const auto& row = half.units[static_cast<size_t>(gpu)];
  EXPECT_EQ(row.kernels, 1);
  EXPECT_DOUBLE_EQ(row.busy, 50.0);
  EXPECT_DOUBLE_EQ(row.bytes, 0.5e6);
  EXPECT_DOUBLE_EQ(row.flops, 1e9);
  ASSERT_EQ(half.ops.size(), 1u);
  EXPECT_DOUBLE_EQ(half.ops[0].bytes, 0.5e6);
  EXPECT_DOUBLE_EQ(half.ops[0].flops, 1e9);

  // A window containing the whole kernel attributes everything.
  ExecutionReport full = ExecutionReport::Build(plat, 0.0, 100.0);
  const auto& full_row = full.units[static_cast<size_t>(gpu)];
  EXPECT_DOUBLE_EQ(full_row.bytes, 1e6);
  EXPECT_DOUBLE_EQ(full_row.flops, 2e9);
}

TEST_F(ExecutionReportTest, TopNLimitsOps) {
  Platform plat;
  auto engine = CreateEngine("Hetero-tensor", &plat, &weights_);
  engine->Generate(128, 2);
  ExecutionReport report =
      ExecutionReport::Build(plat, 0, engine->host_now(), /*top_n=*/5);
  EXPECT_LE(report.ops.size(), 5u);
}

}  // namespace
}  // namespace heterollm::core
