// Figure 4: NPU stage performance — matmul latency forms a staircase across
// tensor sizes because the systolic array pads every dimension to its
// 32-wide tile grid.

#include "bench/bench_common.h"
#include "src/common/strings.h"
#include "src/common/table.h"
#include "src/core/platform.h"

namespace heterollm {
namespace {

MicroSeconds NpuLatencyAt(int64_t m) {
  core::Platform plat;
  hal::NpuDevice& npu = plat.npu();
  hal::MatmulSpec spec;
  spec.m = m;
  spec.n = 2048;
  spec.k = 2048;
  spec.b_bytes_per_elem = 2.0;
  return npu.IsolatedTime(npu.CostMatmul(spec));
}

void PrintFigure4(report::BenchReport& report) {
  benchx::PrintHeader(report, "Figure 4",
                      "NPU stage performance: Matmul [m,2048]x[2048,2048] "
                      "latency vs m");
  TextTable table({"m", "latency (us)", "same tile as previous?"});
  MicroSeconds prev = -1;
  int plateaus = 0;
  for (int64_t m = 8; m <= 160; m += 8) {
    const MicroSeconds t = NpuLatencyAt(m);
    const bool same = prev >= 0 && t == prev;
    plateaus += same ? 1 : 0;
    table.AddRow({std::to_string(m), StrFormat("%.1f", t),
                  same ? "yes (padding plateau)" : "no (new tile)"});
    prev = t;
  }
  benchx::EmitTable(report, "npu_matmul_staircase", table);
  std::printf(
      "Every size within one 32-row tile shares a latency plateau (%d "
      "plateau points measured) — the paper's stage effect.\n",
      plateaus);
  report.AddMetric("npu.staircase.plateau_points", plateaus,
                   benchx::Calibration("", /*tolerance=*/0));
  report.AddMetric("npu.matmul_m32.latency_us", NpuLatencyAt(32),
                   benchx::LowerIsBetter("us"));
  report.AddMetric("npu.matmul_m33.latency_us", NpuLatencyAt(33),
                   benchx::LowerIsBetter("us"));
}

}  // namespace
}  // namespace heterollm

HETEROLLM_BENCH_MAIN("fig4_npu_stage", heterollm::PrintFigure4)
