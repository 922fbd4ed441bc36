// Figure 2: mobile GPU performance across tensor sizes — FLOPS grow linearly
// while memory/launch-bound, then saturate at the effective compute rate.

#include "bench/bench_common.h"
#include "src/common/strings.h"
#include "src/common/table.h"
#include "src/core/platform.h"

namespace heterollm {
namespace {

double GpuTflopsAt(int64_t size) {
  core::Platform plat;
  hal::GpuDevice& gpu = plat.gpu();
  hal::MatmulSpec spec;
  spec.m = size;
  spec.n = size;
  spec.k = size;
  spec.b_bytes_per_elem = 2.0;
  const MicroSeconds t = gpu.IsolatedTime(gpu.CostMatmul(spec));
  return ToTflops(spec.flops(), t);
}

void PrintFigure2(report::BenchReport& report) {
  benchx::PrintHeader(report, "Figure 2",
                      "GPU performance with varying tensor sizes (square "
                      "matmul, FP16)");
  TextTable table({"size", "achieved TFLOPS", "regime"});
  double peak = 0;
  for (int64_t size : {32, 64, 128, 256, 384, 512, 768, 1024, 1536, 2048,
                       3072, 4096}) {
    const double tflops = GpuTflopsAt(size);
    peak = std::max(peak, tflops);
    table.AddRow({std::to_string(size), StrFormat("%.3f", tflops),
                  tflops < 0.9 * 1.0 ? "memory/launch-bound"
                                     : "compute-bound (saturated)"});
    report.AddMetric(StrFormat("gpu.matmul_%lld.tflops",
                               static_cast<long long>(size)),
                     tflops, benchx::HigherIsBetter("TFLOPS"));
  }
  benchx::EmitTable(report, "gpu_tflops_vs_size", table);
  std::printf(
      "Paper: ~1 TFLOPS achieved (2.8 theoretical) once compute-bound; "
      "measured peak %.2f TFLOPS.\n", peak);
  report.AddMetric("gpu.peak_tflops", peak, benchx::HigherIsBetter("TFLOPS"));
  report.AddAnchor("GPU achieved TFLOPS (compute-bound)", 1.0, peak,
                   "TFLOPS");
}

}  // namespace
}  // namespace heterollm

HETEROLLM_BENCH_MAIN("fig2_gpu_linear", heterollm::PrintFigure2)
