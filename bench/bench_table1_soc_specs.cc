// Table 1: specifications of mobile-side heterogeneous SoCs.

#include "bench/bench_common.h"
#include "src/common/strings.h"
#include "src/common/table.h"
#include "src/sim/soc_spec.h"

namespace heterollm {
namespace {

void PrintTable1(report::BenchReport& report) {
  benchx::PrintHeader(report, "Table 1",
                      "Mobile heterogeneous SoC specifications");
  TextTable table({"Vendor", "SoC", "GPU", "GPU FP16", "NPU", "NPU INT8",
                   "NPU FP16"});
  for (const sim::SocSpec& s : sim::SocSpecCatalog()) {
    table.AddRow({s.vendor, s.soc, s.gpu_name,
                  StrFormat("%.1f TFlops", s.gpu_fp16_tflops), s.npu_name,
                  StrFormat("%.0f Tops", s.npu_int8_tops),
                  s.npu_fp16_tflops > 0
                      ? StrFormat("%.0f TFlops", s.npu_fp16_tflops)
                      : std::string("None")});
    const std::string base = "soc." + benchx::Slug(s.soc);
    report.AddMetric(base + ".gpu_fp16_tflops", s.gpu_fp16_tflops,
                     benchx::Calibration("TFLOPS", /*tolerance=*/0));
    report.AddMetric(base + ".npu_int8_tops", s.npu_int8_tops,
                     benchx::Calibration("TOPS", /*tolerance=*/0));
  }
  benchx::EmitTable(report, "soc_specs", table);
  std::printf(
      "NPU FP16 estimated as half of INT8 throughput where undisclosed "
      "(paper footnote).\n");
}

}  // namespace
}  // namespace heterollm

HETEROLLM_BENCH_MAIN("table1_soc_specs", heterollm::PrintTable1)
