// Table 2: functionality and limitations of mobile-side inference engines,
// plus a live capability check of every engine this reproduction can run.

#include "bench/bench_common.h"
#include "src/common/table.h"

namespace heterollm {
namespace {

void PrintTable2(report::BenchReport& report) {
  benchx::PrintHeader(report, "Table 2",
                      "Mobile inference framework capabilities");
  TextTable table({"Framework", "CPU", "GPU", "NPU", "NPU GEMM",
                   "Sparsity-indep.", "Accuracy", "Performance"});
  for (const core::EngineDescription& d : core::EngineCatalog()) {
    table.AddRow({d.name, d.cpu, d.gpu, d.npu, d.npu_gemm_type,
                  d.sparsity_independent ? "yes" : "no", d.accuracy,
                  d.performance});
  }
  benchx::EmitTable(report, "framework_capabilities", table);

  std::printf("\nRunnable engines in this reproduction:\n");
  const std::vector<std::string> runnable = core::RunnableEngineNames();
  for (const std::string& name : runnable) {
    std::printf("  - %s\n", name.c_str());
  }
  report.AddMetric("frameworks.runnable_engines",
                   static_cast<double>(runnable.size()),
                   benchx::Calibration("count", /*tolerance=*/0));
}

}  // namespace
}  // namespace heterollm

HETEROLLM_BENCH_MAIN("table2_frameworks", heterollm::PrintTable2)
