// Figure 19: power and energy consumption during the Llama-8B prefill phase
// (sequence length 256) for PPL-OpenCL, Hetero-layer and Hetero-tensor.

#include "bench/bench_common.h"
#include "src/common/strings.h"
#include "src/common/table.h"

namespace heterollm {
namespace {

using benchx::RunEngineOnce;
using model::ModelConfig;

struct EnergyRow {
  double power_w = 0;
  double energy_j = 0;
  double tok_s = 0;
};

EnergyRow Measure(const std::string& engine) {
  const core::GenerationStats s =
      RunEngineOnce(engine, ModelConfig::Llama8B(), 256, 0);
  return {s.avg_power_watts, s.energy / 1e6, s.prefill_tokens_per_s()};
}

void PrintFigure19(report::BenchReport& report) {
  benchx::PrintHeader(report, "Figure 19",
                      "Power and energy, Llama-8B prefill @ seq 256");
  TextTable table(
      {"engine", "avg power (W)", "energy (J)", "energy/token (mJ)"});
  EnergyRow ppl = Measure("PPL-OpenCL");
  EnergyRow layer = Measure("Hetero-layer");
  EnergyRow tensor = Measure("Hetero-tensor");
  for (auto [name, row] :
       {std::pair<const char*, EnergyRow>{"PPL-OpenCL", ppl},
        {"Hetero-layer", layer},
        {"Hetero-tensor", tensor}}) {
    table.AddRow({name, StrFormat("%.2f", row.power_w),
                  StrFormat("%.2f", row.energy_j),
                  StrFormat("%.1f", row.energy_j * 1e3 / 256)});
    const std::string base = "energy." + benchx::Slug(name);
    report.AddMetric(base + ".avg_power_watts", row.power_w,
                     benchx::LowerIsBetter("W"));
    report.AddMetric(base + ".energy_j", row.energy_j,
                     benchx::LowerIsBetter("J"));
    report.AddMetric(base + ".tok_s", row.tok_s,
                     benchx::HigherIsBetter("tok/s"));
  }
  benchx::EmitTable(report, "power_energy", table);
  benchx::EmitAnchors(
      report, "Paper anchors",
      {{"Hetero-layer power (W)", 2.23, layer.power_w, "W"},
       {"PPL-OpenCL power (W)", 4.34, ppl.power_w, "W"},
       {"Hetero-tensor vs layer power", 1.232,
        tensor.power_w / layer.power_w, "x"},
       {"Hetero-tensor vs layer energy", 1.033,
        tensor.energy_j / layer.energy_j, "x"},
       {"energy efficiency vs PPL", 5.87,
        (ppl.energy_j / 256) / (tensor.energy_j / 256), "x"}});
}

}  // namespace
}  // namespace heterollm

HETEROLLM_BENCH_MAIN("fig19_energy", heterollm::PrintFigure19)
