// Figure 16: decoding rate of every engine across models (prompt length 256,
// as in the paper).

#include "bench/bench_common.h"
#include "src/common/strings.h"
#include "src/common/table.h"

namespace heterollm {
namespace {

using benchx::RunEngineOnce;
using model::ModelConfig;

constexpr int kDecodeSteps = 24;

void PrintFigure16(report::BenchReport& report) {
  benchx::PrintHeader(report, "Figure 16",
                      "Decoding rate (tokens/s), prompt length 256");
  TextTable table({"engine", "Llama-8B", "Llama-7B", "Llama-3B",
                   "InternLM-1.8B"});
  std::vector<std::vector<double>> grid;
  for (const char* engine : {"MNN-OpenCL", "llama.cpp", "MLC", "PPL-OpenCL",
                             "Hetero-layer", "Hetero-tensor"}) {
    std::vector<std::string> row = {engine};
    std::vector<double> vals;
    for (const ModelConfig& cfg :
         {ModelConfig::Llama8B(), ModelConfig::Llama7B(),
          ModelConfig::Llama3B(), ModelConfig::InternLM1_8B()}) {
      const double tok_s =
          RunEngineOnce(engine, cfg, 256, kDecodeSteps).decode_tokens_per_s();
      vals.push_back(tok_s);
      row.push_back(StrFormat("%.2f", tok_s));
      report.AddMetric("decode." + benchx::Slug(cfg.name) + "." +
                           benchx::Slug(engine) + ".tok_s",
                       tok_s, benchx::HigherIsBetter("tok/s"));
    }
    grid.push_back(vals);
    table.AddRow(row);
  }
  benchx::EmitTable(report, "decode_rate", table);

  benchx::EmitAnchors(
      report, "Paper anchors",
      {{"Hetero-tensor Llama-8B", 14.01, grid[5][0], "tok/s"},
       {"Hetero-tensor Llama-3B", 29.9, grid[5][2], "tok/s"},
       {"Hetero-tensor InternLM-1.8B", 51.12, grid[5][3], "tok/s"},
       {"vs PPL (Llama-8B)", 1.234, grid[5][0] / grid[3][0], "x"},
       {"vs MNN (Llama-8B)", 1.50, grid[5][0] / grid[0][0], "x"},
       {"vs llama.cpp (Llama-8B)", 2.53, grid[5][0] / grid[1][0], "x"},
       {"vs MLC (Llama-8B)", 1.52, grid[5][0] / grid[2][0], "x"},
       {"vs MNN (InternLM)", 1.94, grid[5][3] / grid[0][3], "x"},
       {"vs MLC (InternLM)", 2.62, grid[5][3] / grid[2][3], "x"}});
}

}  // namespace
}  // namespace heterollm

HETEROLLM_BENCH_MAIN("fig16_decode", heterollm::PrintFigure16)
