// Figure 13: prefill speed of every engine across models and prompt lengths
// (aligned sequence lengths 64 / 256 / 1024).

#include <vector>

#include "bench/bench_common.h"
#include "src/common/strings.h"
#include "src/common/table.h"

namespace heterollm {
namespace {

using benchx::RunEngineOnce;
using model::ModelConfig;

const std::vector<const char*> kEngines = {
    "MNN-OpenCL", "llama.cpp", "MLC", "PPL-OpenCL", "Hetero-layer",
    "Hetero-tensor"};

using benchx::Slug;

void PrintFigure13(report::BenchReport& report) {
  benchx::PrintHeader(report, "Figure 13",
                      "Prefill speed (tokens/s) per model, prompt length and "
                      "engine");
  for (const ModelConfig& cfg :
       {ModelConfig::Llama8B(), ModelConfig::Llama7B(), ModelConfig::Llama3B(),
        ModelConfig::InternLM1_8B()}) {
    std::printf("\n-- %s --\n", cfg.name.c_str());
    TextTable table({"engine", "seq 64", "seq 256", "seq 1024"});
    double hetero_layer_256 = 0;
    std::vector<std::vector<double>> grid;
    for (const char* engine : kEngines) {
      std::vector<std::string> row = {engine};
      std::vector<double> vals;
      for (int seq : {64, 256, 1024}) {
        const double tok_s =
            RunEngineOnce(engine, cfg, seq, 0).prefill_tokens_per_s();
        vals.push_back(tok_s);
        row.push_back(StrFormat("%.1f", tok_s));
        report.AddMetric(StrFormat("prefill.%s.%s.seq%d.tok_s",
                                   Slug(cfg.name).c_str(),
                                   Slug(engine).c_str(), seq),
                         tok_s, benchx::HigherIsBetter("tok/s"));
      }
      if (std::string(engine) == "Hetero-layer") {
        hetero_layer_256 = vals[1];
      }
      grid.push_back(vals);
      table.AddRow(row);
    }
    benchx::EmitTable(report, "prefill_" + Slug(cfg.name), table);

    if (cfg.name == "Llama-8B") {
      benchx::EmitAnchors(report, "Paper anchors (Llama-8B @256)",
                          {{"Hetero-layer / MNN", 5.85,
                            hetero_layer_256 / grid[0][1], "x"},
                           {"Hetero-layer / llama.cpp", 24.9,
                            hetero_layer_256 / grid[1][1], "x"},
                           {"Hetero-layer / MLC", 5.64,
                            hetero_layer_256 / grid[2][1], "x"},
                           {"Hetero-layer / PPL", 2.99,
                            hetero_layer_256 / grid[3][1], "x"},
                           {"Hetero-tensor @1024 tok/s", 247.9, grid[5][2],
                            "tok/s"}});
    }
    if (cfg.name == "InternLM-1.8B") {
      // §5.2.1 also compares against the INT-offload MLLM-NPU engine,
      // which reaches only 564 tok/s at the same model size because its
      // accuracy-sacrificing INT path needs CPU-side activation handling.
      const double mllm =
          RunEngineOnce("MLLM-NPU", cfg, 256, 0).prefill_tokens_per_s();
      benchx::EmitAnchors(report, "Paper anchors (InternLM-1.8B)",
                          {{"Hetero-tensor @256 tok/s", 1092.0, grid[5][1],
                            "tok/s"},
                           {"MLLM-NPU (INT offload) @256", 564.0, mllm,
                            "tok/s"}});
    }
  }
}

}  // namespace
}  // namespace heterollm

HETEROLLM_BENCH_MAIN("fig13_prefill", heterollm::PrintFigure13)
