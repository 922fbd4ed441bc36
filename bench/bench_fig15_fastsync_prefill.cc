// Figure 15: prefill speed of Hetero-layer and Hetero-tensor with and
// without fast synchronization, across models and sequence lengths.

#include "bench/bench_common.h"
#include "src/common/strings.h"
#include "src/common/table.h"

namespace heterollm {
namespace {

using benchx::RunEngineOnce;
using model::ModelConfig;

void PrintFigure15(report::BenchReport& report) {
  benchx::PrintHeader(report, "Figure 15",
                      "Prefill tokens/s with vs without fast synchronization");
  core::EngineOptions slow;
  slow.fast_sync = false;

  for (const ModelConfig& cfg :
       {ModelConfig::Llama8B(), ModelConfig::Llama7B(),
        ModelConfig::InternLM1_8B()}) {
    std::printf("\n-- %s --\n", cfg.name.c_str());
    TextTable table({"engine", "seq", "w/ fast sync", "w/o fast sync",
                     "improvement"});
    double avg_tensor = 0;
    int count = 0;
    for (const char* engine : {"Hetero-layer", "Hetero-tensor"}) {
      for (int seq : {64, 256, 1024}) {
        const double fast =
            RunEngineOnce(engine, cfg, seq, 0).prefill_tokens_per_s();
        const double baseline =
            RunEngineOnce(engine, cfg, seq, 0, slow).prefill_tokens_per_s();
        table.AddRow({engine, std::to_string(seq), StrFormat("%.1f", fast),
                      StrFormat("%.1f", baseline),
                      StrFormat("%.1f%%", 100.0 * (fast / baseline - 1.0))});
        if (std::string(engine) == "Hetero-tensor") {
          avg_tensor += fast / baseline - 1.0;
          ++count;
        }
      }
    }
    benchx::EmitTable(report, "fastsync_prefill_" + benchx::Slug(cfg.name),
                      table);
    std::printf("Hetero-tensor average improvement: %.1f%% (paper: 24.3%% on "
                "Llama-8B, 49.0%% on Llama-7B, 34.5%% on InternLM-1.8B)\n",
                100.0 * avg_tensor / count);
    report.AddMetric(
        "fastsync.prefill." + benchx::Slug(cfg.name) + ".improvement_pct",
        100.0 * avg_tensor / count, benchx::HigherIsBetter("%"));
  }
}

}  // namespace
}  // namespace heterollm

HETEROLLM_BENCH_MAIN("fig15_fastsync_prefill", heterollm::PrintFigure15)
