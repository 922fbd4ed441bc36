// Figure 17: decoding rate of Hetero-tensor with and without fast
// synchronization. Decode kernels run only hundreds of µs, so the ~400 µs
// legacy sync dominates without the fast path (paper: 4.01x on Llama-8B).

#include "bench/bench_common.h"
#include "src/common/strings.h"
#include "src/common/table.h"

namespace heterollm {
namespace {

using benchx::RunEngineOnce;
using model::ModelConfig;

constexpr int kDecodeSteps = 16;

void PrintFigure17(report::BenchReport& report) {
  benchx::PrintHeader(report, "Figure 17",
                      "Hetero-tensor decoding with vs without fast sync "
                      "(prompt 256)");
  core::EngineOptions slow;
  slow.fast_sync = false;
  TextTable table({"model", "w/ fast sync", "w/o fast sync", "speedup"});
  double speedup_8b = 0;
  for (const ModelConfig& cfg :
       {ModelConfig::Llama8B(), ModelConfig::Llama7B(), ModelConfig::Llama3B(),
        ModelConfig::InternLM1_8B()}) {
    const double fast = RunEngineOnce("Hetero-tensor", cfg, 256, kDecodeSteps)
                            .decode_tokens_per_s();
    const double baseline =
        RunEngineOnce("Hetero-tensor", cfg, 256, kDecodeSteps, slow)
            .decode_tokens_per_s();
    if (cfg.name == "Llama-8B") {
      speedup_8b = fast / baseline;
    }
    table.AddRow({cfg.name, StrFormat("%.2f", fast),
                  StrFormat("%.2f", baseline),
                  StrFormat("%.2fx", fast / baseline)});
    report.AddMetric(
        "fastsync.decode." + benchx::Slug(cfg.name) + ".speedup",
        fast / baseline, benchx::HigherIsBetter("x"));
  }
  benchx::EmitTable(report, "fastsync_decode", table);
  benchx::EmitAnchors(
      report, "Paper anchors",
      {{"Llama-8B fast-sync speedup", 4.01, speedup_8b, "x"}});
  std::printf(
      "The decoding speedup far exceeds the prefill one (Fig. 15) because "
      "each decode kernel runs only hundreds of microseconds.\n");
}

}  // namespace
}  // namespace heterollm

HETEROLLM_BENCH_MAIN("fig17_fastsync_decode", heterollm::PrintFigure17)
