// Figure 14: prefill latency for misaligned sequence lengths on Llama-8B —
// Online-prepare vs Padding vs Pipe vs Hetero-tensor (plus MLLM-NPU-style
// Chunked prefill for §5.2.2's discussion).

#include "bench/bench_common.h"
#include "src/common/strings.h"
#include "src/common/table.h"
#include "src/workload/prompt_workload.h"

namespace heterollm {
namespace {

using benchx::RunEngineOnce;
using model::ModelConfig;

void PrintFigure14(report::BenchReport& report) {
  benchx::PrintHeader(report, "Figure 14",
                      "Prefill latency (ms) with misaligned sequence lengths "
                      "(Llama-8B; standard graph sizes are powers of two)");
  const ModelConfig cfg = ModelConfig::Llama8B();
  TextTable table({"seq", "Online-prepare", "(graph-gen %)", "Padding", "Pipe",
                   "Chunked", "Hetero-tensor"});
  double speedup_online = 0;
  double speedup_padding = 0;
  double speedup_pipe = 0;
  for (int seq : workload::MisalignedPromptLengths()) {
    const core::GenerationStats online =
        RunEngineOnce("Online-prepare", cfg, seq, 0);
    const core::GenerationStats padding = RunEngineOnce("Padding", cfg, seq, 0);
    const core::GenerationStats pipe = RunEngineOnce("Pipe", cfg, seq, 0);
    const core::GenerationStats chunked = RunEngineOnce("Chunked", cfg, seq, 0);
    const core::GenerationStats hetero =
        RunEngineOnce("Hetero-tensor", cfg, seq, 0);
    table.AddRow({std::to_string(seq),
                  StrFormat("%.0f", ToMillis(online.ttft())),
                  StrFormat("%.1f%%", 100.0 * online.prefill.graph_gen_time /
                                          online.prefill.latency),
                  StrFormat("%.0f", ToMillis(padding.ttft())),
                  StrFormat("%.0f", ToMillis(pipe.ttft())),
                  StrFormat("%.0f", ToMillis(chunked.ttft())),
                  StrFormat("%.0f", ToMillis(hetero.ttft()))});
    report.AddMetric(StrFormat("misaligned.seq%d.hetero_tensor.ttft_ms", seq),
                     ToMillis(hetero.ttft()), benchx::LowerIsBetter("ms"));
    if (seq == 525) {
      speedup_online = online.ttft() / hetero.ttft();
      speedup_padding = padding.ttft() / hetero.ttft();
      speedup_pipe = pipe.ttft() / hetero.ttft();
      report.AddMetric("misaligned.seq525.online_prepare.ttft_ms",
                       ToMillis(online.ttft()), benchx::LowerIsBetter("ms"));
      report.AddMetric("misaligned.seq525.padding.ttft_ms",
                       ToMillis(padding.ttft()), benchx::LowerIsBetter("ms"));
      report.AddMetric("misaligned.seq525.pipe.ttft_ms",
                       ToMillis(pipe.ttft()), benchx::LowerIsBetter("ms"));
      report.AddMetric("misaligned.seq525.chunked.ttft_ms",
                       ToMillis(chunked.ttft()), benchx::LowerIsBetter("ms"));
    }
  }
  benchx::EmitTable(report, "misaligned_prefill_latency", table);
  benchx::EmitAnchors(report,
                      "Paper anchors (@ seq 525, Hetero-tensor speedup)",
                      {{"vs Online-prepare", 2.24, speedup_online, "x"},
                       {"vs Padding", 2.21, speedup_padding, "x"},
                       {"vs Pipe", 1.35, speedup_pipe, "x"}});
}

}  // namespace
}  // namespace heterollm

HETEROLLM_BENCH_MAIN("fig14_misaligned", heterollm::PrintFigure14)
