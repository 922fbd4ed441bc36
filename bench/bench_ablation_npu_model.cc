// Ablation: which parts of the NPU cost model drive the headline results.
// Toggles the GEMV fast path, the shape penalty and the SRAM capacity and
// reports their end-to-end effect — evidence that the reproduction's
// conclusions rest on the paper's characterized mechanisms rather than
// incidental constants.

#include "bench/bench_common.h"
#include "src/common/strings.h"
#include "src/common/table.h"

namespace heterollm {
namespace {

using model::ModelConfig;

core::GenerationStats RunWith(const core::PlatformOptions& opts,
                              const std::string& engine, int prompt,
                              int decode) {
  model::ModelWeights weights = model::ModelWeights::Create(
      ModelConfig::Llama8B(), model::ExecutionMode::kSimulate);
  core::Platform platform(opts);
  auto e = core::CreateEngine(engine, &platform, &weights);
  return e->Generate(prompt, decode);
}

void PrintAblation(report::BenchReport& report) {
  benchx::PrintHeader(report, "Ablation",
                      "NPU cost-model components (Llama-8B)");

  TextTable table({"configuration", "prefill tok/s (tensor)",
                   "decode tok/s (tensor)", "decode vs GPU-only"});

  auto run_row = [&](const std::string& label,
                     core::PlatformOptions opts) {
    const core::GenerationStats hetero =
        RunWith(opts, "Hetero-tensor", 256, 12);
    const core::GenerationStats gpu = RunWith(opts, "PPL-OpenCL", 256, 12);
    table.AddRow({label,
                  StrFormat("%.1f", hetero.prefill_tokens_per_s()),
                  StrFormat("%.2f", hetero.decode_tokens_per_s()),
                  StrFormat("%+.1f%%", 100.0 *
                                            (hetero.decode_tokens_per_s() /
                                                 gpu.decode_tokens_per_s() -
                                             1.0))});
    const std::string base = "ablation." + benchx::Slug(label);
    report.AddMetric(base + ".prefill_tok_s", hetero.prefill_tokens_per_s(),
                     benchx::HigherIsBetter("tok/s"));
    report.AddMetric(base + ".decode_tok_s", hetero.decode_tokens_per_s(),
                     benchx::HigherIsBetter("tok/s"));
  };

  run_row("reference (paper calibration)",
          core::PlatformOptions::Snapdragon8Gen3());

  {
    core::PlatformOptions opts = core::PlatformOptions::Snapdragon8Gen3();
    opts.npu.gemv_fast_path = false;
    run_row("no GEMV fast path (decode matmuls pay systolic padding)", opts);
  }
  {
    core::PlatformOptions opts = core::PlatformOptions::Snapdragon8Gen3();
    opts.npu.shape_floor = 1.0;  // disable NPU-3 shape penalty
    run_row("no shape penalty (FFN-down 'fast' on NPU)", opts);
  }
  {
    core::PlatformOptions opts = core::PlatformOptions::Snapdragon8Gen3();
    opts.npu.shape_floor = 0.05;
    run_row("harsher shape penalty (floor 0.05)", opts);
  }
  {
    core::PlatformOptions opts = core::PlatformOptions::Snapdragon8Gen3();
    opts.npu.sram_bytes = 2.0 * 1024 * 1024;
    run_row("small NPU SRAM (2 MiB; more stationary re-streaming)", opts);
  }
  {
    core::PlatformOptions opts = core::PlatformOptions::Snapdragon8Gen3();
    opts.npu.effective_fp16_tflops = 5.0;
    run_row("half NPU FP16 rate (5 TFLOPS effective)", opts);
  }
  benchx::EmitTable(report, "npu_cost_model", table);
  std::printf(
      "Expected reads: disabling the shape penalty removes the paper's "
      "FFN-down bottleneck (prefill jumps ~1.8x, the motivation for "
      "row-cutting disappears); disabling the GEMV path makes NPU decode "
      "partially compute-bound — the solver adapts by shrinking the NPU's "
      "share, so the gain shrinks rather than collapses. SRAM size barely "
      "matters because the stationary activation blocks are small.\n");
}

}  // namespace
}  // namespace heterollm

HETEROLLM_BENCH_MAIN("ablation_npu_model", heterollm::PrintAblation)
