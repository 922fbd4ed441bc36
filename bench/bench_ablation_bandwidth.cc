// Ablation: the decoding win is a memory-bandwidth-aggregation effect.
// Sweeps the SoC's multi-stream efficiency and the per-processor caps and
// shows the decode gain tracking the achievable dual-stream bandwidth — the
// paper's Memory-1 observation quantified.

#include "bench/bench_common.h"
#include "src/common/strings.h"
#include "src/common/table.h"

namespace heterollm {
namespace {

using model::ModelConfig;

struct DecodeResult {
  double hetero = 0;
  double gpu_only = 0;
};

DecodeResult DecodeWith(core::PlatformOptions opts) {
  model::ModelWeights weights = model::ModelWeights::Create(
      ModelConfig::Llama8B(), model::ExecutionMode::kSimulate);
  DecodeResult r;
  {
    core::Platform platform(opts);
    auto e = core::CreateEngine("Hetero-tensor", &platform, &weights);
    r.hetero = e->Generate(128, 12).decode_tokens_per_s();
  }
  {
    core::Platform platform(opts);
    auto e = core::CreateEngine("PPL-OpenCL", &platform, &weights);
    r.gpu_only = e->Generate(128, 12).decode_tokens_per_s();
  }
  return r;
}

void PrintAblation(report::BenchReport& report) {
  benchx::PrintHeader(report, "Ablation",
                      "Decode gain vs available dual-stream bandwidth "
                      "(Llama-8B)");
  TextTable table({"configuration", "dual-stream GB/s", "GPU-only tok/s",
                   "Hetero tok/s", "gain"});
  auto row = [&](const std::string& label, core::PlatformOptions opts) {
    const double ceiling = opts.memory.soc_bandwidth_bytes_per_us *
                           opts.memory.multi_stream_efficiency / 1e3;
    const double dual =
        std::min(ceiling, (opts.gpu.bandwidth_gbps + opts.npu.bandwidth_gbps));
    const DecodeResult r = DecodeWith(opts);
    table.AddRow({label, StrFormat("%.1f", dual),
                  StrFormat("%.2f", r.gpu_only), StrFormat("%.2f", r.hetero),
                  StrFormat("%+.1f%%", 100.0 * (r.hetero / r.gpu_only - 1.0))});
    const std::string base = "bandwidth." + benchx::Slug(label);
    report.AddMetric(base + ".gpu_only_tok_s", r.gpu_only,
                     benchx::HigherIsBetter("tok/s"));
    report.AddMetric(base + ".hetero_tok_s", r.hetero,
                     benchx::HigherIsBetter("tok/s"));
  };

  row("reference (59.1 GB/s dual)", core::PlatformOptions::Snapdragon8Gen3());
  {
    core::PlatformOptions opts = core::PlatformOptions::Snapdragon8Gen3();
    opts.memory.multi_stream_efficiency = 1.0;
    row("ideal arbitration (68 GB/s dual)", opts);
  }
  {
    core::PlatformOptions opts = core::PlatformOptions::Snapdragon8Gen3();
    opts.memory.multi_stream_efficiency = 43.3 / 68.0;
    row("dual capped at one processor's rate (no aggregation headroom)",
        opts);
  }
  {
    core::PlatformOptions opts = core::PlatformOptionsFor("");
    opts.gpu.bandwidth_gbps = 60.0;
    opts.npu.bandwidth_gbps = 60.0;
    opts.memory.multi_stream_efficiency = 1.0;
    row("hypothetical: single processor can saturate the SoC", opts);
  }
  benchx::EmitTable(report, "bandwidth_sweep", table);
  std::printf(
      "With no aggregation headroom the row-cut cannot add bandwidth and "
      "the solver falls back to GPU-only (gain ~0%%); if one processor could "
      "saturate the SoC, partitioning would be pure overhead — exactly the "
      "paper's premise for why the 8 Gen 3 benefits.\n");
}

}  // namespace
}  // namespace heterollm

HETEROLLM_BENCH_MAIN("ablation_bandwidth", heterollm::PrintAblation)
