// Figure 6: total memory bandwidth with single and multiple processors under
// decoding workloads. One processor reaches only 40-45 GB/s of the 68 GB/s
// SoC ceiling; GPU+NPU together reach ~60 GB/s.

#include "bench/bench_common.h"
#include "src/common/strings.h"
#include "src/common/table.h"
#include "src/core/platform.h"

namespace heterollm {
namespace {

// Saturating streaming measurement straight against the memory system.
double SteadyBandwidth(bool use_cpu, bool use_gpu, bool use_npu) {
  core::Platform plat;
  sim::MemorySystem& mem = plat.soc().memory();
  auto cap = [&](hal::Device& d) {
    return plat.soc().unit_spec(d.unit()).bandwidth_cap_bytes_per_us;
  };
  if (use_cpu) {
    mem.OpenStream(cap(plat.cpu()), 1e12);
  }
  if (use_gpu) {
    mem.OpenStream(cap(plat.gpu()), 1e12);
  }
  if (use_npu) {
    mem.OpenStream(cap(plat.npu()), 1e12);
  }
  return mem.TotalAllocatedRate() / 1e3;  // GB/s
}

// End-to-end measurement: bytes actually moved during a decoding run.
double DecodeBandwidth(const std::string& engine_name) {
  const model::ModelConfig cfg = model::ModelConfig::Llama8B();
  model::ModelWeights weights =
      model::ModelWeights::Create(cfg, model::ExecutionMode::kSimulate);
  core::Platform plat(core::PlatformOptionsFor(engine_name));
  auto engine = core::CreateEngine(engine_name, &plat, &weights);
  engine->Prefill(tensor::Tensor::Deferred(
      tensor::Shape({128, cfg.hidden}), tensor::DType::kFp16));
  const Bytes bytes_before = plat.soc().memory().total_bytes_transferred();
  const MicroSeconds t0 = plat.soc().now();
  for (int i = 0; i < 8; ++i) {
    engine->DecodeStep(tensor::Tensor::Deferred(
        tensor::Shape({1, cfg.hidden}), tensor::DType::kFp16));
  }
  plat.soc().DrainAll();
  const Bytes moved = plat.soc().memory().total_bytes_transferred() -
                      bytes_before;
  return ToGBPerSecond(moved, plat.soc().now() - t0);
}

void PrintFigure6(report::BenchReport& report) {
  benchx::PrintHeader(report, "Figure 6",
                      "SoC memory bandwidth: single vs multiple processors "
                      "(decoding workloads)");
  const double gpu_only = SteadyBandwidth(false, true, false);
  const double gpu_npu = SteadyBandwidth(false, true, true);
  TextTable table({"processors", "achieved GB/s", "paper GB/s"});
  table.AddRow({"CPU only", StrFormat("%.1f", SteadyBandwidth(true, false, false)),
                "40-45"});
  table.AddRow({"GPU only", StrFormat("%.1f", gpu_only), "43.3"});
  table.AddRow({"NPU only", StrFormat("%.1f", SteadyBandwidth(false, false, true)),
                "40-45"});
  table.AddRow({"GPU + NPU", StrFormat("%.1f", gpu_npu), "59.1"});
  table.AddRow({"CPU + GPU + NPU",
                StrFormat("%.1f", SteadyBandwidth(true, true, true)),
                "~60 (ceiling 68)"});
  benchx::EmitTable(report, "steady_bandwidth", table);
  benchx::EmitAnchors(report, "Paper anchors (steady streaming)",
                      {{"GPU-only bandwidth (GB/s)", 43.3, gpu_only, "GB/s"},
                       {"GPU+NPU bandwidth (GB/s)", 59.1, gpu_npu, "GB/s"}});

  std::printf("\nEnd-to-end Llama-8B decoding (weights streamed per token):\n");
  const double ppl_gbps = DecodeBandwidth("PPL-OpenCL");
  const double hetero_gbps = DecodeBandwidth("Hetero-tensor");
  TextTable e2e({"engine", "achieved GB/s"});
  e2e.AddRow({"PPL-OpenCL (GPU only)", StrFormat("%.1f", ppl_gbps)});
  e2e.AddRow({"Hetero-tensor (GPU+NPU row-cut)",
              StrFormat("%.1f", hetero_gbps)});
  benchx::EmitTable(report, "decode_bandwidth_e2e", e2e);
  report.AddMetric("decode.ppl_opencl.gbps", ppl_gbps,
                   benchx::HigherIsBetter("GB/s"));
  report.AddMetric("decode.hetero_tensor.gbps", hetero_gbps,
                   benchx::HigherIsBetter("GB/s"));
}

}  // namespace
}  // namespace heterollm

HETEROLLM_BENCH_MAIN("fig6_memory_bandwidth", heterollm::PrintFigure6)
