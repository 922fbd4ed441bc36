// Figure 18: LLM prefill running concurrently with a 60 FPS mobile game.
// A GPU-saturating engine (PPL-OpenCL) floods the FIFO queue and the game's
// frames starve; the heterogeneous engines leave the GPU mostly idle and
// rendering keeps its 60 FPS while the LLM slows by single-digit percent.

#include "bench/bench_common.h"
#include "src/common/strings.h"
#include "src/common/table.h"
#include "src/workload/render_workload.h"

namespace heterollm {
namespace {

using model::ModelConfig;

struct InterferenceResult {
  double tok_s_alone = 0;
  double tok_s_with_game = 0;
  double fps = 0;
};

InterferenceResult Measure(const std::string& engine_name) {
  const ModelConfig cfg = ModelConfig::Llama8B();
  model::ModelWeights weights =
      model::ModelWeights::Create(cfg, model::ExecutionMode::kSimulate);
  InterferenceResult result;
  {
    core::Platform plat(core::PlatformOptionsFor(engine_name));
    auto engine = core::CreateEngine(engine_name, &plat, &weights);
    result.tok_s_alone = engine->Generate(256, 0).prefill_tokens_per_s();
  }
  {
    core::Platform plat(core::PlatformOptionsFor(engine_name));
    auto engine = core::CreateEngine(engine_name, &plat, &weights);
    workload::RenderWorkload render(&plat);
    render.SubmitFrames(/*duration=*/12e6);
    core::GenerationStats stats = engine->Generate(256, 0);
    result.tok_s_with_game = stats.prefill_tokens_per_s();
    workload::RenderStats rs =
        render.Collect(std::min(12e6, stats.prefill.latency));
    result.fps = rs.delivered_fps;
  }
  return result;
}

void PrintFigure18(report::BenchReport& report) {
  benchx::PrintHeader(report, "Figure 18",
                      "Prefill speed and game FPS when running concurrently "
                      "with League-of-Legends-class rendering (Llama-8B, "
                      "seq 256)");
  TextTable table({"engine", "tok/s alone", "tok/s w/ game", "LLM slowdown",
                   "game FPS"});
  double hetero_tensor_slowdown = 0;
  double hetero_layer_slowdown = 0;
  double tensor_with_game = 0;
  double layer_alone = 0;
  for (const char* engine : {"PPL-OpenCL", "Hetero-layer", "Hetero-tensor"}) {
    const InterferenceResult r = Measure(engine);
    const double slowdown = 100.0 * (1.0 - r.tok_s_with_game / r.tok_s_alone);
    if (std::string(engine) == "Hetero-tensor") {
      hetero_tensor_slowdown = slowdown;
      tensor_with_game = r.tok_s_with_game;
    }
    if (std::string(engine) == "Hetero-layer") {
      hetero_layer_slowdown = slowdown;
      layer_alone = r.tok_s_alone;
    }
    table.AddRow({engine, StrFormat("%.1f", r.tok_s_alone),
                  StrFormat("%.1f", r.tok_s_with_game),
                  StrFormat("%.1f%%", slowdown), StrFormat("%.0f", r.fps)});
    const std::string base = "interference." + benchx::Slug(engine);
    report.AddMetric(base + ".tok_s_alone", r.tok_s_alone,
                     benchx::HigherIsBetter("tok/s"));
    report.AddMetric(base + ".tok_s_with_game", r.tok_s_with_game,
                     benchx::HigherIsBetter("tok/s"));
    report.AddMetric(base + ".game_fps", r.fps,
                     benchx::HigherIsBetter("fps"));
  }
  benchx::EmitTable(report, "interference", table);
  benchx::EmitAnchors(report, "Paper anchors",
                      {{"Hetero-layer slowdown (%)", 9.57,
                        hetero_layer_slowdown, "%"},
                       {"Hetero-tensor slowdown (%)", 7.26,
                        hetero_tensor_slowdown, "%"},
                       {"tensor w/ game vs layer w/o game (%)", 15.3,
                        100.0 * (tensor_with_game / layer_alone - 1.0), "%"}});
  std::printf(
      "Paper: the game holds 60 FPS under both hetero engines and drops to "
      "zero under PPL-OpenCL.\n");
}

}  // namespace
}  // namespace heterollm

HETEROLLM_BENCH_MAIN("fig18_interference", heterollm::PrintFigure18)
