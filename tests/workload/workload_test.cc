#include <gtest/gtest.h>

#include "src/core/engine_registry.h"
#include "src/workload/metrics.h"
#include "src/workload/prompt_workload.h"
#include "src/workload/render_workload.h"

namespace heterollm::workload {
namespace {

TEST(PromptWorkloadTest, AlignedLengthsAreStandardSizes) {
  for (int len : AlignedPromptLengths()) {
    EXPECT_TRUE(len == 64 || len == 256 || len == 1024);
  }
}

TEST(PromptWorkloadTest, MisalignedLengthsAvoidStandardSizes) {
  const std::vector<int64_t> stds = {32, 64, 128, 256, 512, 1024};
  for (int len : MisalignedPromptLengths()) {
    EXPECT_TRUE(std::find(stds.begin(), stds.end(), len) == stds.end())
        << len;
  }
}

TEST(PromptWorkloadTest, ChatTraceRespectsBounds) {
  Rng rng(5);
  auto trace = SyntheticChatTrace(rng, 100, 24, 1024, 16, 128);
  ASSERT_EQ(trace.size(), 100u);
  for (const ChatTurn& turn : trace) {
    EXPECT_GE(turn.prompt_len, 24);
    EXPECT_LE(turn.prompt_len, 1024);
    EXPECT_GE(turn.decode_len, 16);
    EXPECT_LE(turn.decode_len, 128);
  }
}

TEST(PromptWorkloadTest, ChatTraceDeterministic) {
  Rng a(9);
  Rng b(9);
  auto t1 = SyntheticChatTrace(a, 10);
  auto t2 = SyntheticChatTrace(b, 10);
  for (size_t i = 0; i < t1.size(); ++i) {
    EXPECT_EQ(t1[i].prompt_len, t2[i].prompt_len);
    EXPECT_EQ(t1[i].decode_len, t2[i].decode_len);
  }
}

TEST(RenderWorkloadTest, IdleGpuDeliversTargetFps) {
  core::Platform plat;
  RenderWorkload render(&plat);
  render.SubmitFrames(1e6);  // 1 second
  RenderStats stats = render.Collect(1e6);
  EXPECT_GE(stats.frames_submitted, 60);
  EXPECT_LE(stats.frames_submitted, 61);
  EXPECT_EQ(stats.frames_on_time, stats.frames_submitted);
  EXPECT_NEAR(stats.delivered_fps, 60.0, 1.5);
}

TEST(RenderWorkloadTest, SaturatedQueueStarvesFrames) {
  // A burst of long LLM kernels enqueued at t=0 ahead of the frames delays
  // every frame past its deadline — the §5.5 PPL-OpenCL failure mode.
  core::Platform plat;
  for (int i = 0; i < 100; ++i) {
    // 50 ms each.
    plat.gpu().Submit({plat.soc().InternLabel("llm"), 50e3, 0, 0}, 0);
  }
  RenderWorkload render(&plat);
  render.SubmitFrames(1e6);
  RenderStats stats = render.Collect(1e6);
  EXPECT_LT(stats.delivered_fps, 5.0);
  EXPECT_GT(stats.max_frame_latency, 1e5);
}

TEST(RenderWorkloadTest, InterferenceEndToEnd) {
  // PPL-OpenCL floods the queue -> FPS collapses; Hetero-tensor leaves
  // enough gaps -> FPS holds at 60 with a small LLM slowdown (Fig. 18).
  using model::ExecutionMode;
  using model::ModelConfig;
  using model::ModelWeights;
  const ModelConfig cfg = ModelConfig::Llama8B();
  ModelWeights w = ModelWeights::Create(cfg, ExecutionMode::kSimulate);

  auto run_with_game = [&](const std::string& name, double* fps,
                           double* prefill_tok_s) {
    core::Platform plat(core::PlatformOptionsFor(name));
    auto engine = core::CreateEngine(name, &plat, &w);
    RenderWorkload render(&plat);
    render.SubmitFrames(8e6);
    core::GenerationStats s = engine->Generate(256, 0);
    RenderStats rs = render.Collect(std::min(8e6, s.prefill.latency));
    *fps = rs.delivered_fps;
    *prefill_tok_s = s.prefill_tokens_per_s();
  };

  double ppl_fps = 0;
  double ppl_tok = 0;
  run_with_game("PPL-OpenCL", &ppl_fps, &ppl_tok);
  double hetero_fps = 0;
  double hetero_tok = 0;
  run_with_game("Hetero-tensor", &hetero_fps, &hetero_tok);

  EXPECT_LT(ppl_fps, 15.0);
  EXPECT_GT(hetero_fps, 50.0);

  // LLM slowdown with the game stays single-digit-percent for hetero.
  core::Platform plat_clean;
  auto engine_clean = core::CreateEngine("Hetero-tensor", &plat_clean, &w);
  const double clean_tok =
      engine_clean->Generate(256, 0).prefill_tokens_per_s();
  EXPECT_GT(hetero_tok / clean_tok, 0.80);
}

TEST(MetricsTest, ComparisonTableRenders) {
  std::string table = RenderComparisonTable(
      "fig", {{"decode tok/s", 14.01, 13.7, "tok/s"},
              {"unreported", 0, 5.0, "x"}});
  EXPECT_NE(table.find("decode tok/s"), std::string::npos);
  EXPECT_NE(table.find("0.98x"), std::string::npos);
  EXPECT_NE(table.find("-"), std::string::npos);
}

}  // namespace
}  // namespace heterollm::workload
