// End-to-end numerical equivalence: every engine — whatever backends,
// partitions, paddings or chunkings it uses — must produce the same hidden
// states and logits as an independently-written reference forward pass.
// This is the test that makes the heterogeneous execution *correct*, not
// just fast.

#include <vector>

#include <gtest/gtest.h>

#include "src/core/engine_registry.h"
#include "src/model/kv_cache.h"
#include "src/tensor/attention.h"
#include "src/tensor/ops.h"

namespace heterollm::core {
namespace {

using model::ExecutionMode;
using model::ModelConfig;
using model::ModelWeights;
using tensor::Shape;
using tensor::Tensor;

// Plain single-threaded reference forward pass (no engine machinery).
class Reference {
 public:
  Reference(const ModelWeights& w) : w_(w), cfg_(w.config()) {
    for (int l = 0; l < cfg_.num_layers; ++l) {
      k_cache_.push_back(Tensor::Zeros(Shape({0, cfg_.kv_dim()})));
      v_cache_.push_back(Tensor::Zeros(Shape({0, cfg_.kv_dim()})));
    }
  }

  // Runs rows through the stack, appending to the cache; returns
  // {final hidden, last-position logits}.
  std::pair<Tensor, Tensor> Forward(const Tensor& input) {
    namespace ops = tensor::ops;
    Tensor hidden = input;
    const int64_t past = k_cache_[0].shape().rows();
    for (int l = 0; l < cfg_.num_layers; ++l) {
      const model::LayerWeights& lw = w_.layer(l);
      Tensor normed = ops::RmsNorm(hidden, lw.attn_norm);
      Tensor q = ops::MatmulQuant(normed, lw.wq);
      Tensor k = ops::MatmulQuant(normed, lw.wk);
      Tensor v = ops::MatmulQuant(normed, lw.wv);
      ops::ApplyRope(q, past, cfg_.head_dim);
      ops::ApplyRope(k, past, cfg_.head_dim);
      k_cache_[static_cast<size_t>(l)] =
          Tensor::ConcatRows({k_cache_[static_cast<size_t>(l)], k});
      v_cache_[static_cast<size_t>(l)] =
          Tensor::ConcatRows({v_cache_[static_cast<size_t>(l)], v});
      tensor::AttentionParams params{cfg_.num_heads, cfg_.num_kv_heads,
                                     cfg_.head_dim, past};
      Tensor attn = tensor::GqaAttention(q, k_cache_[static_cast<size_t>(l)],
                                         v_cache_[static_cast<size_t>(l)],
                                         params);
      Tensor o = ops::MatmulQuant(attn, lw.wo);
      Tensor h1 = ops::Add(hidden, o);
      Tensor n2 = ops::RmsNorm(h1, lw.ffn_norm);
      Tensor gate = ops::MatmulQuant(n2, lw.w_gate);
      Tensor up = ops::MatmulQuant(n2, lw.w_up);
      Tensor act = ops::SwiGlu(gate, up);
      Tensor down = ops::MatmulQuant(act, lw.w_down);
      hidden = ops::Add(h1, down);
    }
    Tensor final_norm = ops::RmsNorm(hidden, w_.final_norm());
    const int64_t rows = final_norm.shape().rows();
    Tensor logits = ops::MatmulQuant(final_norm.SliceRows(rows - 1, rows),
                                     w_.lm_head());
    return {final_norm, logits};
  }

 private:
  const ModelWeights& w_;
  ModelConfig cfg_;
  std::vector<Tensor> k_cache_;
  std::vector<Tensor> v_cache_;
};

class EngineNumericsTest : public ::testing::TestWithParam<const char*> {};

TEST_P(EngineNumericsTest, MatchesReferencePrefillAndDecode) {
  const std::string engine_name = GetParam();
  const ModelConfig cfg = ModelConfig::Tiny();
  const ModelWeights weights =
      ModelWeights::Create(cfg, ExecutionMode::kCompute, 99);

  // Misaligned prompt length exercises padding / pipe / seq-cut paths.
  const int64_t prompt_len = 37;
  Rng rng(123);
  Tensor prompt =
      Tensor::Random(Shape({prompt_len, cfg.hidden}), rng, 0.1f);
  Tensor tok1 = Tensor::Random(Shape({1, cfg.hidden}), rng, 0.1f);
  Tensor tok2 = Tensor::Random(Shape({1, cfg.hidden}), rng, 0.1f);

  Reference ref(weights);
  auto [ref_hidden, ref_logits] = ref.Forward(prompt);
  auto [ref_h1, ref_l1] = ref.Forward(tok1);
  auto [ref_h2, ref_l2] = ref.Forward(tok2);

  Platform platform(PlatformOptionsFor(engine_name));
  auto engine = CreateEngine(engine_name, &platform, &weights);

  PhaseStats prefill = engine->Prefill(prompt);
  ASSERT_TRUE(prefill.hidden.has_data());
  // Chunked prefill only returns the last chunk's hidden rows; compare the
  // overlapping tail.
  const int64_t got_rows = prefill.hidden.shape().rows();
  Tensor ref_tail =
      ref_hidden.SliceRows(prompt_len - got_rows, prompt_len);
  EXPECT_LT(Tensor::MaxAbsDiff(prefill.hidden, ref_tail), 2e-4f)
      << engine_name;
  EXPECT_LT(Tensor::MaxAbsDiff(prefill.logits, ref_logits), 2e-4f)
      << engine_name;

  PhaseStats d1 = engine->DecodeStep(tok1);
  EXPECT_LT(Tensor::MaxAbsDiff(d1.logits, ref_l1), 2e-4f) << engine_name;
  PhaseStats d2 = engine->DecodeStep(tok2);
  EXPECT_LT(Tensor::MaxAbsDiff(d2.logits, ref_l2), 2e-4f) << engine_name;
}

INSTANTIATE_TEST_SUITE_P(AllEngines, EngineNumericsTest,
                         ::testing::Values("llama.cpp", "MLC", "MNN-OpenCL",
                                           "PPL-OpenCL", "Hetero-layer",
                                           "Hetero-tensor", "Online-prepare",
                                           "Padding", "Pipe", "Chunked"),
                         [](const auto& info) {
                           std::string name = info.param;
                           for (char& c : name) {
                             if (!isalnum(static_cast<unsigned char>(c))) {
                               c = '_';
                             }
                           }
                           return name;
                         });

// Property sweep: for any prompt length — below/at/above tile and standard
// graph boundaries — the partitioned engine matches the reference.
class PromptLengthSweep : public ::testing::TestWithParam<int> {};

TEST_P(PromptLengthSweep, HeteroTensorMatchesReference) {
  const int prompt_len = GetParam();
  const ModelConfig cfg = ModelConfig::Tiny();
  const ModelWeights weights =
      ModelWeights::Create(cfg, ExecutionMode::kCompute, 55);
  Rng rng(1000 + static_cast<uint64_t>(prompt_len));
  Tensor prompt =
      Tensor::Random(Shape({prompt_len, cfg.hidden}), rng, 0.1f);

  Reference ref(weights);
  auto [ref_hidden, ref_logits] = ref.Forward(prompt);

  Platform platform;
  auto engine = CreateEngine("Hetero-tensor", &platform, &weights);
  PhaseStats prefill = engine->Prefill(prompt);
  EXPECT_LT(Tensor::MaxAbsDiff(prefill.hidden, ref_hidden), 2e-4f);
  EXPECT_LT(Tensor::MaxAbsDiff(prefill.logits, ref_logits), 2e-4f);
}

INSTANTIATE_TEST_SUITE_P(Lengths, PromptLengthSweep,
                         ::testing::Values(1, 2, 5, 31, 32, 33, 47, 64, 65,
                                           96, 100, 128));

// The INT-offload engine intentionally does NOT match the FLOAT reference:
// its quantized-activation pipeline loses precision — the paper's Table 2
// "accuracy decreased / depends on activation" distinction, measured.
TEST(EngineNumericsTest, IntOffloadEngineLosesMeasurableAccuracy) {
  const ModelConfig cfg = ModelConfig::Tiny();
  const ModelWeights weights =
      ModelWeights::Create(cfg, ExecutionMode::kCompute, 99);
  Rng rng(123);
  Tensor prompt = Tensor::Random(Shape({32, cfg.hidden}), rng, 0.1f);

  Reference ref(weights);
  auto [ref_hidden, ref_logits] = ref.Forward(prompt);

  Platform platform(PlatformOptionsFor("MLLM-NPU"));
  auto engine = CreateEngine("MLLM-NPU", &platform, &weights);
  PhaseStats prefill = engine->Prefill(prompt);

  const float err = Tensor::MaxAbsDiff(prefill.logits, ref_logits);
  EXPECT_GT(err, 1e-5f);  // genuinely diverges from the FLOAT path...
  EXPECT_LT(err, 1.0f);   // ...but stays bounded (INT8 is lossy, not broken)
}

TEST(EngineNumericsTest, GqaModelAlsoMatches) {
  // TinyWide uses a 3:1 GQA ratio; run the two strongest engines on it.
  const ModelConfig cfg = ModelConfig::TinyWide();
  const ModelWeights weights =
      ModelWeights::Create(cfg, ExecutionMode::kCompute, 5);
  Rng rng(9);
  Tensor prompt = Tensor::Random(Shape({33, cfg.hidden}), rng, 0.1f);

  Reference ref(weights);
  auto [ref_hidden, ref_logits] = ref.Forward(prompt);

  for (const char* name : {"PPL-OpenCL", "Hetero-tensor"}) {
    Platform platform(PlatformOptionsFor(name));
    auto engine = CreateEngine(name, &platform, &weights);
    PhaseStats prefill = engine->Prefill(prompt);
    EXPECT_LT(Tensor::MaxAbsDiff(prefill.hidden, ref_hidden), 2e-4f) << name;
    EXPECT_LT(Tensor::MaxAbsDiff(prefill.logits, ref_logits), 2e-4f) << name;
  }
}

TEST(EngineNumericsTest, ResetSessionClearsState) {
  const ModelConfig cfg = ModelConfig::Tiny();
  const ModelWeights weights =
      ModelWeights::Create(cfg, ExecutionMode::kCompute, 7);
  Rng rng(11);
  Tensor prompt = Tensor::Random(Shape({8, cfg.hidden}), rng, 0.1f);

  Platform platform;
  auto engine = CreateEngine("PPL-OpenCL", &platform, &weights);
  PhaseStats first = engine->Prefill(prompt);
  engine->ResetSession();
  PhaseStats second = engine->Prefill(prompt);
  EXPECT_EQ(Tensor::MaxAbsDiff(first.logits, second.logits), 0.0f);

  // Two sessions on one reused engine match a fresh engine per session bit
  // for bit, prefill and every decode step. The longer session runs first,
  // so rows it leaves behind would show up in the shorter one's attention.
  const char* name = "Hetero-tensor";
  Platform reused_platform(PlatformOptionsFor(name));
  auto reused = CreateEngine(name, &reused_platform, &weights);
  for (const int64_t prompt_len : {11, 5}) {
    std::vector<Tensor> steps = {
        Tensor::Random(Shape({prompt_len, cfg.hidden}), rng, 0.1f)};
    for (int d = 0; d < 3; ++d) {
      steps.push_back(Tensor::Random(Shape({1, cfg.hidden}), rng, 0.1f));
    }
    Platform fresh_platform(PlatformOptionsFor(name));
    auto fresh = CreateEngine(name, &fresh_platform, &weights);
    reused->ResetSession();
    for (size_t i = 0; i < steps.size(); ++i) {
      const PhaseStats want =
          i == 0 ? fresh->Prefill(steps[i]) : fresh->DecodeStep(steps[i]);
      const PhaseStats got =
          i == 0 ? reused->Prefill(steps[i]) : reused->DecodeStep(steps[i]);
      EXPECT_EQ(Tensor::MaxAbsDiff(got.hidden, want.hidden), 0.0f)
          << "prompt " << prompt_len << " step " << i;
      EXPECT_EQ(Tensor::MaxAbsDiff(got.logits, want.logits), 0.0f)
          << "prompt " << prompt_len << " step " << i;
    }
  }
}

TEST(EngineNumericsTest, SpeculativeWidthMatchesReference) {
  // Decode with a 4-token speculative batch.
  const ModelConfig cfg = ModelConfig::Tiny();
  const ModelWeights weights =
      ModelWeights::Create(cfg, ExecutionMode::kCompute, 13);
  Rng rng(17);
  Tensor prompt = Tensor::Random(Shape({32, cfg.hidden}), rng, 0.1f);
  Tensor spec = Tensor::Random(Shape({4, cfg.hidden}), rng, 0.1f);

  Reference ref(weights);
  ref.Forward(prompt);
  auto [ref_hidden, ref_logits] = ref.Forward(spec);

  Platform platform;
  auto engine = CreateEngine("Hetero-tensor", &platform, &weights);
  engine->Prefill(prompt);
  PhaseStats step = engine->DecodeStep(spec);
  EXPECT_LT(Tensor::MaxAbsDiff(step.logits, ref_logits), 2e-4f);
}

}  // namespace
}  // namespace heterollm::core
