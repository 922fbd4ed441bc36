// Model architecture configurations for the evaluated LLMs.
//
// Shapes follow the published architectures (the paper evaluates Llama-8B,
// Llama-7B, Llama-3B and InternLM-1.8B). Weights are synthetic — every
// scheduling decision in HeteroLLM depends only on tensor shapes — and the
// tiny configs exist so the numerics can be verified end-to-end in compute
// mode.

#ifndef SRC_MODEL_MODEL_CONFIG_H_
#define SRC_MODEL_MODEL_CONFIG_H_

#include <cstdint>
#include <string>

#include "src/common/types.h"

namespace heterollm::model {

// Whether engines materialize real numerics or only track shapes/timing.
enum class ExecutionMode {
  kCompute,   // Real FP32 math; for tests and small models.
  kSimulate,  // Shape/timing only; for billion-parameter benchmarks.
};

struct ModelConfig {
  std::string name;
  int64_t hidden = 0;
  int64_t intermediate = 0;
  int num_layers = 0;
  int num_heads = 0;
  int num_kv_heads = 0;
  int head_dim = 0;
  int64_t vocab = 0;
  // Whether the input embedding and LM head share one matrix (Llama-3.2-3B
  // ties them; the 7B/8B and InternLM models do not).
  bool tied_embeddings = false;

  int64_t q_dim() const { return static_cast<int64_t>(num_heads) * head_dim; }
  int64_t kv_dim() const {
    return static_cast<int64_t>(num_kv_heads) * head_dim;
  }

  // Total parameter count (projections + FFN + embeddings + LM head).
  double param_count() const;

  // W4A16 storage footprint of everything streamed per decoded token:
  // all layer weights plus the LM head (embedding lookups are negligible).
  Bytes decode_weight_bytes() const;

  // The four paper models.
  static ModelConfig Llama8B();
  static ModelConfig Llama7B();
  static ModelConfig Llama3B();
  static ModelConfig InternLM1_8B();

  // Small configs for compute-mode tests (numerics verified end-to-end).
  static ModelConfig Tiny();       // 2 layers, hidden 64
  static ModelConfig TinyWide();   // 2 layers, hidden 96, GQA 3:1
  static ModelConfig Small();      // 1 layer, hidden 512: cuts, unlike Tiny
};

}  // namespace heterollm::model

#endif  // SRC_MODEL_MODEL_CONFIG_H_
