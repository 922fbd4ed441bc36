#include "src/model/model_config.h"

namespace heterollm::model {

double ModelConfig::param_count() const {
  const double per_layer =
      static_cast<double>(hidden) * static_cast<double>(q_dim()) +      // Wq
      2.0 * static_cast<double>(hidden) * static_cast<double>(kv_dim()) +  // Wk, Wv
      static_cast<double>(q_dim()) * static_cast<double>(hidden) +      // Wo
      3.0 * static_cast<double>(hidden) * static_cast<double>(intermediate) +
      2.0 * static_cast<double>(hidden);  // the two RMSNorm gains
  const double embedding_matrices = tied_embeddings ? 1.0 : 2.0;
  return per_layer * num_layers +
         embedding_matrices * static_cast<double>(vocab) *
             static_cast<double>(hidden) +
         static_cast<double>(hidden);  // final norm
}

Bytes ModelConfig::decode_weight_bytes() const {
  // INT4 codes (0.5 B/elem) plus FP16 scales per 32-row group (~6.25%
  // overhead); norm gains are FP16 but negligible.
  const double per_layer_params =
      static_cast<double>(hidden) * static_cast<double>(q_dim()) +
      2.0 * static_cast<double>(hidden) * static_cast<double>(kv_dim()) +
      static_cast<double>(q_dim()) * static_cast<double>(hidden) +
      3.0 * static_cast<double>(hidden) * static_cast<double>(intermediate);
  const double matmul_params =
      per_layer_params * num_layers +
      static_cast<double>(vocab) * static_cast<double>(hidden);  // LM head
  const double w4_bytes = matmul_params * 0.5;
  const double scale_bytes = matmul_params / 32.0 * 2.0;
  return w4_bytes + scale_bytes;
}

ModelConfig ModelConfig::Llama8B() {
  return {"Llama-8B", 4096, 14336, 32, 32, 8, 128, 128256};
}

ModelConfig ModelConfig::Llama7B() {
  return {"Llama-7B", 4096, 11008, 32, 32, 32, 128, 32000};
}

ModelConfig ModelConfig::Llama3B() {
  ModelConfig cfg{"Llama-3B", 3072, 8192, 28, 24, 8, 128, 128256};
  cfg.tied_embeddings = true;
  return cfg;
}

ModelConfig ModelConfig::InternLM1_8B() {
  return {"InternLM-1.8B", 2048, 8192, 24, 16, 8, 128, 92544};
}

ModelConfig ModelConfig::Tiny() {
  return {"Tiny", 64, 128, 2, 4, 2, 16, 256};
}

ModelConfig ModelConfig::TinyWide() {
  return {"TinyWide", 96, 192, 2, 6, 2, 16, 384};
}

ModelConfig ModelConfig::Small() {
  return {"Small", 512, 1408, 1, 8, 4, 64, 1024};
}

}  // namespace heterollm::model
