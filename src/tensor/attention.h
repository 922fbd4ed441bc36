// Grouped-query causal attention over a KV cache.

#ifndef SRC_TENSOR_ATTENTION_H_
#define SRC_TENSOR_ATTENTION_H_

#include <cstdint>
#include <vector>

#include "src/tensor/tensor.h"

namespace heterollm::tensor {

struct AttentionParams {
  int num_heads = 0;     // Query heads.
  int num_kv_heads = 0;  // Key/value heads (GQA when < num_heads).
  int head_dim = 0;
  // Cache position of query row 0; query row i attends to cache rows
  // [0, q_pos_offset + i].
  int64_t q_pos_offset = 0;
};

// K/V rows read where they live, in fixed-size blocks: cache row t is row
// t % block_tokens of block t / block_tokens. Each block pointer addresses
// a row-major [block_tokens, kv_cols] array. A view without block pointers
// is shape-only (simulate mode).
struct PagedKv {
  std::vector<const float*> k_blocks;
  std::vector<const float*> v_blocks;
  int64_t block_tokens = 1;
  int64_t rows = 0;     // visible cache rows
  int64_t kv_cols = 0;  // num_kv_heads * head_dim

  bool has_data() const { return !k_blocks.empty(); }
};

// The view's K (want_v false) or V rows as one [rows, kv_cols] FP16 tensor.
Tensor GatherRows(const PagedKv& kv, bool want_v);

// q: [M, num_heads * head_dim]; `kv` holds T >= q_pos_offset + M rows of
// num_kv_heads * head_dim columns. Returns [M, num_heads * head_dim].
// Deferred inputs yield a deferred output of the correct shape.
Tensor GqaAttention(const Tensor& q, const PagedKv& kv,
                    const AttentionParams& params);

// The same kernel over contiguous [T, num_kv_heads * head_dim] K/V tensors,
// read as one block.
Tensor GqaAttention(const Tensor& q, const Tensor& k_cache,
                    const Tensor& v_cache, const AttentionParams& params);

}  // namespace heterollm::tensor

#endif  // SRC_TENSOR_ATTENTION_H_
