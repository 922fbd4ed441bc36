// Block-granular KV storage: the one store behind every `model::KvCache`.
//
// The pool carves KV memory into fixed-size token blocks (`block_tokens`
// positions each, all layers, K+V). A `KvCache` is a block table over a
// pool and allocates blocks *as tokens are appended*. Blocks are
// refcounted: the serving prefix cache (src/serve/prefix_cache.h) pins
// committed prompt blocks with an extra reference so identical system
// prompts across requests share one copy, and `ForkBlock` gives
// copy-on-write semantics when a session appends into a shared tail block.
//
// A serving scheduler shares one pool across all its sessions; an engine's
// own cache owns a private pool. Both use `kKvBlockTokens`-token blocks by
// default, and attention reads the blocks in place (`KvCache::View`).
//
// A soft `usable_blocks` cap lets the scheduler honor runtime KV-budget
// squeezes (ConditionEvent kv_budget_scale) without reconstructing the
// pool: allocation fails once `used_blocks() >= usable_blocks()` even if
// physically free blocks remain.

#ifndef SRC_MODEL_KV_POOL_H_
#define SRC_MODEL_KV_POOL_H_

#include <cstdint>
#include <vector>

#include "src/common/types.h"
#include "src/model/kv_cache.h"
#include "src/model/model_config.h"
#include "src/tensor/tensor.h"

namespace heterollm::model {

class KvBlockPool {
 public:
  // A pool of `num_blocks` blocks of `block_tokens` positions each.
  // Compute-mode pools materialize zeroed per-block storage on allocation;
  // simulate-mode pools are pure bookkeeping.
  KvBlockPool(const ModelConfig& config, int64_t block_tokens,
              int64_t num_blocks, ExecutionMode mode);

  // Blocks a KV byte budget affords: floor(budget / bytes_per_block).
  static int64_t BlocksForBudget(const ModelConfig& config, Bytes budget,
                                 int64_t block_tokens);
  // FP16 K+V footprint of one block across all layers.
  Bytes bytes_per_block() const;

  int64_t block_tokens() const { return block_tokens_; }

  // Allocates a free block with refcount 1; returns -1 when exhausted.
  int32_t AllocateBlock();

  // Drops one reference; the block returns to the free list at zero.
  void ReleaseBlock(int32_t block);

  // Pins one extra reference on an allocated block (prefix-cache pin,
  // adopting a cached prefix into a new session).
  void AddRef(int32_t block);

  // Current reference count of an allocated block.
  int ref_count(int32_t block) const;

  // Copy-on-write fork: allocates a new block whose first `rows` positions
  // equal `src`'s (all layers, K and V); returns -1 when exhausted. The
  // caller still holds its reference on `src`.
  int32_t ForkBlock(int32_t src, int64_t rows);

  // Writes position `row` of `block` for `layer` from row `src_row` of the
  // [rows, kv_dim] tensors `k` / `v`. A no-op in simulate mode.
  void WriteRow(int32_t block, int layer, int64_t row, const tensor::Tensor& k,
                const tensor::Tensor& v, int64_t src_row);

  // The row-major [block_tokens, kv_dim] K (want_v false) or V storage of
  // an allocated `block` for `layer`. Compute mode only.
  const float* Data(int32_t block, int layer, bool want_v) const;

  // --- accounting ----------------------------------------------------------
  int64_t total_blocks() const { return total_blocks_; }
  int64_t used_blocks() const { return used_blocks_; }
  int64_t free_blocks() const { return total_blocks_ - used_blocks_; }
  // High-water mark of used blocks over the pool's lifetime.
  int64_t peak_used_blocks() const { return peak_used_blocks_; }
  // Copy-on-write forks performed.
  int64_t cow_forks() const { return cow_forks_; }

  // Soft cap for runtime budget squeezes; clamped to [0, total_blocks].
  void set_usable_blocks(int64_t usable);
  int64_t usable_blocks() const { return usable_blocks_; }
  // Blocks an AllocateBlock can still return under the soft cap.
  int64_t available_blocks() const;

  // A KvCache view over this pool, capped at `max_tokens` positions.
  KvCache MakeCache(int64_t max_tokens);

 private:
  struct Block {
    int refs = 0;  // 0 = on the free list
    // Compute-mode storage: per layer, a K then a V [block_tokens, kv_dim]
    // row-major array; empty while the block is free.
    std::vector<float> data;
  };

  // Offset of `layer`'s K (want_v false) or V array within Block::data.
  size_t Offset(int layer, bool want_v) const;

  ModelConfig config_;
  int64_t block_tokens_ = 0;
  int64_t total_blocks_ = 0;
  ExecutionMode mode_ = ExecutionMode::kSimulate;

  std::vector<Block> blocks_;
  std::vector<int32_t> free_list_;  // stack; seeded so pops ascend from 0
  int64_t used_blocks_ = 0;
  int64_t peak_used_blocks_ = 0;
  int64_t usable_blocks_ = 0;
  int64_t cow_forks_ = 0;
};

}  // namespace heterollm::model

#endif  // SRC_MODEL_KV_POOL_H_
