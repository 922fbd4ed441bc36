#include "src/model/kv_pool.h"

#include <algorithm>

#include "src/common/status.h"

namespace heterollm::model {

using tensor::Tensor;

KvBlockPool::KvBlockPool(const ModelConfig& config, int64_t block_tokens,
                         int64_t num_blocks, ExecutionMode mode)
    : config_(config),
      block_tokens_(block_tokens),
      total_blocks_(num_blocks),
      mode_(mode),
      usable_blocks_(num_blocks) {
  HCHECK_MSG(block_tokens >= 1, "block_tokens must be >= 1");
  HCHECK_MSG(num_blocks >= 1, "a KV pool needs at least one block");
  blocks_.resize(static_cast<size_t>(num_blocks));
  // Seed the free stack descending so pops hand out 0, 1, 2, ... — block
  // ids in fresh pools are deterministic and readable in tests.
  free_list_.reserve(static_cast<size_t>(num_blocks));
  for (int64_t b = num_blocks - 1; b >= 0; --b) {
    free_list_.push_back(static_cast<int32_t>(b));
  }
}

Bytes KvBlockPool::bytes_per_block() const {
  return KvCache::BytesForTokens(config_, block_tokens_);
}

int64_t KvBlockPool::BlocksForBudget(const ModelConfig& config, Bytes budget,
                                     int64_t block_tokens) {
  HCHECK(block_tokens >= 1);
  const Bytes per_block = KvCache::BytesForTokens(config, block_tokens);
  HCHECK(per_block > 0);
  return static_cast<int64_t>(budget / per_block);
}

int64_t KvBlockPool::available_blocks() const {
  return std::max<int64_t>(0, usable_blocks_ - used_blocks_);
}

void KvBlockPool::set_usable_blocks(int64_t usable) {
  usable_blocks_ = std::max<int64_t>(0, std::min(usable, total_blocks_));
}

int32_t KvBlockPool::AllocateBlock() {
  if (free_list_.empty() || used_blocks_ >= usable_blocks_) {
    return -1;
  }
  const int32_t id = free_list_.back();
  free_list_.pop_back();
  Block& b = blocks_[static_cast<size_t>(id)];
  HCHECK(b.refs == 0);
  b.refs = 1;
  ++used_blocks_;
  peak_used_blocks_ = std::max(peak_used_blocks_, used_blocks_);
  if (mode_ == ExecutionMode::kCompute) {
    b.data.assign(Offset(config_.num_layers, false), 0.0f);  // every layer
  }
  return id;
}

void KvBlockPool::AddRef(int32_t block) {
  HCHECK(block >= 0 && block < total_blocks_);
  Block& b = blocks_[static_cast<size_t>(block)];
  HCHECK_MSG(b.refs > 0, "AddRef on a free block");
  ++b.refs;
}

void KvBlockPool::ReleaseBlock(int32_t block) {
  HCHECK(block >= 0 && block < total_blocks_);
  Block& b = blocks_[static_cast<size_t>(block)];
  HCHECK_MSG(b.refs > 0, "ReleaseBlock on a free block");
  if (--b.refs == 0) {
    std::vector<float>().swap(b.data);
    --used_blocks_;
    free_list_.push_back(block);
  }
}

int KvBlockPool::ref_count(int32_t block) const {
  HCHECK(block >= 0 && block < total_blocks_);
  const Block& b = blocks_[static_cast<size_t>(block)];
  HCHECK_MSG(b.refs > 0, "ref_count on a free block");
  return b.refs;
}

int32_t KvBlockPool::ForkBlock(int32_t src, int64_t rows) {
  HCHECK(src >= 0 && src < total_blocks_);
  HCHECK(rows >= 0 && rows <= block_tokens_);
  HCHECK_MSG(blocks_[static_cast<size_t>(src)].refs > 0,
             "ForkBlock on a free block");
  const int32_t id = AllocateBlock();
  if (id < 0) {
    return -1;
  }
  ++cow_forks_;
  if (mode_ == ExecutionMode::kCompute && rows > 0) {
    const float* from = blocks_[static_cast<size_t>(src)].data.data();
    float* to = blocks_[static_cast<size_t>(id)].data.data();
    const int64_t n = rows * config_.kv_dim();
    for (int layer = 0; layer < config_.num_layers; ++layer) {
      for (const bool want_v : {false, true}) {
        const size_t off = Offset(layer, want_v);
        std::copy(from + off, from + off + n, to + off);
      }
    }
  }
  return id;
}

void KvBlockPool::WriteRow(int32_t block, int layer, int64_t row,
                           const Tensor& k, const Tensor& v, int64_t src_row) {
  if (mode_ != ExecutionMode::kCompute) {
    return;
  }
  HCHECK(block >= 0 && block < total_blocks_);
  HCHECK(layer >= 0 && layer < config_.num_layers);
  HCHECK(row >= 0 && row < block_tokens_);
  const int64_t cols = config_.kv_dim();
  HCHECK(k.shape().rank() == 2 && k.shape() == v.shape() &&
         k.shape().cols() == cols);
  HCHECK(src_row >= 0 && src_row < k.shape().rows());
  Block& b = blocks_[static_cast<size_t>(block)];
  HCHECK_MSG(b.refs > 0, "WriteRow on a free block");
  float* dst = b.data.data() + row * cols;
  const float* k_src = k.data().data() + src_row * cols;
  const float* v_src = v.data().data() + src_row * cols;
  std::copy(k_src, k_src + cols, dst + Offset(layer, false));
  std::copy(v_src, v_src + cols, dst + Offset(layer, true));
}

size_t KvBlockPool::Offset(int layer, bool want_v) const {
  return static_cast<size_t>((2 * layer + (want_v ? 1 : 0)) * block_tokens_ *
                             config_.kv_dim());
}

const float* KvBlockPool::Data(int32_t block, int layer, bool want_v) const {
  HCHECK(mode_ == ExecutionMode::kCompute);
  HCHECK(block >= 0 && block < total_blocks_);
  HCHECK(layer >= 0 && layer < config_.num_layers);
  const Block& b = blocks_[static_cast<size_t>(block)];
  HCHECK_MSG(b.refs > 0, "KV data of a free block");
  return b.data.data() + Offset(layer, want_v);
}

KvCache KvBlockPool::MakeCache(int64_t max_tokens) {
  return KvCache(config_, this, mode_, max_tokens);
}

}  // namespace heterollm::model
