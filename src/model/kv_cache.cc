#include "src/model/kv_cache.h"

#include <algorithm>
#include <utility>

#include "src/common/status.h"
#include "src/common/strings.h"
#include "src/model/kv_pool.h"

namespace heterollm::model {

using tensor::Shape;
using tensor::Tensor;

KvCache::KvCache(const ModelConfig& config, int64_t capacity,
                 ExecutionMode mode)
    : config_(config),
      mode_(mode),
      capacity_(capacity),
      private_pool_(std::make_unique<KvBlockPool>(
          config, kKvBlockTokens, BlocksForTokens(capacity, kKvBlockTokens),
          mode)),
      pool_(private_pool_.get()) {
  appended_.assign(static_cast<size_t>(config.num_layers), 0);
}

KvCache::KvCache(const ModelConfig& config, KvBlockPool* pool,
                 ExecutionMode mode, int64_t max_tokens)
    : config_(config), mode_(mode), capacity_(max_tokens), pool_(pool) {
  HCHECK(pool != nullptr);
  HCHECK(max_tokens > 0);
  appended_.assign(static_cast<size_t>(config.num_layers), 0);
}

KvCache::KvCache(KvCache&& other) noexcept
    : config_(other.config_),
      mode_(other.mode_),
      capacity_(other.capacity_),
      length_(other.length_),
      private_pool_(std::move(other.private_pool_)),
      pool_(other.pool_),
      blocks_(std::move(other.blocks_)),
      step_rows_(other.step_rows_),
      appended_(std::move(other.appended_)) {
  other.pool_ = nullptr;
  other.blocks_.clear();
  other.length_ = 0;
  other.step_rows_ = -1;
}

KvCache::~KvCache() {
  if (pool_ != nullptr) {  // moved-from caches skip release
    ReleaseAll();
  }
}

void KvCache::ReleaseAll() {
  for (int32_t block : blocks_) {
    pool_->ReleaseBlock(block);
  }
  blocks_.clear();
}

void KvCache::Reset() {
  HCHECK_MSG(!step_open(), "Reset with an uncommitted step in flight");
  ReleaseAll();
  length_ = 0;
}

int64_t KvCache::block_tokens() const { return pool_->block_tokens(); }

int64_t KvCache::BlocksForTokens(int64_t tokens, int64_t block_tokens) {
  HCHECK(block_tokens > 0);
  return (tokens + block_tokens - 1) / block_tokens;
}

bool KvCache::TailShared() const {
  return length_ % block_tokens() != 0 && !blocks_.empty() &&
         pool_->ref_count(blocks_.back()) > 1;
}

int64_t KvCache::BlocksNeededFor(int64_t rows) const {
  HCHECK(rows >= 1);
  const int64_t need = std::max<int64_t>(
      0, BlocksForTokens(length_ + rows, block_tokens()) - held_blocks());
  // Appending into a shared tail block forks it first (copy-on-write).
  return TailShared() ? need + 1 : need;
}

void KvCache::AdoptPrefix(const std::vector<int32_t>& blocks, int64_t tokens) {
  HCHECK_MSG(length_ == 0 && blocks_.empty() && !step_open(),
             "AdoptPrefix requires an empty pooled cache");
  HCHECK_MSG(private_pool_ == nullptr,
             "AdoptPrefix into a cache over a private pool");
  HCHECK(tokens >= 0 && tokens <= capacity_);
  // Exactly the blocks the tokens span: a looser table would break the
  // tail-block invariant BeginStep's copy-on-write fork relies on (the
  // block being written is always blocks_.back()).
  HCHECK_MSG(static_cast<int64_t>(blocks.size()) ==
                 BlocksForTokens(tokens, block_tokens()),
             "AdoptPrefix block table does not match the adopted tokens");
  blocks_ = blocks;
  length_ = tokens;
}

bool KvCache::TryReserveStep(int64_t rows) {
  HCHECK_MSG(!step_open(), "TryReserveStep while a step is already open");
  HCHECK(rows >= 1);
  HCHECK_MSG(length_ + rows <= capacity_, "KV cache overflow");
  const int64_t bt = block_tokens();
  // Copy-on-write: the step writes into the tail block; if it is shared
  // (prefix-cache pin, forked session), fork a private copy of the
  // committed rows first so the other holders never see the new rows. The
  // old tail is not released until the whole reservation has succeeded, so
  // a failure below unwinds to exactly the prior state.
  int32_t fork = -1;
  if (TailShared()) {
    fork = pool_->ForkBlock(blocks_.back(), length_ % bt);
    if (fork < 0) {
      return false;
    }
  }
  const int64_t want = BlocksForTokens(length_ + rows, bt);
  std::vector<int32_t> fresh;
  while (held_blocks() + static_cast<int64_t>(fresh.size()) < want) {
    const int32_t block = pool_->AllocateBlock();
    if (block < 0) {
      for (int32_t b : fresh) {
        pool_->ReleaseBlock(b);
      }
      if (fork >= 0) {
        pool_->ReleaseBlock(fork);
      }
      return false;
    }
    fresh.push_back(block);
  }
  if (fork >= 0) {
    pool_->ReleaseBlock(blocks_.back());
    blocks_.back() = fork;
  }
  blocks_.insert(blocks_.end(), fresh.begin(), fresh.end());
  return true;
}

void KvCache::BeginStep(int64_t rows) {
  HCHECK_MSG(TryReserveStep(rows), "KV pool exhausted");
  step_rows_ = rows;
  std::fill(appended_.begin(), appended_.end(), 0);
}

void KvCache::RollbackTo(int64_t tokens) {
  HCHECK_MSG(!step_open(), "RollbackTo with an uncommitted step in flight");
  HCHECK(tokens >= 0 && tokens <= length_);
  const int64_t keep = BlocksForTokens(tokens, block_tokens());
  while (held_blocks() > keep) {
    pool_->ReleaseBlock(blocks_.back());
    blocks_.pop_back();
  }
  length_ = tokens;
}

void KvCache::AppendLayer(int layer, const Tensor& k, const Tensor& v) {
  HCHECK_MSG(step_open(), "AppendLayer outside BeginStep/CommitStep");
  HCHECK(layer >= 0 && layer < config_.num_layers);
  HCHECK(k.shape().rank() == 2 && k.shape() == v.shape());
  HCHECK(k.shape().cols() == config_.kv_dim());
  HCHECK_MSG(k.shape().rows() == step_rows_,
             "append row count does not match the open step");
  HCHECK_MSG(appended_[static_cast<size_t>(layer)] == 0,
             "layer already appended this step");
  if (mode_ == ExecutionMode::kCompute) {
    HCHECK(k.has_data() && v.has_data());
    const int64_t bt = block_tokens();
    for (int64_t r = 0; r < step_rows_; ++r) {
      const int64_t pos = length_ + r;
      pool_->WriteRow(blocks_[static_cast<size_t>(pos / bt)], layer, pos % bt,
                      k, v, r);
    }
  }
  appended_[static_cast<size_t>(layer)] = step_rows_;
}

void KvCache::CommitStep() {
  HCHECK_MSG(step_open(), "CommitStep without an open step");
  for (int layer = 0; layer < config_.num_layers; ++layer) {
    HCHECK_MSG(appended_[static_cast<size_t>(layer)] == step_rows_,
               StrFormat("partial step: layer %d appended %lld of %lld rows",
                         layer,
                         static_cast<long long>(
                             appended_[static_cast<size_t>(layer)]),
                         static_cast<long long>(step_rows_)));
  }
  length_ += step_rows_;
  step_rows_ = -1;
  std::fill(appended_.begin(), appended_.end(), 0);
}

void KvCache::AppendStep(const std::vector<Tensor>& ks,
                         const std::vector<Tensor>& vs) {
  HCHECK_MSG(ks.size() == static_cast<size_t>(config_.num_layers) &&
                 vs.size() == ks.size(),
             "AppendStep needs one K and one V tensor per layer");
  HCHECK(!ks.empty());
  BeginStep(ks[0].shape().rows());
  for (int layer = 0; layer < config_.num_layers; ++layer) {
    AppendLayer(layer, ks[static_cast<size_t>(layer)],
                vs[static_cast<size_t>(layer)]);
  }
  CommitStep();
}

int64_t KvCache::visible_rows(int layer) const {
  HCHECK(layer >= 0 && layer < config_.num_layers);
  return length_ + appended_[static_cast<size_t>(layer)];
}

tensor::PagedKv KvCache::View(int layer) const {
  tensor::PagedKv view;
  view.block_tokens = block_tokens();
  view.rows = visible_rows(layer);
  view.kv_cols = config_.kv_dim();
  if (mode_ == ExecutionMode::kCompute) {
    const int64_t n = BlocksForTokens(view.rows, view.block_tokens);
    for (int64_t i = 0; i < n; ++i) {
      const int32_t block = blocks_[static_cast<size_t>(i)];
      view.k_blocks.push_back(pool_->Data(block, layer, /*want_v=*/false));
      view.v_blocks.push_back(pool_->Data(block, layer, /*want_v=*/true));
    }
  }
  return view;
}

tensor::Tensor KvCache::Gather(int layer, bool want_k) const {
  const tensor::PagedKv view = View(layer);
  if (mode_ != ExecutionMode::kCompute) {
    return Tensor::Deferred(Shape({view.rows, view.kv_cols}),
                            tensor::DType::kFp16);
  }
  return tensor::GatherRows(view, /*want_v=*/!want_k);
}

tensor::Tensor KvCache::K(int layer) const { return Gather(layer, true); }

tensor::Tensor KvCache::V(int layer) const { return Gather(layer, false); }

Bytes KvCache::BytesForTokens(const ModelConfig& config, int64_t tokens) {
  // K+V, fp16, every layer.
  return 2.0 * 2.0 * static_cast<double>(tokens) *
         static_cast<double>(config.kv_dim()) * config.num_layers;
}

Bytes KvCache::populated_bytes() const {
  return BytesForTokens(config_, length_);
}

}  // namespace heterollm::model
