// Key/value cache for autoregressive decoding, as a view over a block table.
//
// A `KvCache` is an ordered table of fixed-size token blocks whose storage
// lives in a `KvBlockPool` (src/model/kv_pool.h). Serving sessions share one
// pool of small refcounted blocks, which lets a scheduler account KV memory
// at block granularity and share identical prompt prefixes across requests
// (src/serve/prefix_cache.h). The `(config, capacity, mode)` constructor
// builds a private pool owned by the cache, for an engine's own session:
// ceil(capacity / kKvBlockTokens) blocks of the standard size, allocated as
// the session grows.
//
// Appends are transactional steps:
//
//   cache.BeginStep(rows);                 // reserves blocks, CoW-forks
//   cache.AppendLayer(layer, k, v);        // exactly once per layer
//   cache.CommitStep();                    // all layers appended, or abort
//
// or, when every layer's rows are at hand, the one-shot equivalent
// `AppendStep(layer_ks, layer_vs)`. Row-count mismatches, double appends and
// partial commits are rejected at the API boundary instead of silently
// leaving the cache in a mixed state. During an open step, `View(layer)`
// includes that layer's in-flight rows (attention for layer L runs right
// after L's append), while `length()` stays at the committed count —
// exactly the offsets RoPE and causal attention need. Attention reads the
// blocks in place through `View`; `K`/`V` gather copies for inspection.

#ifndef SRC_MODEL_KV_CACHE_H_
#define SRC_MODEL_KV_CACHE_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "src/model/model_config.h"
#include "src/tensor/attention.h"
#include "src/tensor/tensor.h"

namespace heterollm::model {

// Tokens per KV block of every private pool, and the serving default.
inline constexpr int64_t kKvBlockTokens = 16;

class KvBlockPool;

class KvCache {
 public:
  // A cache over a private pool of `kKvBlockTokens`-token blocks with room
  // for `capacity` positions: an engine's built-in session cache.
  KvCache(const ModelConfig& config, int64_t capacity, ExecutionMode mode);

  // A view over a shared `pool`: blocks are allocated on append and released
  // on Reset/RollbackTo/destruction. `max_tokens` caps the positions this
  // view may hold (a serving scheduler passes prompt + decode budget).
  KvCache(const ModelConfig& config, KvBlockPool* pool, ExecutionMode mode,
          int64_t max_tokens);

  ~KvCache();

  // Move leaves the source inert: its `pool_` is nulled so destruction
  // (and a stray Reset) cannot release blocks it no longer owns. A
  // defaulted move would copy the raw pointer and leave the source armed.
  KvCache(KvCache&& other) noexcept;
  KvCache& operator=(KvCache&&) = delete;
  KvCache(const KvCache&) = delete;
  KvCache& operator=(const KvCache&) = delete;

  // --- transactional append ------------------------------------------------

  // Reserves every block `BeginStep(rows)` would consume: the copy-on-write
  // fork of a shared tail block plus any fresh blocks the new rows spill
  // into. Returns false — with the cache left exactly as it was, every
  // freshly allocated block returned to the pool — when the pool cannot
  // supply them, so a serving scheduler can preempt/evict and retry instead
  // of crashing. Idempotent: once it has returned true for `rows`, calling
  // it again (and the BeginStep that follows) allocates nothing.
  bool TryReserveStep(int64_t rows);

  // Opens a step of `rows` positions: reserves blocks via TryReserveStep and
  // arms per-layer bookkeeping. Aborts on overflow or pool exhaustion —
  // callers racing a tight pool should gate with TryReserveStep first.
  void BeginStep(int64_t rows);

  // Appends this step's `rows` K/V rows ([rows, kv_dim]) for `layer`.
  // Exactly once per layer per step; row counts must match BeginStep.
  void AppendLayer(int layer, const tensor::Tensor& k, const tensor::Tensor& v);

  // Commits the step: every layer must have appended; `length()` advances.
  void CommitStep();

  bool step_open() const { return step_rows_ >= 0; }

  // One-shot transactional append: `ks`/`vs` carry one [rows, kv_dim]
  // tensor per layer. Equivalent to BeginStep + AppendLayer* + CommitStep.
  void AppendStep(const std::vector<tensor::Tensor>& ks,
                  const std::vector<tensor::Tensor>& vs);

  // --- speculative rollback ------------------------------------------------

  // Truncates the committed length back to `tokens` (0 <= tokens <=
  // length()), releasing every block past the new tail. The speculative-
  // decoding accept path: verify commits the whole draft window, then the
  // rejected suffix is rolled back. Safe on shared-prefix tails — rows a
  // step wrote always live in a private (CoW-forked) block, so truncation
  // never edits storage another holder can see; the abandoned rows are
  // overwritten by the next step before they become visible again. No step
  // may be open.
  void RollbackTo(int64_t tokens);

  // --- views ---------------------------------------------------------------

  // The cached K/V positions of `layer` where they live: all committed
  // rows, plus the rows `layer` has appended in the currently open step (if
  // any). Shape-only in simulate mode; valid until the block table changes.
  tensor::PagedKv View(int layer) const;

  // Gathered copies of View(layer), for inspection.
  tensor::Tensor K(int layer) const;
  tensor::Tensor V(int layer) const;

  // Rows of `layer` visible right now (committed + in-flight).
  int64_t visible_rows(int layer) const;

  // Committed positions (in-flight step rows excluded).
  int64_t length() const { return length_; }
  int64_t capacity() const { return capacity_; }

  // --- block-table accounting ----------------------------------------------

  int64_t block_tokens() const;
  // Blocks currently held by this view (committed + in-flight).
  int64_t held_blocks() const { return static_cast<int64_t>(blocks_.size()); }
  const std::vector<int32_t>& blocks() const { return blocks_; }

  // Blocks BeginStep(rows) would have to allocate right now, including a
  // copy-on-write fork of a shared tail block.
  int64_t BlocksNeededFor(int64_t rows) const;

  // ceil(tokens / block_tokens).
  static int64_t BlocksForTokens(int64_t tokens, int64_t block_tokens);

  // Adopts `tokens` positions of already-populated blocks as this cache's
  // prefix (a prefix-cache hit). The cache must be empty; the caller
  // transfers one pool reference per block to the cache. Only a view over a
  // shared pool can adopt: a private pool has no blocks to share.
  void AdoptPrefix(const std::vector<int32_t>& blocks, int64_t tokens);

  // --- footprint -----------------------------------------------------------

  // FP16 K+V byte footprint of `tokens` cached positions across all layers
  // of `config` — what a serving scheduler charges against its KV budget.
  static Bytes BytesForTokens(const ModelConfig& config, int64_t tokens);

  // FP16 byte footprint of the committed positions across all layers.
  Bytes populated_bytes() const;

  // Releases every block back to the pool and clears the table.
  void Reset();

 private:
  void ReleaseAll();
  // Whether the next append lands in a partly filled tail block that
  // another holder shares, so it must be forked first.
  bool TailShared() const;
  tensor::Tensor Gather(int layer, bool want_k) const;

  ModelConfig config_;
  ExecutionMode mode_ = ExecutionMode::kSimulate;
  int64_t capacity_ = 0;
  int64_t length_ = 0;

  std::unique_ptr<KvBlockPool> private_pool_;  // set by the capacity ctor
  KvBlockPool* pool_ = nullptr;                // null only once moved from
  std::vector<int32_t> blocks_;                // the block table

  // Open-step state: step_rows_ < 0 means no step is open.
  int64_t step_rows_ = -1;
  std::vector<int64_t> appended_;  // per-layer rows appended this step
};

}  // namespace heterollm::model

#endif  // SRC_MODEL_KV_CACHE_H_
