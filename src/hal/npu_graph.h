// Static computation graphs for the NPU, with a compilation-cost model.
//
// Mobile NPUs execute only ahead-of-time compiled graphs with fixed tensor
// shapes (§4.1.1); compiling a graph costs time that grows with the tensor
// size because larger tensors enlarge the kernel-optimization search space
// (Fig. 9). The cache records which matmul shapes have graphs and prices the
// compilation of new ones. Engines either pre-populate it offline (standard
// sizes) or pay the generation cost at runtime ("Online-prepare").
//
// Cost model: per-op generation time = base + coef · M'·(N'+K'), with padded
// dims. Calibrated against §5.2.2: a 4-graph Llama-8B set costs ~408 ms at
// sequence length 135 and ~2050 ms at 1000.

#ifndef SRC_HAL_NPU_GRAPH_H_
#define SRC_HAL_NPU_GRAPH_H_

#include <cstdint>
#include <cstddef>
#include <unordered_set>

#include "src/common/types.h"

namespace heterollm::hal {

struct NpuGraphKey {
  int64_t m = 0;
  int64_t n = 0;
  int64_t k = 0;
  // Op instance the graph node belongs to: a static graph is compiled for
  // the whole network, so identical shapes in different layers are distinct
  // compilation work. Encoded as layer * 16 + site slot (see
  // core::GraphOpId): slots 0-7 are the hand-written decoder matmul sites
  // (q, k, v, o, gate, up, down, lm_head), slot 8 the fused QKV projection —
  // a fused network compiles *one* graph per layer for the concatenated
  // Wq|Wk|Wv shape instead of three.
  int64_t op = 0;

  bool operator==(const NpuGraphKey& other) const {
    return m == other.m && n == other.n && k == other.k && op == other.op;
  }
};

struct NpuGraphKeyHash {
  size_t operator()(const NpuGraphKey& key) const {
    size_t h = static_cast<size_t>(key.m) * 1000003u;
    h ^= static_cast<size_t>(key.n) * 10007u;
    h ^= static_cast<size_t>(key.k) * 131u;
    h ^= static_cast<size_t>(key.op);
    return h;
  }
};

struct NpuGraphConfig {
  MicroSeconds per_op_base_us = 150.0;
  // µs per unit of M'·(N'+K').
  double per_op_coef_us = 2.0e-4;
  int64_t tile = 32;  // shapes are padded to the tile grid before costing
  // QNN-style runtimes compile several graph variants per shape (paper
  // §5.2.2: "typically 4 graphs" per request); generation cost scales with
  // this count.
  int graph_variants = 4;
};

class NpuGraphCache {
 public:
  explicit NpuGraphCache(const NpuGraphConfig& config = {});

  // True when a compiled graph for exactly this shape exists.
  bool Contains(const NpuGraphKey& key) const;

  // Cost to compile a graph for this shape (independent of cache state).
  MicroSeconds GenerationCost(const NpuGraphKey& key) const;

  // Ensures a graph exists; returns the compilation time incurred now
  // (zero when already cached).
  MicroSeconds Prepare(const NpuGraphKey& key);

  int size() const { return static_cast<int>(graphs_.size()); }
  MicroSeconds total_generation_time() const { return total_generation_time_; }
  // Removes every graph and bumps generation().
  void Clear();

  // Starts at 1 and advances on every Clear(): graphs are never removed
  // otherwise, so a graph found present stays present while the generation
  // is unchanged.
  uint64_t generation() const { return generation_; }

  const NpuGraphConfig& config() const { return config_; }

 private:
  NpuGraphConfig config_;
  std::unordered_set<NpuGraphKey, NpuGraphKeyHash> graphs_;
  MicroSeconds total_generation_time_ = 0;
  uint64_t generation_ = 1;
};

}  // namespace heterollm::hal

#endif  // SRC_HAL_NPU_GRAPH_H_
