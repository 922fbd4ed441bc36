// Reference interpreter for the operator graph (compute mode).
//
// Executes a graph against materialized model weights with the same CPU
// reference kernels the engines use. Maintains per-layer KV caches across
// calls, so prefill-then-decode works like the engines. It is the numerics
// reference for the engines' compiled-schedule replay, which must match it
// exactly on FLOAT engines, and it checks that the optimization passes
// preserve semantics.

#ifndef SRC_GRAPH_INTERPRETER_H_
#define SRC_GRAPH_INTERPRETER_H_

#include <vector>

#include "src/graph/builder.h"
#include "src/graph/graph.h"
#include "src/model/kv_cache.h"
#include "src/model/weights.h"

namespace heterollm::graph {

class GraphInterpreter {
 public:
  // `weights` must be compute-mode (materialized) and outlive the
  // interpreter.
  GraphInterpreter(const model::ModelWeights* weights,
                   int64_t kv_capacity = 512);

  // Executes the graph on `input` ([rows, hidden]); returns one tensor per
  // graph output. Attention nodes append to (and read) the internal KV
  // caches, so consecutive calls behave autoregressively.
  StatusOr<std::vector<tensor::Tensor>> Run(const Graph& g,
                                            const tensor::Tensor& input);

  void ResetSession() { kv_cache_.Reset(); }
  int64_t cache_length() const { return kv_cache_.length(); }

 private:
  const model::ModelWeights* weights_;
  model::KvCache kv_cache_;
};

}  // namespace heterollm::graph

#endif  // SRC_GRAPH_INTERPRETER_H_
