// Builds the (unfused) LLaMA decoder graph for a model configuration and
// infers tensor shapes — the IR equivalent of importing the ONNX model in
// the paper's Fig. 1 pipeline.

#ifndef SRC_GRAPH_BUILDER_H_
#define SRC_GRAPH_BUILDER_H_

#include "src/graph/graph.h"
#include "src/model/model_config.h"
#include "src/model/weights.h"

namespace heterollm::graph {

// Weight-reference encoding shared by the builder and interpreter.
enum class WeightSite {
  kWq = 0,
  kWk = 1,
  kWv = 2,
  kWo = 3,
  kWGate = 4,
  kWUp = 5,
  kWDown = 6,
  kAttnNorm = 7,
  kFfnNorm = 8,
  kFinalNorm = 14,
  kLmHead = 15,
};

int64_t WeightRef(int layer, WeightSite site);
int WeightRefLayer(int64_t ref);
WeightSite WeightRefSite(int64_t ref);

// Shape of the referenced parameter.
tensor::Shape WeightShape(const model::ModelConfig& cfg, int64_t ref);

// True when `ref` names an RmsNorm gain rather than a matmul weight.
bool IsNormGain(int64_t ref);

// The parameter `ref` names in `weights`: a matmul weight, or an RmsNorm
// gain. Each aborts on a reference of the other kind.
const tensor::QuantizedTensor& MatmulWeight(const model::ModelWeights& weights,
                                            int64_t ref);
const tensor::Tensor& NormGain(const model::ModelWeights& weights,
                               int64_t ref);

// Builds the full unfused model graph: `num_layers` decoder blocks, final
// norm, LM head over the last position is left to the caller (the graph's
// output is the final hidden state plus the LM-head logits over all rows).
Graph BuildModelGraph(const model::ModelConfig& cfg);

// Fills `node.shape` for every live node. `seq_len` is the number of input
// rows; `past_len` the KV-cache length before this pass (affects nothing
// shape-wise except documentation — attention output keeps the query rows).
Status InferShapes(Graph* g, const model::ModelConfig& cfg, int64_t seq_len);

}  // namespace heterollm::graph

#endif  // SRC_GRAPH_BUILDER_H_
