#include "src/graph/interpreter.h"

#include <unordered_map>

#include "src/common/strings.h"
#include "src/tensor/attention.h"
#include "src/tensor/ops.h"

namespace heterollm::graph {

using model::ExecutionMode;
using tensor::Tensor;

GraphInterpreter::GraphInterpreter(const model::ModelWeights* weights,
                                   int64_t kv_capacity)
    : weights_(weights),
      kv_cache_(weights->config(), kv_capacity, weights->mode()) {
  HCHECK(weights != nullptr);
  HCHECK_MSG(weights->mode() == ExecutionMode::kCompute,
             "the interpreter needs materialized weights");
}

StatusOr<std::vector<Tensor>> GraphInterpreter::Run(const Graph& g,
                                                    const Tensor& input) {
  HRETURN_IF_ERROR(g.Validate());
  namespace ops = tensor::ops;
  const int64_t past = kv_cache_.length();
  // One transactional KV step spans the whole graph execution; every
  // attention node appends its layer's rows inside it.
  kv_cache_.BeginStep(input.shape().rows());

  std::unordered_map<NodeId, Tensor> values;
  for (NodeId id : g.LiveNodesInOrder()) {
    const Node& n = g.node(id);
    auto in = [&](size_t i) -> const Tensor& {
      return values.at(n.inputs[i]);
    };
    switch (n.type) {
      case OpType::kInput:
        values[id] = input;
        break;
      case OpType::kWeight: {
        // Matmul weights dequantize once per process (DequantizedCached).
        const int64_t ref = n.attrs.weight_ref;
        values[id] = IsNormGain(ref)
                         ? NormGain(*weights_, ref)
                         : MatmulWeight(*weights_, ref).DequantizedCached();
        break;
      }
      case OpType::kMatmul:
        values[id] = ops::Matmul(in(0), in(1));
        break;
      case OpType::kRmsNorm:
        values[id] = ops::RmsNorm(in(0), in(1));
        break;
      case OpType::kRope: {
        Tensor rotated = in(0);
        ops::ApplyRope(rotated, past, n.attrs.head_dim);
        values[id] = rotated;
        break;
      }
      case OpType::kAttention: {
        kv_cache_.AppendLayer(n.attrs.layer, in(1), in(2));
        tensor::AttentionParams params;
        params.num_heads = n.attrs.num_heads;
        params.num_kv_heads = n.attrs.num_kv_heads;
        params.head_dim = n.attrs.head_dim;
        params.q_pos_offset = past;
        values[id] = tensor::GqaAttention(
            in(0), kv_cache_.View(n.attrs.layer), params);
        break;
      }
      case OpType::kSilu:
        values[id] = ops::Silu(in(0));
        break;
      case OpType::kMul:
        values[id] = ops::Mul(in(0), in(1));
        break;
      case OpType::kAdd:
        values[id] = ops::Add(in(0), in(1));
        break;
      case OpType::kSwiGlu:
        values[id] = ops::SwiGlu(in(0), in(1));
        break;
      case OpType::kConcatCols: {
        std::vector<Tensor> parts;
        for (size_t i = 0; i < n.inputs.size(); ++i) {
          parts.push_back(in(i));
        }
        values[id] = Tensor::ConcatCols(parts);
        break;
      }
      case OpType::kSliceCols:
        values[id] = in(0).SliceCols(n.attrs.begin, n.attrs.end);
        break;
      case OpType::kOutput:
        values[id] = in(0);
        break;
    }
  }

  kv_cache_.CommitStep();

  std::vector<Tensor> results;
  results.reserve(g.outputs().size());
  for (NodeId out : g.outputs()) {
    results.push_back(values.at(out));
  }
  return results;
}

}  // namespace heterollm::graph
