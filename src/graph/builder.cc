#include "src/graph/builder.h"

#include <iterator>

#include "src/common/strings.h"

namespace heterollm::graph {

using model::ModelConfig;
using tensor::Shape;

int64_t WeightRef(int layer, WeightSite site) {
  HCHECK(layer >= 0);
  return static_cast<int64_t>(layer) * 16 + static_cast<int64_t>(site);
}

int WeightRefLayer(int64_t ref) { return static_cast<int>(ref / 16); }

WeightSite WeightRefSite(int64_t ref) {
  return static_cast<WeightSite>(ref % 16);
}

Shape WeightShape(const ModelConfig& cfg, int64_t ref) {
  switch (WeightRefSite(ref)) {
    case WeightSite::kWq:
      return Shape({cfg.hidden, cfg.q_dim()});
    case WeightSite::kWk:
    case WeightSite::kWv:
      return Shape({cfg.hidden, cfg.kv_dim()});
    case WeightSite::kWo:
      return Shape({cfg.q_dim(), cfg.hidden});
    case WeightSite::kWGate:
    case WeightSite::kWUp:
      return Shape({cfg.hidden, cfg.intermediate});
    case WeightSite::kWDown:
      return Shape({cfg.intermediate, cfg.hidden});
    case WeightSite::kAttnNorm:
    case WeightSite::kFfnNorm:
    case WeightSite::kFinalNorm:
      return Shape({1, cfg.hidden});
    case WeightSite::kLmHead:
      return Shape({cfg.hidden, cfg.vocab});
  }
  HCHECK_MSG(false, "unknown weight site");
  __builtin_unreachable();
}

bool IsNormGain(int64_t ref) {
  const WeightSite site = WeightRefSite(ref);
  return site == WeightSite::kAttnNorm || site == WeightSite::kFfnNorm ||
         site == WeightSite::kFinalNorm;
}

const tensor::QuantizedTensor& MatmulWeight(const model::ModelWeights& weights,
                                            int64_t ref) {
  using model::LayerWeights;
  // Indexed by WeightSite: the per-layer matmul weights come first.
  static constexpr tensor::QuantizedTensor LayerWeights::*kLayerWeights[] = {
      &LayerWeights::wq,     &LayerWeights::wk,   &LayerWeights::wv,
      &LayerWeights::wo,     &LayerWeights::w_gate,
      &LayerWeights::w_up,   &LayerWeights::w_down};
  const WeightSite site = WeightRefSite(ref);
  if (site == WeightSite::kLmHead) {
    return weights.lm_head();
  }
  const auto i = static_cast<size_t>(site);
  HCHECK_MSG(i < std::size(kLayerWeights),
             "weight ref is not a matmul parameter");
  return weights.layer(WeightRefLayer(ref)).*kLayerWeights[i];
}

const tensor::Tensor& NormGain(const model::ModelWeights& weights,
                               int64_t ref) {
  switch (WeightRefSite(ref)) {
    case WeightSite::kAttnNorm:
      return weights.layer(WeightRefLayer(ref)).attn_norm;
    case WeightSite::kFfnNorm:
      return weights.layer(WeightRefLayer(ref)).ffn_norm;
    case WeightSite::kFinalNorm:
      return weights.final_norm();
    default:
      break;
  }
  HCHECK_MSG(false, "weight ref is not a norm gain");
  __builtin_unreachable();
}

Graph BuildModelGraph(const ModelConfig& cfg) {
  Graph g;
  NodeId hidden = g.Add(OpType::kInput, "tokens", {});

  for (int layer = 0; layer < cfg.num_layers; ++layer) {
    auto name = [&](const char* base) {
      return StrFormat("L%d.%s", layer, base);
    };
    auto weight = [&](WeightSite site, const char* base) {
      NodeAttrs attrs;
      attrs.weight_ref = WeightRef(layer, site);
      return g.Add(OpType::kWeight, name(base), {}, attrs);
    };

    NodeId attn_norm_w = weight(WeightSite::kAttnNorm, "attn_norm.w");
    NodeId normed =
        g.Add(OpType::kRmsNorm, name("attn_norm"), {hidden, attn_norm_w});

    NodeId wq = weight(WeightSite::kWq, "wq");
    NodeId wk = weight(WeightSite::kWk, "wk");
    NodeId wv = weight(WeightSite::kWv, "wv");
    NodeId q = g.Add(OpType::kMatmul, name("q_proj"), {normed, wq});
    NodeId k = g.Add(OpType::kMatmul, name("k_proj"), {normed, wk});
    NodeId v = g.Add(OpType::kMatmul, name("v_proj"), {normed, wv});

    NodeAttrs rope;
    rope.head_dim = cfg.head_dim;
    NodeId q_rot = g.Add(OpType::kRope, name("q_rope"), {q}, rope);
    NodeId k_rot = g.Add(OpType::kRope, name("k_rope"), {k}, rope);

    NodeAttrs attn;
    attn.head_dim = cfg.head_dim;
    attn.num_heads = cfg.num_heads;
    attn.num_kv_heads = cfg.num_kv_heads;
    attn.layer = layer;
    NodeId attn_out =
        g.Add(OpType::kAttention, name("attention"), {q_rot, k_rot, v}, attn);

    NodeId wo = weight(WeightSite::kWo, "wo");
    NodeId o = g.Add(OpType::kMatmul, name("o_proj"), {attn_out, wo});
    NodeId h1 = g.Add(OpType::kAdd, name("residual1"), {hidden, o});

    NodeId ffn_norm_w = weight(WeightSite::kFfnNorm, "ffn_norm.w");
    NodeId n2 = g.Add(OpType::kRmsNorm, name("ffn_norm"), {h1, ffn_norm_w});
    NodeId w_gate = weight(WeightSite::kWGate, "w_gate");
    NodeId w_up = weight(WeightSite::kWUp, "w_up");
    NodeId gate = g.Add(OpType::kMatmul, name("gate_proj"), {n2, w_gate});
    NodeId up = g.Add(OpType::kMatmul, name("up_proj"), {n2, w_up});
    // Unfused activation: silu(gate) * up. The FuseSiluMul pass turns this
    // pair into one kSwiGlu node.
    NodeId act = g.Add(OpType::kSilu, name("silu"), {gate});
    NodeId glu = g.Add(OpType::kMul, name("glu_mul"), {act, up});
    NodeId w_down = weight(WeightSite::kWDown, "w_down");
    NodeId down = g.Add(OpType::kMatmul, name("down_proj"), {glu, w_down});
    hidden = g.Add(OpType::kAdd, name("residual2"), {h1, down});
  }

  NodeAttrs final_norm_attrs;
  final_norm_attrs.weight_ref = WeightRef(0, WeightSite::kFinalNorm);
  NodeId final_norm_w =
      g.Add(OpType::kWeight, "final_norm.w", {}, final_norm_attrs);
  NodeId final_norm =
      g.Add(OpType::kRmsNorm, "final_norm", {hidden, final_norm_w});

  NodeAttrs head_attrs;
  head_attrs.weight_ref = WeightRef(0, WeightSite::kLmHead);
  NodeId head_w = g.Add(OpType::kWeight, "lm_head.w", {}, head_attrs);
  NodeId logits = g.Add(OpType::kMatmul, "lm_head", {final_norm, head_w});

  NodeId hidden_out = g.Add(OpType::kOutput, "hidden_out", {final_norm});
  NodeId logits_out = g.Add(OpType::kOutput, "logits_out", {logits});
  g.MarkOutput(hidden_out);
  g.MarkOutput(logits_out);
  return g;
}

Status InferShapes(Graph* g, const ModelConfig& cfg, int64_t seq_len) {
  HCHECK(g != nullptr);
  HRETURN_IF_ERROR(g->Validate());
  for (NodeId id : g->LiveNodesInOrder()) {
    Node& n = g->mutable_node(id);
    auto in_shape = [&](size_t i) { return g->node(n.inputs[i]).shape; };
    switch (n.type) {
      case OpType::kInput:
        n.shape = Shape({seq_len, cfg.hidden});
        break;
      case OpType::kWeight:
        n.shape = WeightShape(cfg, n.attrs.weight_ref);
        break;
      case OpType::kMatmul: {
        const Shape a = in_shape(0);
        const Shape w = in_shape(1);
        if (a.cols() != w.rows()) {
          return InvalidArgumentError(StrFormat(
              "matmul %s: %s x %s mismatch", n.name.c_str(),
              a.ToString().c_str(), w.ToString().c_str()));
        }
        n.shape = Shape({a.rows(), w.cols()});
        break;
      }
      case OpType::kRmsNorm: {
        const Shape a = in_shape(0);
        if (in_shape(1).numel() != a.cols()) {
          return InvalidArgumentError(
              StrFormat("rmsnorm %s: gain width mismatch", n.name.c_str()));
        }
        n.shape = a;
        break;
      }
      case OpType::kRope:
      case OpType::kSilu:
        n.shape = in_shape(0);
        break;
      case OpType::kMul:
      case OpType::kAdd:
      case OpType::kSwiGlu: {
        if (in_shape(0) != in_shape(1)) {
          return InvalidArgumentError(StrFormat(
              "%s %s: shape mismatch", OpTypeName(n.type), n.name.c_str()));
        }
        n.shape = in_shape(0);
        break;
      }
      case OpType::kAttention: {
        const Shape q = in_shape(0);
        if (q.cols() !=
            static_cast<int64_t>(n.attrs.num_heads) * n.attrs.head_dim) {
          return InvalidArgumentError(
              StrFormat("attention %s: q width mismatch", n.name.c_str()));
        }
        n.shape = q;
        break;
      }
      case OpType::kConcatCols: {
        int64_t cols = 0;
        for (size_t i = 0; i < n.inputs.size(); ++i) {
          if (in_shape(i).rows() != in_shape(0).rows()) {
            return InvalidArgumentError(StrFormat(
                "concat %s: row mismatch", n.name.c_str()));
          }
          cols += in_shape(i).cols();
        }
        n.shape = Shape({in_shape(0).rows(), cols});
        break;
      }
      case OpType::kSliceCols: {
        const Shape a = in_shape(0);
        if (n.attrs.end > a.cols()) {
          return OutOfRangeError(
              StrFormat("slice %s exceeds input width", n.name.c_str()));
        }
        n.shape = Shape({a.rows(), n.attrs.end - n.attrs.begin});
        break;
      }
      case OpType::kOutput:
        n.shape = in_shape(0);
        break;
    }
  }
  return Status::Ok();
}

}  // namespace heterollm::graph
