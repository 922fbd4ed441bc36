#include "src/graph/schedule.h"

#include <unordered_map>

#include "src/common/strings.h"

namespace heterollm::graph {

using core::MatmulPlan;
using core::MatmulSite;
using core::PartitionKind;

const char* StepKindName(StepKind kind) {
  switch (kind) {
    case StepKind::kMatmul:
      return "matmul";
    case StepKind::kRmsNorm:
      return "rmsnorm";
    case StepKind::kRope:
      return "rope";
    case StepKind::kAttention:
      return "attention";
    case StepKind::kAdd:
      return "add";
    case StepKind::kSwiGlu:
      return "swiglu";
    case StepKind::kSliceCols:
      return "slice_cols";
    case StepKind::kLastRows:
      return "last_rows";
  }
  return "unknown";
}

std::string CompiledSchedule::Summary() const {
  return StrFormat(
      "%s rows=%lld%s: steps=%zu slots=%d matmuls=%d (fused_qkv=%d) "
      "merges=%d npu_graphs=%d",
      phase == core::Phase::kDecode ? "decode" : "prefill",
      static_cast<long long>(rows), serving ? " serving" : "", steps.size(),
      num_slots, matmul_steps, fused_qkv_steps, merge_steps, npu_graph_refs);
}

namespace {

// Static NPU-graph keys the plan will execute (mirrors the engine's
// ensure_graph call sites, one key per NPU kernel submission).
std::vector<hal::NpuGraphKey> NpuGraphRefs(const MatmulPlan& plan,
                                           const core::MatmulShape& shape,
                                           int64_t op_id) {
  std::vector<hal::NpuGraphKey> keys;
  switch (plan.kind) {
    case PartitionKind::kNone:
      if (plan.sole_backend == hal::Backend::kNpu) {
        keys.push_back({shape.m, shape.n, shape.k, op_id});
      }
      break;
    case PartitionKind::kRowCut:
    case PartitionKind::kHybridCut: {
      const int64_t npu_m = plan.kind == PartitionKind::kHybridCut &&
                                    plan.npu_padded_seq > 0
                                ? plan.npu_padded_seq
                                : shape.m;
      keys.push_back({npu_m, shape.n, plan.npu_out_features, op_id});
      break;
    }
    case PartitionKind::kSeqCut:
      for (int64_t seg : plan.npu_seq_segments) {
        keys.push_back({seg, shape.n, shape.k, op_id});
      }
      break;
  }
  return keys;
}

bool IsWeightConcat(const Graph& g, const Node& n) {
  if (n.type != OpType::kConcatCols) {
    return false;
  }
  for (NodeId in : n.inputs) {
    if (g.node(in).type != OpType::kWeight) {
      return false;
    }
  }
  return true;
}

}  // namespace

StatusOr<CompiledSchedule> CompileSchedule(const PlacedGraph& placed) {
  const Graph& g = placed.graph;
  HRETURN_IF_ERROR(g.Validate());

  CompiledSchedule sched;
  sched.phase = placed.phase;
  sched.serving = placed.serving;

  std::unordered_map<NodeId, int> slot_of;
  auto new_slot = [&]() { return sched.num_slots++; };
  auto slot = [&](NodeId id) {
    auto it = slot_of.find(id);
    HCHECK_MSG(it != slot_of.end(), g.node(id).name.c_str());
    return it->second;
  };

  for (NodeId id : g.LiveNodesInOrder()) {
    const Node& n = g.node(id);
    ScheduleStep step;
    switch (n.type) {
      case OpType::kInput:
        if (n.shape.rank() != 2) {
          return InvalidArgumentError("run InferShapes before CompileSchedule");
        }
        sched.rows = n.shape.rows();
        sched.input_slot = new_slot();
        slot_of[id] = sched.input_slot;
        continue;
      case OpType::kWeight:
        continue;  // consumed via weight references, never materialized
      case OpType::kConcatCols:
        if (IsWeightConcat(g, n)) {
          continue;  // folded into the fused matmul's weight parts
        }
        return InvalidArgumentError(StrFormat(
            "concat %s: only fused-weight concats are schedulable",
            n.name.c_str()));
      case OpType::kOutput:
        continue;  // resolved below from the graph's output list
      case OpType::kRmsNorm: {
        const Node& gamma = g.node(n.inputs[1]);
        if (gamma.type != OpType::kWeight) {
          return InvalidArgumentError(StrFormat(
              "rmsnorm %s: gain must be a weight node", n.name.c_str()));
        }
        step.kind = StepKind::kRmsNorm;
        step.a = slot(n.inputs[0]);
        step.gamma_ref = gamma.attrs.weight_ref;
        break;
      }
      case OpType::kMatmul: {
        const NodePlacement& p = placed.placements[id];
        if (!p.is_matmul) {
          return InvalidArgumentError(StrFormat(
              "matmul %s: no placement (run PlaceGraph)", n.name.c_str()));
        }
        step.a = slot(n.inputs[0]);
        if (p.site == MatmulSite::kLmHead) {
          // The engine computes logits for the positions that need them:
          // the last row in single-session mode, every row when serving.
          ScheduleStep last;
          last.kind = StepKind::kLastRows;
          last.a = step.a;
          last.begin = placed.serving ? 0 : sched.rows - 1;
          last.end = sched.rows;
          last.out = new_slot();
          sched.steps.push_back(last);
          step.a = last.out;
        }
        step.kind = StepKind::kMatmul;
        step.site = p.site;
        step.op_id = p.op_id;
        step.shape = p.shape;  // LM head already placed at its sliced rows
        step.plan = p.plan;
        step.weight_refs = p.weight_refs;
        step.npu_graphs = NpuGraphRefs(step.plan, step.shape, step.op_id);
        ++sched.matmul_steps;
        if (p.site == MatmulSite::kQkv) {
          ++sched.fused_qkv_steps;
        }
        if (step.plan.kind != PartitionKind::kNone) {
          ++sched.merge_steps;
        }
        sched.npu_graph_refs += static_cast<int>(step.npu_graphs.size());
        break;
      }
      case OpType::kRope:
        step.kind = StepKind::kRope;
        step.a = slot(n.inputs[0]);
        break;
      case OpType::kAttention:
        step.kind = StepKind::kAttention;
        step.a = slot(n.inputs[0]);
        step.b = slot(n.inputs[1]);
        step.c = slot(n.inputs[2]);
        step.layer = n.attrs.layer;
        break;
      case OpType::kSilu:
      case OpType::kMul:
        return InvalidArgumentError(StrFormat(
            "%s: unfused SiLU/Mul (run FuseSiluMul first)", n.name.c_str()));
      case OpType::kAdd:
      case OpType::kSwiGlu:
        step.kind =
            n.type == OpType::kAdd ? StepKind::kAdd : StepKind::kSwiGlu;
        step.a = slot(n.inputs[0]);
        step.b = slot(n.inputs[1]);
        break;
      case OpType::kSliceCols:
        step.kind = StepKind::kSliceCols;
        step.a = slot(n.inputs[0]);
        step.begin = n.attrs.begin;
        step.end = n.attrs.end;
        break;
    }
    step.out = new_slot();
    slot_of[id] = step.out;
    sched.steps.push_back(step);
  }

  if (sched.input_slot < 0) {
    return InvalidArgumentError("graph has no input node");
  }
  // Builder convention: outputs are [final hidden state, logits].
  if (g.outputs().empty()) {
    return InvalidArgumentError("graph has no outputs");
  }
  sched.hidden_slot = slot(g.node(g.outputs().front()).inputs[0]);
  sched.logits_slot = slot(g.node(g.outputs().back()).inputs[0]);
  return sched;
}

}  // namespace heterollm::graph
