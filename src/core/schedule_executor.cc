#include "src/core/schedule_executor.h"

#include <utility>
#include <vector>

#include "src/graph/builder.h"

namespace heterollm::core {

using graph::ScheduleStep;
using graph::StepKind;
using tensor::QuantizedTensor;
using tensor::Tensor;

PhaseStats ScheduleExecutor::Run(graph::CompiledSchedule& sched,
                                 const StepBatch& batch) {
  EngineBase& e = *e_;
  const MicroSeconds start = e.host_now_;
  e.graph_gen_accum_ = 0;
  // Graphs are only ever removed by a cache clear, which bumps the
  // generation: while it has not moved, every graph an earlier replay of
  // this schedule found (or compiled) is still there.
  const uint64_t graph_generation = e.platform_->graph_cache().generation();
  const bool graphs_confirmed =
      sched.npu_graphs_generation == graph_generation;

  std::vector<Value> slots(sched.num_slots);
  slots[sched.input_slot].tensor = batch.input;
  // Committed KV length (slot 0's in a multi-slot batch; RoPE cost is
  // position-independent). The step's appends stay pending until the commit
  // after replay, so this is every layer's RoPE offset.
  const int64_t past = batch.caches[0]->length();

  for (const ScheduleStep& step : sched.steps) {
    switch (step.kind) {
      case StepKind::kMatmul: {
        std::vector<const QuantizedTensor*> parts;
        parts.reserve(step.weight_refs.size());
        for (int64_t ref : step.weight_refs) {
          parts.push_back(&graph::MatmulWeight(*e.weights_, ref));
        }
        slots[step.out] = e.ExecuteMatmulPlanned(
            step.site, step.op_id, step.plan, slots[step.a], parts,
            sched.phase, graphs_confirmed);
        break;
      }
      case StepKind::kRmsNorm:
        slots[step.out] = e.RmsNorm(
            slots[step.a], graph::NormGain(*e.weights_, step.gamma_ref));
        break;
      case StepKind::kRope:
        slots[step.out] = e.Rope(slots[step.a], past);
        break;
      case StepKind::kAttention:
        slots[step.out] = e.AttendLayer(batch, step.layer, slots[step.a],
                                        slots[step.b], slots[step.c]);
        break;
      case StepKind::kAdd:
        slots[step.out] = e.Add(slots[step.a], slots[step.b]);
        break;
      case StepKind::kSwiGlu:
        slots[step.out] = e.SwiGlu(slots[step.a], slots[step.b]);
        break;
      case StepKind::kSliceCols: {
        // Zero-cost column view of a fused result; disjoint ranges of one
        // unified buffer. Each view carries the producer's deps (the sync
        // bookkeeping dedups the shared kernels).
        Value& src = slots[step.a];
        Value view;
        view.tensor = src.tensor.SliceCols(step.begin, step.end);
        view.deps = src.deps;
        slots[step.out] = std::move(view);
        break;
      }
      case StepKind::kLastRows: {
        Value& src = slots[step.a];
        Value view;
        view.tensor =
            step.begin == 0 && step.end == src.tensor.shape().rows()
                ? src.tensor
                : src.tensor.SliceRows(step.begin, step.end);
        view.deps = src.deps;
        slots[step.out] = std::move(view);
        break;
      }
    }
  }

  sched.npu_graphs_generation = graph_generation;

  Value& hidden = slots[sched.hidden_slot];
  Value& logits = slots[sched.logits_slot];
  e.EnsureHost(logits);
  e.EnsureHost(hidden);

  PhaseStats stats;
  stats.latency = e.host_now_ - start;
  stats.graph_gen_time = e.graph_gen_accum_;
  stats.tokens = static_cast<int>(batch.input.shape().rows());
  stats.hidden = std::move(hidden.tensor);
  stats.logits = std::move(logits.tensor);
  return stats;
}

}  // namespace heterollm::core
