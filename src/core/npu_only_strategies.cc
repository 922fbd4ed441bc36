#include "src/core/npu_only_strategies.h"

#include <algorithm>

namespace heterollm::core {

using tensor::Tensor;

const char* MisalignPolicyName(MisalignPolicy policy) {
  switch (policy) {
    case MisalignPolicy::kOnlinePrepare:
      return "Online-prepare";
    case MisalignPolicy::kPadding:
      return "Padding";
    case MisalignPolicy::kPipe:
      return "Pipe";
    case MisalignPolicy::kChunked:
      return "Chunked";
  }
  return "unknown";
}

NpuOnlyEngine::NpuOnlyEngine(MisalignPolicy policy, Platform* platform,
                             const model::ModelWeights* weights,
                             const EngineOptions& options)
    : EngineBase(platform, weights, options), policy_(policy) {
  if (policy_ != MisalignPolicy::kOnlinePrepare) {
    // Standard graphs (and decode widths) are compiled offline.
    std::vector<int64_t> seqs = options_.standard_seq_sizes;
    seqs.insert(seqs.end(), options_.decode_widths.begin(),
                options_.decode_widths.end());
    PregenerateNpuGraphs(seqs);
  }
}

std::string NpuOnlyEngine::name() const {
  return MisalignPolicyName(policy_);
}

MatmulPlan NpuOnlyEngine::PlanMatmul(MatmulSite site, const MatmulShape& shape,
                                     Phase phase) {
  (void)site;
  MatmulPlan plan;
  const auto& stds = options_.standard_seq_sizes;

  if (phase == Phase::kDecode) {
    // Decode widths have dedicated graphs (pre-compiled, or compiled once
    // under Online-prepare).
    plan.kind = PartitionKind::kNone;
    plan.sole_backend = hal::Backend::kNpu;
    return plan;
  }

  switch (policy_) {
    case MisalignPolicy::kOnlinePrepare:
      // Exact-shape graph, compiled at first use.
      plan.kind = PartitionKind::kNone;
      plan.sole_backend = hal::Backend::kNpu;
      return plan;

    case MisalignPolicy::kPadding:
    case MisalignPolicy::kChunked: {
      if (shape.m > stds.back()) {
        // No graph is large enough to pad into; decompose like Pipe.
        SeqDecomposition d = DecomposeSequence(shape.m, stds);
        plan.kind = PartitionKind::kSeqCut;
        plan.npu_seq_segments = d.segments;
        if (d.remainder > 0) {
          plan.npu_seq_segments.push_back(
              PadToStandard(d.remainder, stds));
        }
        return plan;
      }
      // Pad up to the nearest standard size (Chunked sees chunk-sized
      // inputs from its Prefill driver and pads the final partial chunk).
      const int64_t padded = PadToStandard(shape.m, stds);
      if (padded == shape.m &&
          std::find(stds.begin(), stds.end(), shape.m) != stds.end()) {
        plan.kind = PartitionKind::kNone;
        plan.sole_backend = hal::Backend::kNpu;
      } else {
        plan.kind = PartitionKind::kHybridCut;
        plan.npu_out_features = shape.k;  // no GPU piece: pure padding
        plan.npu_padded_seq = padded;
      }
      return plan;
    }

    case MisalignPolicy::kPipe: {
      SeqDecomposition d = DecomposeSequence(shape.m, stds);
      plan.kind = PartitionKind::kSeqCut;
      plan.npu_seq_segments = d.segments;
      if (d.remainder > 0) {
        plan.npu_seq_segments.push_back(stds.front());  // padded margin
      }
      return plan;
    }
  }
  HCHECK_MSG(false, "unknown policy");
  __builtin_unreachable();
}

PhaseStats NpuOnlyEngine::Step(const StepBatch& batch) {
  if (policy_ != MisalignPolicy::kChunked || batch.phase != Phase::kPrefill ||
      batch.caches.size() > 1) {
    return EngineBase::Step(batch);
  }
  // Chunked prefill: fixed-size chunks flow through the entire stack one at
  // a time, each filling the KV cache for the next.
  PhaseStats total;
  const int64_t m = batch.input.shape().rows();
  const int64_t chunk = options_.chunk_size;
  HCHECK(chunk > 0);
  StepBatch piece_batch = batch;
  for (int64_t begin = 0; begin < m; begin += chunk) {
    const int64_t end = std::min(m, begin + chunk);
    piece_batch.input = batch.input.SliceRows(begin, end);
    PhaseStats piece = EngineBase::Step(piece_batch);
    total.latency += piece.latency;
    total.graph_gen_time += piece.graph_gen_time;
    total.tokens += piece.tokens;
    total.hidden = std::move(piece.hidden);
    total.logits = std::move(piece.logits);
  }
  return total;
}

}  // namespace heterollm::core
