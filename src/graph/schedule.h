// Schedule compiler: lowers a placed graph into a `CompiledSchedule` — a
// flat, replayable list of execution steps (kernel submissions with resolved
// partition plans, KV-cache appends, cross-device sync points, merge steps
// and static NPU-graph references).
//
// A schedule is compiled once per (phase, sequence/row bucket, serving
// batch) and cached by the engine, so per-token planning — site resolution,
// solver/profiler consultation, plan-cache lookups — disappears from the
// decode hot path: replaying a step only submits the kernels the plan
// already names. The executor (`src/core/schedule_executor.h`) replays the
// steps against the simulated Platform through the engine's own
// SubmitKernel/EnsureVisible machinery; replay is the only way an engine
// runs the decoder stack. Its numerics are checked exactly against
// `GraphInterpreter` and its timing against golden per-kernel timeline
// digests.

#ifndef SRC_GRAPH_SCHEDULE_H_
#define SRC_GRAPH_SCHEDULE_H_

#include <string>
#include <vector>

#include "src/common/status.h"
#include "src/graph/placement.h"
#include "src/hal/npu_graph.h"

namespace heterollm::graph {

enum class StepKind {
  kMatmul,     // one (possibly partitioned) matmul site
  kRmsNorm,
  kRope,
  kAttention,  // KV append(s) + cross-device sync + attention kernel(s)
  kAdd,
  kSwiGlu,
  // Zero-cost column view of a fused matmul result (the slices address
  // disjoint ranges of one unified buffer); carries the producer's deps.
  kSliceCols,
  // LM-head input alias: the last row in single-session mode (only the last
  // position's logits are needed), every row in a serving batch.
  kLastRows,
};

const char* StepKindName(StepKind kind);

struct ScheduleStep {
  StepKind kind = StepKind::kMatmul;
  int out = -1;  // destination value slot
  int a = -1;    // input value slots (b/c where the op needs them)
  int b = -1;
  int c = -1;
  int layer = 0;            // kAttention
  int64_t begin = 0;        // kSliceCols / kLastRows row- or col-range
  int64_t end = 0;
  int64_t gamma_ref = -1;   // kRmsNorm: gain weight reference
  // kMatmul only — everything execution needs, resolved at compile time:
  core::MatmulSite site = core::MatmulSite::kQ;
  int64_t op_id = 0;
  core::MatmulShape shape;
  core::MatmulPlan plan;
  std::vector<int64_t> weight_refs;  // 1 ref, or 3 for fused QKV
  // Static NPU graphs this step's plan executes (empty for GPU/CPU-only
  // plans). Preloaded engines must have these compiled ahead of time.
  std::vector<hal::NpuGraphKey> npu_graphs;
};

struct CompiledSchedule {
  core::Phase phase = core::Phase::kPrefill;
  int64_t rows = 0;      // input rows (seq length / decode width / batch)
  bool serving = false;  // serving batch: per-slot attention, all-row head
  int num_slots = 0;     // dataflow value slots the executor allocates
  int input_slot = -1;
  int hidden_slot = -1;  // final hidden state (post final-norm)
  int logits_slot = -1;
  std::vector<ScheduleStep> steps;
  // Static structure counts (diagnostics, docs, tests).
  int matmul_steps = 0;
  int fused_qkv_steps = 0;
  int merge_steps = 0;   // partitioned matmuls requiring a host-side merge
  int npu_graph_refs = 0;
  // hal::NpuGraphCache::generation() at which a replay last found every
  // NPU graph the steps execute; 0 = never (generations start at 1).
  uint64_t npu_graphs_generation = 0;

  // One-line structural summary ("steps=… matmuls=… fused_qkv=… …").
  std::string Summary() const;
};

// Compiles `placed` into a replayable schedule (serving mode is taken from
// the placed graph). The placed graph must follow the decoder conventions
// the builder emits: weights referenced by `weight_ref`, outputs
// [hidden, logits]. SiLU and Mul must already be fused into SwiGLU
// (FuseSiluMul); a live unfused node is an InvalidArgumentError.
StatusOr<CompiledSchedule> CompileSchedule(const PlacedGraph& placed);

}  // namespace heterollm::graph

#endif  // SRC_GRAPH_SCHEDULE_H_
