// Inference engine framework.
//
// `EngineBase` implements the full LLaMA-style decoder execution — norms,
// QKV, RoPE, GQA attention over the KV cache, output projection, SwiGLU FFN,
// residuals and the LM head — against a simulated `Platform`. Numerics are
// real (FP32/W4A16) in `ExecutionMode::kCompute` and shape-only in
// `kSimulate`; timing is always real (simulated clocks).
//
// Concrete engines differ only in *policy*:
//   * which backend (or partition of backends) runs each matmul site,
//   * which backend runs vector ops (norms/attention/activations),
//   * the synchronization mechanism (baseline copy-sync vs fast sync),
//   * how NPU static graphs are provisioned (preloaded / online / padding).
//
// Scheduling model. The host (CPU control plane) has its own clock
// `host_now_`. Submitting a kernel costs the device's submit overhead;
// consuming a value produced on a *different* device forces a host
// synchronization (the paper's §4.2); same-device consumers rely on queue
// FIFO order and cost nothing. Cross-device waits use the engine's sync
// mode. In the decoding phase, GPU-dominant pipelining keeps the GPU queue
// non-empty by deferring waits on GPU-side partition pieces (§4.2, Fig. 11).

#ifndef SRC_CORE_ENGINE_BASE_H_
#define SRC_CORE_ENGINE_BASE_H_

#include <algorithm>
#include <array>
#include <initializer_list>
#include <memory>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "src/core/partition.h"
#include "src/core/platform.h"
#include "src/graph/schedule.h"
#include "src/model/kv_cache.h"
#include "src/model/weights.h"
#include "src/tensor/attention.h"
#include "src/tensor/ops.h"

namespace heterollm::core {

class ScheduleExecutor;

struct PhaseStats {
  MicroSeconds latency = 0;
  MicroSeconds graph_gen_time = 0;  // online NPU graph generation, if any
  int tokens = 0;
  tensor::Tensor hidden;  // final hidden states (deferred in simulate mode)
  tensor::Tensor logits;  // last-position logits
};

struct GenerationStats {
  PhaseStats prefill;
  MicroSeconds decode_time = 0;
  int decode_tokens = 0;
  MicroJoules energy = 0;
  double avg_power_watts = 0;
  // Device-state changes (thermal throttle steps / scripted conditions) the
  // engine reacted to during this window by invalidating caches.
  int replan_events = 0;

  // All ratio helpers return 0 for degenerate windows (nothing produced or
  // no time elapsed) instead of NaN/inf/negative rates.
  double prefill_tokens_per_s() const {
    return prefill.latency > 0 && prefill.tokens > 0
               ? prefill.tokens / ToSeconds(prefill.latency)
               : 0;
  }
  double decode_tokens_per_s() const {
    return decode_time > 0 && decode_tokens > 0
               ? decode_tokens / ToSeconds(decode_time)
               : 0;
  }
  MicroSeconds ttft() const { return prefill.latency; }
  MicroSeconds tpot() const {
    return decode_tokens > 0 && decode_time > 0 ? decode_time / decode_tokens
                                                : 0;
  }
};

struct EngineOptions {
  bool fast_sync = true;
  int64_t kv_capacity = 4096;
  // Standard static-graph sequence sizes pre-compiled for the NPU.
  std::vector<int64_t> standard_seq_sizes = {32, 64, 128, 256, 512, 1024};
  // Decode widths (1 = standard decoding; >1 entries enable speculative
  // decoding widths) pre-compiled for the NPU.
  std::vector<int64_t> decode_widths = {1, 2, 4, 8};
  // Host-side cost of merging partitioned results (the pieces land in
  // disjoint regions of one unified buffer, so this is bookkeeping only).
  MicroSeconds merge_cost_us = 2.0;
  // Chunk length used by the chunked-prefill engines (MLLM-NPU fixes its
  // chunk size; §5.2.2 discusses how the choice trades NPU utilization
  // against padding waste).
  int64_t chunk_size = 256;
  // Active-power multiplier for GPU kernels issued by this engine.
  // Heterogeneous engines pin the GPU to a mid DVFS point — same effective
  // matmul throughput (the sustained rate is thermally limited anyway) at
  // markedly better perf/W, and headroom left for rendering (§5.5, §5.6).
  double gpu_power_scale = 1.0;
  // Run the FuseQkv pass before placement: one fused QKV matmul per layer
  // (one NPU graph + submission instead of three). Changes the executed
  // kernel sequence, hence simulated latencies, so it is opt-in.
  bool fuse_qkv = false;
  // React to device-state epoch advances (thermal throttle steps, scripted
  // condition events): invalidate compiled schedules and partition plans
  // built against the stale device performance, then re-solve/re-compile on
  // next use. Off = plans stay frozen at their original operating point (the
  // baseline bench_throttling compares against). Irrelevant — zero cost,
  // zero effect — while the platform has no dynamic conditions.
  bool reactive_replanning = true;
  // Host-side cost charged per reactive re-planning event (re-reading
  // frequencies, dropping caches; the re-solve/re-compile itself is charged
  // where it happens).
  MicroSeconds replan_cost_us = 150.0;
  // Worker threads for compute-mode kernels (tensor::KernelOptions
  // semantics): 0 = hardware concurrency, 1 = the reference scalar kernels,
  // N > 1 = blocked kernels on N threads. Purely a host-side wall-clock
  // knob — simulated timing and numerics are identical at every setting
  // (the kernels are bit-exact across thread counts).
  int kernel_threads = 0;
};

// One pass through the decoder stack. Prefill, decode, prefill chunks and
// speculative verifies are the same operation (§4.1–4.2 partition the stack
// by phase and row count); they differ only in the fields below.
struct StepBatch {
  Phase phase = Phase::kPrefill;
  // One KV cache per session slot; empty runs against the engine's own
  // session cache. Each slot's rows attend over — and RoPE continues from —
  // what its cache already holds, so a prefix-cache hit or an earlier chunk
  // is resumed by passing only the rows still to run.
  std::vector<model::KvCache*> caches;
  // [slots × rows_per_slot, hidden]: rows [i·r, (i+1)·r) extend slot i.
  // Deferred (shape-only) in ExecutionMode::kSimulate. More than one slot
  // shares one forward pass over caches whose contents differ, so a
  // multi-slot batch is timing-only (requires kSimulate).
  tensor::Tensor input;
  // Keep every row's logits through the LM head: a speculative verify reads
  // the argmax at each draft position. Otherwise only the last row reaches
  // the head; a multi-slot batch always keeps every row.
  bool all_rows_logits = false;
};

// EngineBase doubles as the graph placement policy (graph::PlacementPolicy):
// its PlanMatmul/vector_backend virtuals drive the placement pass whose
// compiled schedule every step replays, so concrete engines stay pure policy.
class EngineBase : public graph::PlacementPolicy {
 public:
  EngineBase(Platform* platform, const model::ModelWeights* weights,
             const EngineOptions& options);

  virtual std::string name() const = 0;

  // Runs one step: appends the input rows to every slot's cache
  // transactionally, prices the pass on the simulated platform and returns
  // its stats (logits per `all_rows_logits`). Matmuls run once over all
  // slots' rows, streaming each weight once for the whole batch (the
  // continuous-batching amortization); RoPE, cache appends and attention
  // stay per slot. Aborts on a null cache, an empty slot, rows that do not
  // split evenly across the slots, a width other than the model's hidden
  // size, or a multi-slot batch outside kSimulate.
  virtual PhaseStats Step(const StepBatch& batch);

  // Single-session shorthands over Step against the engine's own cache.
  PhaseStats Prefill(const tensor::Tensor& prompt) {
    return Step({Phase::kPrefill, {}, prompt, /*all_rows_logits=*/false});
  }
  PhaseStats DecodeStep(const tensor::Tensor& token) {
    return Step({Phase::kDecode, {}, token, /*all_rows_logits=*/false});
  }

  // Clears the engine's own KV cache (clocks keep advancing).
  void ResetSession() { kv_cache_->Reset(); }

  // Convenience driver: prefill `prompt_len` synthetic tokens then decode
  // `decode_len` steps; gathers latency/energy metrics.
  GenerationStats Generate(int prompt_len, int decode_len);

  // Advances the host clock to `t` if it lags (idle wait between arrivals).
  void AdvanceHostTo(MicroSeconds t) { host_now_ = std::max(host_now_, t); }

  Platform* platform() const { return platform_; }
  MicroSeconds host_now() const { return host_now_; }
  // Compiled-schedule compilations and reactive re-planning events so far
  // (tests assert caches rebuild exactly once per epoch bump).
  int schedule_compiles() const { return schedule_compiles_; }
  int replan_events() const { return replan_events_; }
  const model::ModelConfig& model_config() const {
    return weights_->config();
  }
  model::ExecutionMode mode() const { return mode_; }
  const EngineOptions& options() const { return options_; }

 protected:
  // A tensor travelling through the dataflow, with the device kernels that
  // must complete before it is readable elsewhere.
  struct Value {
    tensor::Tensor tensor;
    std::vector<std::pair<hal::Device*, sim::KernelHandle>> deps;
  };

  // --- policy points (also the graph::PlacementPolicy interface) -----------

  // Chooses the execution plan for one matmul site.
  MatmulPlan PlanMatmul(MatmulSite site, const MatmulShape& shape,
                        Phase phase) override = 0;

  // Backend for norms, RoPE, attention, activations and residuals.
  hal::Backend vector_backend() const override { return hal::Backend::kGpu; }

  // How NPU matmuls obtain static graphs. kPreloaded HCHECKs that the graph
  // was pre-compiled; kOnline compiles at first use and charges the host.
  enum class GraphPolicy { kPreloaded, kOnline };
  virtual GraphPolicy graph_policy() const { return GraphPolicy::kPreloaded; }

  // Reactive re-planning hook: the units behind `changed` now run at a
  // different effective performance (throttle step, forced cap, bandwidth /
  // power-budget change). Engines owning plan caches drop the stale entries;
  // the base class has already dropped affected compiled schedules.
  virtual void OnDeviceStateChange(const std::vector<hal::Backend>& changed) {
    (void)changed;
  }

  // Precision of NPU matmuls per phase. The default follows the paper's
  // W4A16 engine (FLOAT prefill, INT decode — footnote 2); INT-offload
  // engines (MLLM-NPU-style) override to INT everywhere.
  virtual hal::Precision MatmulPrecision(Phase phase) const;

  // When true, every matmul first runs a CPU-side activation-quantization /
  // outlier-extraction kernel (the MLLM-NPU datapath). Costs host + CPU
  // time; numerics are unchanged (accuracy effects are out of scope).
  virtual bool int_activation_path() const { return false; }

  // --- shared machinery ----------------------------------------------------

  hal::SyncMode sync_mode() const {
    return options_.fast_sync ? hal::SyncMode::kFast
                              : hal::SyncMode::kBaseline;
  }

  // Pre-compiles NPU graphs (offline, uncharged) for every matmul site of
  // the model at the given sequence lengths; row-cut sub-shapes are
  // compiled at multiples of `row_align` (the solver's cut alignment).
  void PregenerateNpuGraphs(const std::vector<int64_t>& seq_lens,
                            int64_t row_align = 256);

  // Blocks the host until all of `v`'s foreign-device deps complete.
  // Same-device deps are dropped (FIFO ordering suffices).
  void EnsureVisible(Value& v, hal::Device& consumer);

  // Blocks the host until all deps complete (host-side consumption).
  void EnsureHost(Value& v);

  // Submits a kernel on `dev` whose inputs are `v`'s deps; returns the new
  // Value carrying `out`.
  Value SubmitKernel(hal::Device& dev, sim::KernelDesc desc,
                     std::initializer_list<Value*> inputs, tensor::Tensor out);

  // Executes one matmul site under an already-resolved plan (the compiled
  // schedule replays through this, skipping planning entirely). `parts` is
  // the weight — one tensor, or the column-concatenated members of a fused
  // site (e.g. Wq|Wk|Wv for MatmulSite::kQkv). `op_id` identifies the op
  // instance for static NPU-graph lookup (GraphOpId). `graphs_confirmed`
  // skips the per-kernel NPU-graph lookups: the caller vouches that every
  // graph this call needs is in the cache (a replayed schedule whose graphs
  // were confirmed at the cache's current generation).
  Value ExecuteMatmulPlanned(
      MatmulSite site, int64_t op_id, const MatmulPlan& plan, Value& input,
      const std::vector<const tensor::QuantizedTensor*>& parts, Phase phase,
      bool graphs_confirmed);

  // Vector ops on vector_backend(). VectorOp submits one elementwise kernel
  // over the first input's elements with the given per-element costs.
  Value VectorOp(sim::LabelId label, double flops_per_elem,
                 double bytes_per_elem, std::initializer_list<Value*> inputs,
                 tensor::Tensor out);
  Value RmsNorm(Value& x, const tensor::Tensor& gamma);
  Value Add(Value& a, Value& b);
  Value SwiGlu(Value& gate, Value& up);
  Value Rope(Value& x, int64_t pos_offset);

  // One layer's KV step and attention: appends each slot's rows of `k`/`v`
  // to its cache, makes them visible to the vector backend, then runs one
  // attention kernel per slot — each slot reads its own cache length, so the
  // cost tracks every session's true history (the part of a batched step
  // that does NOT amortize). A single slot computes real numerics; a
  // multi-slot batch is shape-only.
  Value AttendLayer(const StepBatch& batch, int layer, Value& q, Value& k,
                    Value& v);

  // Runs the whole stack on a validated batch whose caches are resolved, by
  // replaying the compiled schedule for its (phase, rows, serving) bucket.
  PhaseStats RunStack(const StepBatch& batch);

  // The cached compiled schedule for (phase, rows, serving), where serving
  // (the graph layer's all-row LM head) is what an all-row-logits batch
  // runs; compiles it on first use: build graph -> InferShapes ->
  // FuseSiluMul (+ FuseQkv when enabled) -> DCE -> PlaceGraph (this
  // engine's policy) -> CompileSchedule.
  graph::CompiledSchedule& ScheduleFor(Phase phase, int64_t rows,
                                       bool serving);

  // Re-reads the device-state epoch; if it advanced (and reactive
  // re-planning is on), drops cached compiled schedules that touch a changed
  // backend, notifies the concrete engine via OnDeviceStateChange, and
  // charges `replan_cost_us` host time. A no-op — identical timing — while
  // the epoch has not moved, which is always the case without dynamic
  // conditions.
  void RefreshDeviceState();

  Platform* platform_;
  const model::ModelWeights* weights_;
  EngineOptions options_;
  model::ExecutionMode mode_;
  std::unique_ptr<model::KvCache> kv_cache_;
  MicroSeconds host_now_ = 0;
  MicroSeconds graph_gen_accum_ = 0;  // charged online graph time this phase
  // Kernels the host already waited on during the current step (a Value
  // never outlives its step, so the set is cleared at every step start).
  std::unordered_set<int64_t> synced_kernels_;
  // Workspace slots acquired once per session (pool reuse across layers).
  std::vector<int> workspace_slots_;

 private:
  friend class ScheduleExecutor;  // replays schedules via the machinery above

  void AcquireWorkspace();
  void InternLabels();
  // Label id of "<site>:npu-seq<seg>", interned on first use.
  sim::LabelId NpuSeqLabel(MatmulSite site, int64_t seg);
  // True when the schedule submits kernels on any backend in `changed`.
  bool ScheduleUsesBackend(const graph::CompiledSchedule& sched,
                           const std::vector<hal::Backend>& changed) const;
  // Numerics of the output-feature range [k_begin, k_end) of the logical
  // matmul against the column-concatenation of `parts`.
  tensor::Tensor MatmulNumeric(
      const tensor::Tensor& a,
      const std::vector<const tensor::QuantizedTensor*>& parts,
      int64_t k_begin, int64_t k_end) const;

  // Kernel label ids, interned once so submitting a kernel does no string
  // work.
  static constexpr size_t kSiteCount =
      static_cast<size_t>(MatmulSite::kQkv) + 1;
  struct SiteLabels {
    std::array<sim::LabelId, 3> sole{};  // "<site>:<backend>", by hal::Backend
    sim::LabelId gpu_cut = 0;
    sim::LabelId npu_cut = 0;
    sim::LabelId gpu_seq = 0;
    sim::LabelId act_quant = 0;
  };
  std::array<SiteLabels, kSiteCount> site_labels_;
  sim::LabelId rmsnorm_label_ = 0;
  sim::LabelId residual_label_ = 0;
  sim::LabelId swiglu_label_ = 0;
  sim::LabelId rope_label_ = 0;
  std::vector<sim::LabelId> attn_labels_;  // "attn:L<layer>", by layer
  // "<site>:npu-seq<seg>" keyed by seg * kSiteCount + site.
  std::unordered_map<int64_t, sim::LabelId> npu_seq_labels_;

  // Compiled schedules keyed by (phase, rows, serving).
  std::unordered_map<uint64_t, graph::CompiledSchedule> schedule_cache_;
  // Device-state epoch the caches were last validated against.
  uint64_t seen_epoch_ = 0;
  int schedule_compiles_ = 0;
  int replan_events_ = 0;
};

}  // namespace heterollm::core

#endif  // SRC_CORE_ENGINE_BASE_H_
