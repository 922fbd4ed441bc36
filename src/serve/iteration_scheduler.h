// Multi-session serving scheduler (continuous batching over one SoC).
//
// Admits N concurrent requests and interleaves their prefill and decode
// iterations over a single shared engine/Platform. The throughput win is
// the classic continuous-batching amortization, which the simulator prices
// faithfully: a decode iteration with B sessions runs its matmuls once at
// m = B (each weight streamed from DRAM once for the whole batch — decode
// is bandwidth-bound, paper §4.1.2), while attention and cache appends stay
// per-session. Serial session replay streams the full weight set once per
// token per user; continuous batching streams it once per iteration.
//
// KV memory is managed at *block* granularity (src/model/kv_pool.h): the
// budget is carved into fixed-size token blocks, a session allocates blocks
// as tokens are appended (not its whole-conversation footprint up front),
// and committed prompt blocks feed a cross-request prefix cache
// (src/serve/prefix_cache.h) — a request whose prompt head is cached adopts
// those blocks and prefills only the residual tokens. Under pressure the
// scheduler first evicts unpinned cached prefixes (LRU), then preempts an
// active session; an evicted session drops its cache and restarts from
// prefill when re-admitted — except under `IterationPolicy::kHybridChunked`,
// which parks the committed prompt blocks so re-admission resumes at the
// next prefill chunk.
//
// Two driving modes share one window machinery (the KV pool, prefix cache
// and active/waiting session state live *in the scheduler*, not in `Run`):
//
//   * Batch: `Run(queue)` serves a whole arrival trace to completion — the
//     single-SoC path every bench and test drives.
//   * Incremental: `BeginWindow` / `Submit` / `StepRound` / `EndWindow` let
//     an outer driver (the cluster front-end, src/serve/cluster/) feed
//     requests as they are routed and advance the replica one scheduling
//     round at a time on its own simulated clock. `Run` is `BeginWindow`,
//     one `Submit` per request, `StepRound` until done and `EndWindow`, so
//     the two modes are step-for-step identical on the same request
//     sequence.
//
// The scheduler drives `ExecutionMode::kSimulate` engines only — batched
// decoding shares one forward pass across sessions with different cache
// contents, so only the timing path is meaningful.

#ifndef SRC_SERVE_ITERATION_SCHEDULER_H_
#define SRC_SERVE_ITERATION_SCHEDULER_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "src/common/status.h"
#include "src/core/engine_base.h"
#include "src/model/kv_cache.h"
#include "src/serve/request_queue.h"
#include "src/serve/serving_metrics.h"

namespace heterollm::serve {

enum class SchedulePolicy {
  // One request at a time, FIFO by arrival: full prefill + all decode steps
  // before the next request starts (the pre-serving replay baseline).
  kSerial,
  // Iteration-level scheduling: new requests join between decode
  // iterations; decode runs batched across all active sessions.
  kContinuousBatching,
};

enum class IterationPolicy {
  // Admit (and prefill) every admissible waiting request before the next
  // decode iteration — minimizes TTFT at some cost to decode cadence.
  kPrefillFirst,
  // At most one admission between decode iterations — active sessions keep
  // a steady TPOT while arrivals trickle in.
  kDecodeFair,
  // Chunked prefill with stage-aware hybrid iterations: prompts prefill in
  // `prefill_chunk_tokens`-sized transactional chunks, and every scheduling
  // round runs the batched decode iteration plus at most one chunk, the two
  // sharing `iteration_token_budget` tokens — so no decode round ever waits
  // behind a full long prefill (the paper's §5.5 starvation scenario).
  // Chunk state persists on the session: preemption parks the committed
  // prompt blocks and re-admission resumes at the next chunk instead of
  // re-prefilling. TTFT keeps its meaning (the last chunk's commit time);
  // prefix-cache hits skip whole chunks; speculative decoding runs
  // unchanged in the decode half.
  kHybridChunked,
};

enum class AdmissionPolicy {
  // Admit waiting requests in submission (arrival) order.
  kFifo,
  // Admit the highest-priority waiting request first (`Request::priority`,
  // FIFO among equals). The task layer (src/serve/task_graph.h) sets a
  // stage's priority to the number of completed stages in its task, so
  // critical-path stages of in-flight tasks admit ahead of fresh roots —
  // fewer half-finished tasks hold KV across the window, and task-level
  // tail latency drops under contention.
  kPriority,
};

struct SchedulerOptions {
  SchedulePolicy policy = SchedulePolicy::kContinuousBatching;
  IterationPolicy iteration = IterationPolicy::kPrefillFirst;
  // Order in which waiting (arrived, unadmitted) requests are considered
  // for admission. kFifo preserves the pre-task-layer behavior exactly.
  AdmissionPolicy admission = AdmissionPolicy::kFifo;
  // Max sessions per batched decode iteration. The engine must have static
  // NPU decode graphs for every batch size up to this value — build it with
  // `BuildServingEngine` (src/serve/serving_engine.h) or `Replica::Create`
  // (src/serve/replica.h), which wire the decode widths for you.
  int max_decode_batch = 8;
  // KV-cache memory budget across all admitted sessions. Continuous
  // batching carves it into `kv_block_tokens`-sized blocks; whatever the
  // division leaves over is unusable slack.
  Bytes kv_budget_bytes = 256 * kMiB;
  // Tokens per KV block. Smaller blocks track conversation footprints more
  // exactly and share finer prefixes; larger blocks cut bookkeeping.
  int64_t kv_block_tokens = model::kKvBlockTokens;
  // Share committed prompt blocks across requests with identical prompt
  // heads (needs traces that carry `Request::prompt_tokens`).
  bool enable_prefix_cache = true;
  // Preempt an active session when a never-admitted request cannot fit.
  bool allow_eviction = true;
  // Speculative decoding: draft tokens verified per decode iteration
  // (0 = off). Every selected session advances by up to window+1 tokens per
  // iteration through one batched verify pass; rejected drafts are rolled
  // back block-exactly. Admission reserves the window on top of each
  // session's footprint, and `BuildServingEngine` pre-compiles the wider
  // decode graphs (batch * (window+1)).
  int speculative_window = 0;
  // Per-draft acceptance probability of the simulated verifier (serving
  // drives simulate-mode engines, so there are no real logits to compare).
  double speculative_acceptance = 0.75;
  // Seeds the acceptance draws — runs are deterministic per seed.
  uint64_t speculative_seed = 17;
  // Chunked prefill (iteration == kHybridChunked; ignored otherwise): max
  // prompt tokens one prefill chunk runs per hybrid iteration. Long prompts
  // split into ceil(prompt / chunk) transactional chunks; `BuildServingEngine`
  // pre-compiles the chunk-width schedule alongside the standard prefill
  // sizes (ragged last chunks decompose/pad like any non-standard length).
  int64_t prefill_chunk_tokens = 256;
  // Per-iteration token budget shared between the decode rows and the
  // prefill chunk of one hybrid iteration. Decode rows are priced first and
  // the chunk gets the remainder, floored at one token so a saturated
  // decode batch can never starve prefill into livelock. 0 derives
  // prefill_chunk_tokens + max_decode_batch * (speculative rows).
  int64_t iteration_token_budget = 0;

  // Field-level validity: max_decode_batch >= 1, kv_budget_bytes > 0,
  // kv_block_tokens >= 1, speculative_window >= 0, speculative_acceptance
  // in [0, 1], prefill_chunk_tokens >= 1, iteration_token_budget >= 0, and
  // the budget affords at least one block's worth
  // of bytes is checked downstream (it needs the model config).
  Status Validate() const;
  // The SolverConfig pattern: a Status-returning factory so callers handle
  // bad options as errors instead of aborting inside the scheduler.
  static StatusOr<SchedulerOptions> Validated(SchedulerOptions options);
};

// One request finishing inside an incremental window, surfaced through
// `DrainCompletions` so an outer driver (the serving event loop) can
// react — release dependent stages — without scraping the window metrics.
struct CompletionEvent {
  int id = 0;            // Request::id
  MicroSeconds time = 0;  // completion instant on the replica clock
};

class IterationScheduler {
 public:
  // HCHECKs `options.Validate()`; use `SchedulerOptions::Validated` first
  // when the options come from user input.
  IterationScheduler(core::EngineBase* engine, const SchedulerOptions& options);
  ~IterationScheduler();

  IterationScheduler(const IterationScheduler&) = delete;
  IterationScheduler& operator=(const IterationScheduler&) = delete;

  // Serves every request in `queue`; returns when all have completed.
  // Simulated time continues from the engine's current clock. Must not be
  // called while an incremental window is open.
  ServingMetrics Run(const RequestQueue& queue);

  // --- incremental serving (cluster mode) ----------------------------------
  // The cluster driver owns the arrival trace and the routing decision; the
  // scheduler owns everything downstream: admission, KV blocks, prefix
  // cache, batched iterations. A window brackets one serving run for
  // power/utilization accounting, exactly like one `Run` call.

  // Opens an incremental window (continuous batching only). Quiesces the
  // platform and snapshots the power meter so `EndWindow`'s energy and
  // utilization cover this window alone.
  void BeginWindow();

  // Hands the scheduler one routed request. Requests must arrive in
  // non-decreasing `arrival` order — the router dispatches in arrival
  // order, and `TaskGraph::TakeReady` emits stage releases as a monotone
  // stream; the request queues until the replica clock reaches `arrival`
  // (a stage's `arrival` is its release time, see request_queue.h).
  void Submit(const Request& request);

  // One scheduling round: pump arrivals, admit (policy-dependent), then one
  // batched decode/verify iteration — or an idle/stall advance when nothing
  // is runnable. Returns false (and does nothing) when every submitted
  // request has completed.
  bool StepRound();

  // Drains the platform and closes the window, returning its metrics.
  ServingMetrics EndWindow();

  // Requests that completed since the last drain (empty with no open
  // window), in completion order. The serving loop polls this after every
  // round.
  std::vector<CompletionEvent> DrainCompletions();

  bool window_open() const { return cont_ != nullptr; }
  // True while some submitted request has not completed.
  bool has_work() const;
  // Sessions currently admitted (holding KV blocks).
  int active_sessions() const;
  // Submitted requests not currently admitted (arrived or not).
  int waiting_requests() const;
  // Tokens of `prompt` the window's prefix cache would serve right now
  // (0 with no open window or a disabled cache). Non-mutating — the
  // router's per-replica affinity estimate.
  int64_t ProbePrefixTokens(const std::vector<int32_t>& prompt) const;
  // The replica-local simulated clock (engine host time).
  MicroSeconds now() const;

  const SchedulerOptions& options() const { return options_; }
  core::EngineBase* engine() const { return engine_; }

 private:
  struct Continuous;  // one continuous-batching window's state

  // Window prologue/epilogue shared by the serial Run and
  // Begin/EndWindow.
  void StartWindow(ServingMetrics* m);
  void FinishWindow(ServingMetrics* m);
  void RunSerial(const std::vector<Request>& requests, ServingMetrics* m);

  core::EngineBase* engine_;
  SchedulerOptions options_;
  std::unique_ptr<Continuous> cont_;  // open incremental window, if any
  ServingMetrics window_metrics_;     // metrics of the open window
  sim::PowerSnapshot power_start_;
  int replan_start_ = 0;
};

}  // namespace heterollm::serve

#endif  // SRC_SERVE_ITERATION_SCHEDULER_H_
