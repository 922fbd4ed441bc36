// One serving replica: a complete single-SoC serving stack behind a narrow
// submit/step/drain/metrics interface.
//
// Before this abstraction every bench wired the stack by hand — construct a
// `Platform`, call `BuildServingEngine` over it, then point an
// `IterationScheduler` at the engine — and the ownership of those three
// pieces (plus the KV pool and prefix cache living inside the scheduler)
// was threaded ad hoc through each call site. `Replica` inverts that: one
// object owns its `Platform`, its serving engine over a *shared*
// `ModelWeights` view (weights are read-only; N replicas of the same model
// share one copy), and its `IterationScheduler` — and therefore,
// transitively, the per-replica KV block pool and prefix-cache trie.
//
// The primary surface is the incremental window:
//
//   replica->BeginWindow();
//   replica->Submit(request);        // any time, non-decreasing arrivals
//   while (replica->StepRound()) {   // one scheduling round per call
//     for (const CompletionEvent& done : replica->DrainCompletions()) ...
//   }
//   ServingMetrics m = replica->EndWindow();
//
// The serving event loop (src/serve/cluster/) drives replicas through it,
// interleaving N of them on one virtual clock — for an arrival trace, or
// for a task DAG (src/serve/task_graph.h) whose drained completions
// release dependent stages. An idle replica needs no explicit advance: a
// round with nothing runnable idles it to its next submitted arrival.
// `ProbePrefixTokens` and `load` are the read-only signals the router's
// policies consume between rounds.
//
// `Serve(queue)` is the batch convenience wrapper over the same rounds —
// open a window, submit the whole trace, step dry, close — kept because
// most benches and tests serve a fixed arrival trace to completion on one
// SoC; it is step-for-step identical to driving the window by hand (see
// IterationScheduler::Run), so there is no third submission path to keep
// in sync.
//
// Each replica has its own simulated clock (its Platform's event
// simulator); nothing is shared across replicas except the weights view.

#ifndef SRC_SERVE_REPLICA_H_
#define SRC_SERVE_REPLICA_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "src/common/status.h"
#include "src/core/engine_base.h"
#include "src/core/platform.h"
#include "src/serve/iteration_scheduler.h"
#include "src/serve/request_queue.h"
#include "src/serve/serving_metrics.h"

namespace heterollm::serve {

struct ReplicaOptions {
  // Display/routing name ("replica0", "8gen3", ...); surfaces in cluster
  // metrics and reports.
  std::string name = "replica";
  // Free-form device descriptor for reports (e.g. the SocSpec name the
  // platform options were derived from). Purely informational.
  std::string device = "";
  // The simulated SoC this replica runs on. `PlatformOptions::FromSocSpec`
  // instantiates any Table 1 device; engine-specific calibrations come from
  // `core::PlatformOptionsFor(engine)`.
  core::PlatformOptions platform = core::PlatformOptions::Snapdragon8Gen3();
  // Engine under the scheduler (registry name) and its base options —
  // forwarded to `BuildServingEngine`, which derives the serving-specific
  // knobs (decode widths, KV capacity) from `scheduler`.
  std::string engine = "Hetero-tensor";
  core::EngineOptions engine_options;
  // Scheduler knobs, including the iteration policy. Selecting
  // `IterationPolicy::kHybridChunked` turns on chunked prefill end-to-end:
  // `BuildServingEngine` pre-compiles the `prefill_chunk_tokens`-width
  // schedule and the replica's `ServingMetrics` report the chunk counters
  // (prefill_chunks / chunked_prefill_tokens / chunk_resumed_tokens /
  // hybrid_iterations).
  SchedulerOptions scheduler;
};

class Replica {
 public:
  // Builds the full stack: Platform from `options.platform`, serving engine
  // via `BuildServingEngine` (errors propagate — invalid scheduler options,
  // unknown engine name, KV capacity not block-aligned), scheduler over the
  // engine. `weights` is borrowed and must outlive the replica.
  static StatusOr<std::unique_ptr<Replica>> Create(
      const ReplicaOptions& options, const model::ModelWeights* weights);

  Replica(const Replica&) = delete;
  Replica& operator=(const Replica&) = delete;

  // The primary incremental surface — see IterationScheduler for the exact
  // contracts; these forward one-to-one.
  void BeginWindow() { scheduler_->BeginWindow(); }
  void Submit(const Request& request) { scheduler_->Submit(request); }
  bool StepRound() { return scheduler_->StepRound(); }
  ServingMetrics EndWindow() { return scheduler_->EndWindow(); }
  // Requests completed since the last drain — the serving loop polls this
  // after every round.
  std::vector<CompletionEvent> DrainCompletions() {
    return scheduler_->DrainCompletions();
  }

  // Batch convenience wrapper: serve a whole fixed trace to completion on
  // this replica alone (one window, every request submitted up front,
  // stepped dry) — step-for-step identical to driving the window by hand.
  ServingMetrics Serve(const RequestQueue& queue) {
    return scheduler_->Run(queue);
  }

  bool has_work() const { return scheduler_->has_work(); }
  int active_sessions() const { return scheduler_->active_sessions(); }
  int waiting_requests() const { return scheduler_->waiting_requests(); }
  // Queue depth the least-loaded policy balances on: admitted sessions plus
  // everything submitted but not yet finished.
  int load() const { return active_sessions() + waiting_requests(); }
  // Prompt tokens this replica's prefix cache would serve right now — the
  // router's live affinity estimate. Read-only.
  int64_t ProbePrefixTokens(const std::vector<int32_t>& prompt) const {
    return scheduler_->ProbePrefixTokens(prompt);
  }
  // Replica-local simulated clock.
  MicroSeconds now() const { return scheduler_->now(); }

  const std::string& name() const { return options_.name; }
  const std::string& device() const { return options_.device; }
  const ReplicaOptions& options() const { return options_; }
  core::Platform& platform() { return *platform_; }
  core::EngineBase& engine() { return *engine_; }
  IterationScheduler& scheduler() { return *scheduler_; }

 private:
  Replica(ReplicaOptions options, std::unique_ptr<core::Platform> platform,
          std::unique_ptr<core::EngineBase> engine,
          const model::ModelWeights* weights);

  ReplicaOptions options_;
  // Declaration order is destruction-order-critical: the scheduler holds
  // the engine, the engine holds the platform.
  std::unique_ptr<core::Platform> platform_;
  std::unique_ptr<core::EngineBase> engine_;
  std::unique_ptr<IterationScheduler> scheduler_;
  const model::ModelWeights* weights_;  // borrowed, shared across replicas
};

}  // namespace heterollm::serve

#endif  // SRC_SERVE_REPLICA_H_
