// Task-DAG tracker: releases agentic/RAG stages into the serving layer as
// their parents complete.
//
// The workload layer (src/workload/task_trace.h) describes *what* a task
// is — stages, shapes, dependencies, off-SoC pauses. This layer tracks the
// DAG state against the serving clock and turns it into the flat request
// stream the `IterationScheduler` understands:
//
//   * `TakeReady(now)` emits every stage whose parents have completed and
//     whose release time (last parent completion + the stage's pause, or
//     the task arrival for roots) has passed, as `Request::Stage` values.
//     A stage's `arrival` is its release time, so scheduler queueing is
//     measured from the moment the stage *could* run. Priority is stamped
//     at release: the number of completed stages in the owning task, so —
//     under `AdmissionPolicy::kPriority` — later stages of in-flight tasks
//     admit ahead of fresh roots.
//   * `OnCompleted(id, t)` feeds completions back (from
//     `Replica::DrainCompletions`), unlocking dependent stages.
//   * `BuildTaskMetrics` joins the window's per-request rows back into
//     per-task rollups (end-to-end task latency, per-stage queueing) for
//     `ServingMetrics::tasks`.
//
// Emission is clamped monotone: `TakeReady` never emits an `arrival`
// below a previously emitted one, so the stream satisfies `Submit`'s
// non-decreasing-arrival contract even when a multi-replica co-simulation
// observes completions out of global time order (replica rounds are
// coarse; see cluster.h). Under a single replica the clamp never engages.
//
// Two drivers consume the graph, both thin callers of the one serving
// event loop (src/serve/cluster/cluster.h), which offers the release
// frontier one release instant at a time:
//   * `ServeTasks(replica, graph)` — one replica behind a pass-through
//     router;
//   * `Cluster::ServeTasks(graph)` — the fleet, where the router's
//     prefix-affinity policy keeps a session's stages on the replica
//     holding its KV.

#ifndef SRC_SERVE_TASK_GRAPH_H_
#define SRC_SERVE_TASK_GRAPH_H_

#include <cstddef>
#include <cstdint>
#include <map>
#include <utility>
#include <vector>

#include "src/common/types.h"
#include "src/serve/request_queue.h"
#include "src/serve/serving_metrics.h"
#include "src/workload/task_trace.h"

namespace heterollm::serve {

class Replica;

class TaskGraph {
 public:
  // Takes ownership of the trace. Request ids are assigned globally unique
  // in (task, stage) order; `TaskSpec` dependencies were validated by the
  // workload generator and are re-HCHECKed here (each parent < the stage's
  // own index).
  explicit TaskGraph(std::vector<workload::TaskSpec> tasks);

  // Releases every stage that is ready at `now`: all parents completed and
  // release time <= now. Returned requests are ordered by (release, task,
  // stage) and their arrivals are clamped monotone across calls; each is
  // marked released and will not be returned again. `now` must not
  // decrease across calls.
  std::vector<Request> TakeReady(MicroSeconds now);

  // Earliest instant a not-yet-released stage could release — the time a
  // driver with idle replicas should advance to. +infinity when every
  // unreleased stage still waits on an incomplete parent (progress must
  // then come from stepping replicas).
  MicroSeconds NextReleaseTime() const;

  // Feeds one completion back (from `Replica::DrainCompletions`). Unknown
  // ids abort; double completion aborts.
  void OnCompleted(int request_id, MicroSeconds time);

  bool AllDone() const { return completed_ == total_stages_; }
  int total_stages() const { return total_stages_; }
  int released_stages() const { return released_; }
  int completed_stages() const { return completed_; }
  size_t task_count() const { return tasks_.size(); }

  // Joins the serving window's request rows into per-task rollups, in task
  // order. Stages never released (an aborted run) keep zero timestamps.
  std::vector<TaskMetrics> BuildTaskMetrics(
      const std::vector<RequestMetrics>& requests) const;

 private:
  struct StageState {
    int request_id = 0;
    bool released = false;
    bool completed = false;
    MicroSeconds released_at = 0;
    MicroSeconds completed_at = 0;
  };
  struct TaskState {
    workload::TaskSpec spec;
    std::vector<StageState> stages;
    int completed_count = 0;  // the priority stamp for its next releases
  };

  // Release time of stage `s` of task `t`, or +infinity while a parent is
  // incomplete.
  MicroSeconds ReleaseTime(const TaskState& task, size_t s) const;

  std::vector<TaskState> tasks_;
  // request id -> (task index, stage index); ids are dense but keyed by map
  // for the deterministic iteration the tests rely on.
  std::map<int, std::pair<size_t, size_t>> by_id_;
  int total_stages_ = 0;
  int released_ = 0;
  int completed_ = 0;
  MicroSeconds last_emitted_ = 0;  // monotone-arrival clamp
};

// Single-replica task driver: the cluster event loop on `replica` alone,
// behind a router sized so it never holds a stage back (defined in
// cluster.cc). Returns the window's metrics with the task rollup attached.
// The graph must be fresh (nothing released yet).
ServingMetrics ServeTasks(Replica& replica, TaskGraph& graph);

}  // namespace heterollm::serve

#endif  // SRC_SERVE_TASK_GRAPH_H_
