#include "src/serve/cluster/cluster.h"

#include <algorithm>
#include <limits>
#include <utility>

#include "src/common/status.h"

namespace heterollm::serve {
namespace {

constexpr MicroSeconds kNever = std::numeric_limits<MicroSeconds>::max();

// Where the serving loop's offers come from.
class RequestSource {
 public:
  virtual ~RequestSource() = default;
  // Instant of the next offer; +infinity when none is due until a
  // completion unlocks one (or ever).
  virtual MicroSeconds NextTime() const = 0;
  // The offers due at `next` (== NextTime()), in offer order.
  virtual std::vector<Request> Take(MicroSeconds next) = 0;
  virtual void OnCompleted(const CompletionEvent&) {}
};

// An arrival trace, one request per event: a replica round may run between
// two arrivals that share a timestamp. Bounced arrivals are counted by the
// router, never served.
class ArrivalTrace final : public RequestSource {
 public:
  explicit ArrivalTrace(const std::vector<Request>& requests)
      : requests_(requests) {}
  MicroSeconds NextTime() const override {
    return next_ < requests_.size() ? requests_[next_].arrival : kNever;
  }
  std::vector<Request> Take(MicroSeconds) override {
    return {requests_[next_++]};
  }

 private:
  const std::vector<Request>& requests_;
  size_t next_ = 0;
};

// A task graph's release frontier: every stage released at the next
// release instant is one event. Completions unlock dependent stages, so a
// round may pull the frontier earlier.
class ReleaseFrontier final : public RequestSource {
 public:
  explicit ReleaseFrontier(TaskGraph& graph) : graph_(graph) {}
  MicroSeconds NextTime() const override { return graph_.NextReleaseTime(); }
  std::vector<Request> Take(MicroSeconds next) override {
    return graph_.TakeReady(next);
  }
  void OnCompleted(const CompletionEvent& done) override {
    graph_.OnCompleted(done.id, done.time);
  }

 private:
  TaskGraph& graph_;
};

// The one serving event loop: opens a window on every replica, serves
// `source` to exhaustion through a router over `replicas`, closes the
// windows and returns their metrics.
ClusterMetrics ServeLoop(const std::vector<Replica*>& replicas,
                         const RouterOptions& router_options,
                         RequestSource& source) {
  for (Replica* r : replicas) {
    r->BeginWindow();
  }
  ClusterRouter router(replicas, router_options);
  int64_t completed = 0;
  for (;;) {
    // The replica furthest behind in virtual time among those with work:
    // stepping it is the earliest replica-side event.
    Replica* behind = nullptr;
    for (Replica* r : replicas) {
      if (r->has_work() && (behind == nullptr || r->now() < behind->now())) {
        behind = r;
      }
    }
    const MicroSeconds next = source.NextTime();
    if (behind != nullptr && behind->now() <= next) {
      behind->StepRound();
      for (const CompletionEvent& done : behind->DrainCompletions()) {
        source.OnCompleted(done);
        ++completed;
      }
    } else if (next < kNever) {
      for (const Request& r : source.Take(next)) {
        router.Offer(r);
      }
    } else if (router.pending() > 0) {
      // Pending requests, idle replicas, nothing left to offer: the only
      // way forward is a dispatch, and one must land — idle replicas have
      // load 0 and max_replica_queue >= 1, so the head always has a taker.
      const int dispatched = router.DispatchReady();
      HCHECK_MSG(dispatched > 0,
                 "cluster stalled: pending requests but no dispatch");
      continue;
    } else {
      break;
    }
    // Refresh routing after every event so dispatch decisions read replica
    // load and prefix estimates at the current virtual time.
    router.DispatchReady();
  }
  // Exactly once: every admitted offer completed and was drained once.
  HCHECK_MSG(std::none_of(replicas.begin(), replicas.end(),
                          [](const Replica* r) { return r->has_work(); }),
             "serving loop exited with a replica still holding work");
  HCHECK_MSG(completed == router.offered() - router.rejected(),
             "serving loop drained a completion count other than offered "
             "minus rejected");

  ClusterMetrics out;
  out.offered = router.offered();
  out.rejected = router.rejected();
  out.replicas.reserve(replicas.size());
  for (Replica* r : replicas) {
    out.replicas.push_back({r->name(), r->device(), r->EndWindow()});
  }
  return out;
}

// Serves a fresh task graph through the loop and attaches the task rollup,
// built once over the pooled request rows (a task's stages may land on
// different replicas).
ClusterMetrics ServeGraph(const std::vector<Replica*>& replicas,
                          const RouterOptions& router_options,
                          TaskGraph& graph) {
  HCHECK_MSG(graph.released_stages() == 0,
             "ServeTasks needs a fresh TaskGraph (nothing released yet)");
  ReleaseFrontier frontier(graph);
  ClusterMetrics out = ServeLoop(replicas, router_options, frontier);
  HCHECK_MSG(out.rejected == 0,
             "task stage rejected by admission control — a dropped stage "
             "deadlocks its task; raise max_pending");
  HCHECK_MSG(graph.AllDone(),
             "task graph deadlocked: no replica has work, no stage is "
             "releasable, nothing pending");
  std::vector<RequestMetrics> all_requests;
  for (const ClusterMetrics::ReplicaRow& row : out.replicas) {
    all_requests.insert(all_requests.end(), row.metrics.requests.begin(),
                        row.metrics.requests.end());
  }
  out.tasks = graph.BuildTaskMetrics(all_requests);
  return out;
}

}  // namespace

Cluster::Cluster(std::vector<std::unique_ptr<Replica>> replicas,
                 const ClusterOptions& options)
    : replicas_(std::move(replicas)), options_(options) {
  HCHECK_MSG(!replicas_.empty(), "cluster needs at least one replica");
  for (const std::unique_ptr<Replica>& r : replicas_) {
    HCHECK(r != nullptr);
    raw_.push_back(r.get());
  }
}

ClusterMetrics Cluster::Serve(const RequestQueue& queue) {
  ArrivalTrace trace(queue.requests());
  ClusterMetrics out = ServeLoop(raw_, options_.router, trace);
  out.slo = options_.slo;
  return out;
}

ClusterMetrics Cluster::ServeTasks(TaskGraph& graph) {
  ClusterMetrics out = ServeGraph(raw_, options_.router, graph);
  out.slo = options_.slo;
  return out;
}

ServingMetrics ServeTasks(Replica& replica, TaskGraph& graph) {
  // A one-replica cluster whose router passes every stage straight
  // through: neither bound can bite with room for every stage.
  RouterOptions pass_through;
  pass_through.max_pending = std::max(1, graph.total_stages());
  pass_through.max_replica_queue = pass_through.max_pending;
  ClusterMetrics out = ServeGraph({&replica}, pass_through, graph);
  ServingMetrics m = std::move(out.replicas[0].metrics);
  m.tasks = std::move(out.tasks);
  return m;
}

}  // namespace heterollm::serve
