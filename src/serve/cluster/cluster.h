// Multi-SoC cluster driver: N heterogeneous replicas co-simulated on one
// unified virtual clock.
//
// Each `Replica` owns an independent `Platform`, so each has its own
// discrete-event clock; the cluster makes them one simulation by always
// advancing the *earliest* pending event next. One event loop (cluster.cc)
// runs `Serve`, `ServeTasks` and the one-replica `serve::ServeTasks`
// (task_graph.h) over a request source: an arrival trace offering one
// request per event, or a `TaskGraph` release frontier offering one release
// instant's batch per event and fed the completions drained every round.
// The replica furthest behind (among those with work) runs one round while
// its clock is <= the source's next offer time; otherwise that offer goes
// to the router (admission + routing policy, cluster_router.h). So no
// replica consumes simulated time that should have seen an offer first,
// and an offer due exactly at a busy replica's clock joins after that
// round. `DispatchReady` runs after every event, so routing reads load and
// prefix estimates at the decision's virtual time. On exit the loop checks
// that no replica holds work and that it drained exactly offered minus
// rejected completions.
//
// With one replica and an always-admitting router this serves exactly the
// work `Replica::Serve` would, with one online-vs-oracle timing caveat: the
// batch path pre-populates the arrival list, so its prefill-first admission
// loop can admit a request whose arrival instant lands *inside* the current
// scheduling round (a prefill advanced the clock past it). The online
// driver cannot submit a request before it arrives, so such a request joins
// at the next round boundary — a sub-round shift of that prefill, never
// reordered or lost work.

#ifndef SRC_SERVE_CLUSTER_CLUSTER_H_
#define SRC_SERVE_CLUSTER_CLUSTER_H_

#include <memory>
#include <vector>

#include "src/serve/cluster/cluster_metrics.h"
#include "src/serve/cluster/cluster_router.h"
#include "src/serve/replica.h"
#include "src/serve/request_queue.h"
#include "src/serve/task_graph.h"

namespace heterollm::serve {

struct ClusterOptions {
  RouterOptions router;
  // Per-request SLO scored into ClusterMetrics (goodput). Purely an
  // accounting input — the scheduler does not deadline-schedule.
  SloSpec slo;
};

class Cluster {
 public:
  // Takes ownership of the replicas (each already constructed from its own
  // SocSpec/PlatformOptions; heterogeneity lives there).
  Cluster(std::vector<std::unique_ptr<Replica>> replicas,
          const ClusterOptions& options);

  // Serves the whole arrival trace to completion across the fleet and
  // returns the cluster metrics. Rejected offers (bounded pending queue)
  // are counted, not served.
  ClusterMetrics Serve(const RequestQueue& queue);

  // Serves a task DAG to completion across the fleet. Stages release
  // through `graph` as their parents complete — completions drain from
  // whichever replica ran them — and the router places each released
  // stage; under kPrefixAffinity a session's later stages follow the
  // replica holding its KV (session-sticky + live probes). The graph must
  // be fresh (nothing released). Unlike `Serve`, admission must not drop
  // work — a dropped stage would deadlock its task — so an offer bouncing
  // off a full pending queue aborts; size `max_pending` for the trace.
  // The fleet-wide task rollup lands in `ClusterMetrics::tasks`.
  ClusterMetrics ServeTasks(TaskGraph& graph);

  const std::vector<std::unique_ptr<Replica>>& replicas() const {
    return replicas_;
  }
  const ClusterOptions& options() const { return options_; }

 private:
  std::vector<std::unique_ptr<Replica>> replicas_;
  std::vector<Replica*> raw_;  // the same replicas, borrowed by the loop
  ClusterOptions options_;
};

}  // namespace heterollm::serve

#endif  // SRC_SERVE_CLUSTER_CLUSTER_H_
