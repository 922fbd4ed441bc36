// Cluster front-end: admission control plus pluggable request routing.
//
// The router owns a bounded FIFO pending queue. `Offer` is the admission
// edge — an offer bounces (counted, never served) when the queue is full,
// which is what keeps an overloaded fleet's latency tail bounded instead of
// unbounded queueing. `DispatchReady` drains the queue head-first, placing
// each request on a replica chosen by the active policy; dispatch stops at
// the first head request no replica can take (per-replica queues are
// bounded too), so requests never overtake each other at the router —
// per-replica arrival order stays monotone, which the incremental scheduler
// requires.
//
// Policies:
//   * kRoundRobin — strict rotation, load- and content-blind.
//   * kLeastLoaded — fewest in-flight requests (active + queued), ties to
//     the lowest replica index.
//   * kPrefixAffinity — score each replica by the prompt tokens its prefix
//     cache would serve *right now* (`Replica::ProbePrefixTokens`, a
//     read-only walk of the replica's trie over the shared block-chunk
//     key-space). Two router-side sticky indices break ties toward the
//     replica already serving the request's context: a session index
//     (`Request::session_id` → last replica dispatched to — task-DAG
//     stages of one session ride their KV this way) consulted first, then
//     a prompt-family index (first prompt chunk → last replica routed
//     there). Either sticky hint is only trusted when the live probe
//     confirms the replica still holds at least one block — after a
//     replica-local LRU eviction the hint is stale, every estimate reads
//     zero, and the policy degrades to least-loaded instead of pinning
//     traffic to a replica that would re-prefill from scratch.
//
// The router holds no clock and never steps replicas: the serving event
// loop (cluster.h) interleaves `DispatchReady` with replica rounds on the
// unified virtual clock.

#ifndef SRC_SERVE_CLUSTER_CLUSTER_ROUTER_H_
#define SRC_SERVE_CLUSTER_CLUSTER_ROUTER_H_

#include <cstdint>
#include <deque>
#include <map>
#include <string>
#include <vector>

#include "src/common/status.h"
#include "src/serve/replica.h"
#include "src/serve/request_queue.h"

namespace heterollm::serve {

enum class RoutingPolicy {
  kRoundRobin,
  kLeastLoaded,
  kPrefixAffinity,
};

const char* RoutingPolicyName(RoutingPolicy policy);

struct RouterOptions {
  RoutingPolicy policy = RoutingPolicy::kLeastLoaded;
  // Pending-queue bound: offers beyond this are rejected outright.
  int max_pending = 64;
  // Per-replica bound on in-flight requests (active + queued); a replica at
  // the bound takes no new dispatches until it drains.
  int max_replica_queue = 16;
  // Chunk size of the sticky affinity index. Match the schedulers'
  // `kv_block_tokens` so router chunks align with the replicas' tries.
  int64_t affinity_chunk_tokens = 16;

  Status Validate() const;
};

class ClusterRouter {
 public:
  // `replicas` are borrowed and must outlive the router; all must have an
  // open incremental window before dispatching begins.
  ClusterRouter(std::vector<Replica*> replicas, const RouterOptions& options);

  // Admission edge. False = rejected (pending queue full); the request is
  // dropped and counted, never served.
  bool Offer(const Request& request);

  // Dispatches queued requests head-first until the head has no willing
  // replica (or the queue empties). Returns the number dispatched.
  int DispatchReady();

  // Routing decision for `request` under the active policy, without
  // dispatching: replica index, or -1 when no replica has queue slack.
  // Exposed for tests; `DispatchReady` is the real consumer.
  int PickReplica(const Request& request) const;

  size_t pending() const { return pending_.size(); }
  int64_t offered() const { return offered_; }
  int64_t rejected() const { return rejected_; }
  const RouterOptions& options() const { return options_; }

 private:
  bool HasSlack(size_t i) const;
  int PickRoundRobin() const;
  int PickLeastLoaded() const;
  int PickPrefixAffinity(const Request& request) const;
  // First block-sized chunk of the prompt — the sticky index key. Empty
  // (no affinity tracking) for prompts shorter than one chunk.
  std::vector<int32_t> StickyKey(const Request& request) const;

  std::vector<Replica*> replicas_;
  RouterOptions options_;
  std::deque<Request> pending_;
  // Kept under kPrefixAffinity only. std::map (not unordered) keeps
  // iteration deterministic, mirroring the replicas' own tries.
  std::map<std::vector<int32_t>, size_t> sticky_;
  // session_id -> replica last dispatched to. Stronger hint than the
  // prompt-chunk index for multi-stage tasks: a session's later prompts
  // share its grown prefix, whose KV lives where earlier stages ran.
  std::map<int64_t, size_t> session_sticky_;
  size_t rr_next_ = 0;  // advanced only when a dispatch lands
  int64_t offered_ = 0;
  int64_t rejected_ = 0;
};

}  // namespace heterollm::serve

#endif  // SRC_SERVE_CLUSTER_CLUSTER_ROUTER_H_
