#include "src/serve/cluster/cluster_router.h"

#include <algorithm>
#include <utility>

#include "src/common/strings.h"

namespace heterollm::serve {

const char* RoutingPolicyName(RoutingPolicy policy) {
  switch (policy) {
    case RoutingPolicy::kRoundRobin:
      return "round_robin";
    case RoutingPolicy::kLeastLoaded:
      return "least_loaded";
    case RoutingPolicy::kPrefixAffinity:
      return "prefix_affinity";
  }
  HCHECK_MSG(false, "unknown routing policy");
  __builtin_unreachable();
}

Status RouterOptions::Validate() const {
  if (max_pending < 1) {
    return InvalidArgumentError("max_pending must be >= 1");
  }
  if (max_replica_queue < 1) {
    return InvalidArgumentError("max_replica_queue must be >= 1");
  }
  if (affinity_chunk_tokens < 1) {
    return InvalidArgumentError("affinity_chunk_tokens must be >= 1");
  }
  return Status::Ok();
}

ClusterRouter::ClusterRouter(std::vector<Replica*> replicas,
                             const RouterOptions& options)
    : replicas_(std::move(replicas)), options_(options) {
  HCHECK_MSG(!replicas_.empty(), "router needs at least one replica");
  for (const Replica* r : replicas_) {
    HCHECK(r != nullptr);
  }
  const Status valid = options.Validate();
  HCHECK_MSG(valid.ok(), valid.message().c_str());
}

bool ClusterRouter::Offer(const Request& request) {
  ++offered_;
  if (pending_.size() >= static_cast<size_t>(options_.max_pending)) {
    ++rejected_;
    return false;
  }
  pending_.push_back(request);
  return true;
}

bool ClusterRouter::HasSlack(size_t i) const {
  return replicas_[i]->load() < options_.max_replica_queue;
}

int ClusterRouter::PickRoundRobin() const {
  // Strict rotation: the next replica in turn takes the request or nobody
  // does (head-of-line waits for it to drain). Skipping a full replica
  // would silently degrade into least-loaded and muddy the baseline.
  const size_t i = rr_next_ % replicas_.size();
  return HasSlack(i) ? static_cast<int>(i) : -1;
}

int ClusterRouter::PickLeastLoaded() const {
  int best = -1;
  int best_load = 0;
  for (size_t i = 0; i < replicas_.size(); ++i) {
    if (!HasSlack(i)) {
      continue;
    }
    const int load = replicas_[i]->load();
    if (best < 0 || load < best_load) {
      best = static_cast<int>(i);
      best_load = load;
    }
  }
  return best;
}

int ClusterRouter::PickPrefixAffinity(const Request& request) const {
  // Live per-replica hit estimates over the shared trie key-space: tokens
  // the replica's prefix cache would serve right now. Probing is read-only
  // (no pin, no recency touch), so scoring N replicas perturbs nothing.
  std::vector<int64_t> estimate(replicas_.size(), 0);
  bool any = false;
  for (size_t i = 0; i < replicas_.size(); ++i) {
    if (!HasSlack(i)) {
      continue;
    }
    estimate[i] = replicas_[i]->ProbePrefixTokens(request.prompt_tokens);
    any = any || estimate[i] > 0;
  }
  if (!any) {
    // No replica holds any of this prompt — the sticky hint (if one exists)
    // is stale: its replica evicted the blocks under LRU pressure, and
    // pinning traffic there would just re-prefill on the busiest replica.
    // Degrade to least-loaded.
    return PickLeastLoaded();
  }
  // Sticky tie-breaks: among live hits, prefer the replica this session
  // (then this prompt family) was last dispatched to. Either hint is only
  // consulted when its replica's own live estimate is positive — a
  // confirmed hit, never a stale hint.
  int session_pick = -1;
  if (request.session_id >= 0) {
    const auto it = session_sticky_.find(request.session_id);
    if (it != session_sticky_.end() && HasSlack(it->second) &&
        estimate[it->second] > 0) {
      session_pick = static_cast<int>(it->second);
    }
  }
  int sticky_pick = -1;
  const std::vector<int32_t> key = StickyKey(request);
  if (!key.empty()) {
    const auto it = sticky_.find(key);
    if (it != sticky_.end() && HasSlack(it->second) &&
        estimate[it->second] > 0) {
      sticky_pick = static_cast<int>(it->second);
    }
  }
  // Lexicographic preference: longest estimate, then session-sticky, then
  // chunk-sticky, then least loaded, then lowest index (the loop order).
  int best = -1;
  for (size_t i = 0; i < replicas_.size(); ++i) {
    if (!HasSlack(i) || estimate[i] == 0) {
      continue;
    }
    if (best < 0) {
      best = static_cast<int>(i);
      continue;
    }
    if (estimate[i] != estimate[best]) {
      if (estimate[i] > estimate[best]) {
        best = static_cast<int>(i);
      }
      continue;
    }
    const bool i_session = static_cast<int>(i) == session_pick;
    const bool best_session = best == session_pick;
    if (i_session != best_session) {
      if (i_session) {
        best = static_cast<int>(i);
      }
      continue;
    }
    const bool i_sticky = static_cast<int>(i) == sticky_pick;
    const bool best_sticky = best == sticky_pick;
    if (i_sticky != best_sticky) {
      if (i_sticky) {
        best = static_cast<int>(i);
      }
      continue;
    }
    if (replicas_[i]->load() < replicas_[best]->load()) {
      best = static_cast<int>(i);
    }
  }
  return best;
}

int ClusterRouter::PickReplica(const Request& request) const {
  switch (options_.policy) {
    case RoutingPolicy::kRoundRobin:
      return PickRoundRobin();
    case RoutingPolicy::kLeastLoaded:
      return PickLeastLoaded();
    case RoutingPolicy::kPrefixAffinity:
      return PickPrefixAffinity(request);
  }
  HCHECK_MSG(false, "unknown routing policy");
  __builtin_unreachable();
}

std::vector<int32_t> ClusterRouter::StickyKey(const Request& request) const {
  const int64_t bt = options_.affinity_chunk_tokens;
  if (static_cast<int64_t>(request.prompt_tokens.size()) < bt) {
    return {};
  }
  return std::vector<int32_t>(request.prompt_tokens.begin(),
                              request.prompt_tokens.begin() + bt);
}

int ClusterRouter::DispatchReady() {
  int dispatched = 0;
  while (!pending_.empty()) {
    const Request& head = pending_.front();
    const int pick = PickReplica(head);
    if (pick < 0) {
      break;  // head-of-line waits; nothing may overtake it
    }
    replicas_[static_cast<size_t>(pick)]->Submit(head);
    if (options_.policy == RoutingPolicy::kPrefixAffinity) {
      // Only PickPrefixAffinity reads the sticky indices.
      const std::vector<int32_t> key = StickyKey(head);
      if (!key.empty()) {
        sticky_[key] = static_cast<size_t>(pick);
      }
      if (head.session_id >= 0) {
        session_sticky_[head.session_id] = static_cast<size_t>(pick);
      }
    } else if (options_.policy == RoutingPolicy::kRoundRobin) {
      ++rr_next_;
    }
    pending_.pop_front();
    ++dispatched;
  }
  return dispatched;
}

}  // namespace heterollm::serve
