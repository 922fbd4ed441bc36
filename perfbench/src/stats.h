// The benchmark's own arithmetic: percentiles, per-slice host-time minima,
// SLO scoring, the rate-ladder search, the simulated-timeline digest, the
// backlog guard and span self-time. Header-only and free of HeteroLLM types so the unit tests in
// perfbench/tests/ can pin every rule without building a workload.

#ifndef PERFBENCH_SRC_STATS_H_
#define PERFBENCH_SRC_STATS_H_

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <utility>
#include <vector>

namespace perfbench {

// Samples a reported percentile must have strictly above its rank.
inline constexpr size_t kMinSamplesBeyond = 10;

// 1-based nearest rank of percentile `p` (in (0, 100]) over `n` samples:
// the smallest rank whose sample has at least p% of the set at or below it.
inline size_t NearestRank(size_t n, double p) {
  const double rank = std::ceil(p / 100.0 * static_cast<double>(n));
  return std::clamp<size_t>(static_cast<size_t>(rank), 1, n);
}

// Nearest-rank percentile; 0 for an empty set.
inline double Percentile(std::vector<double> values, double p) {
  if (values.empty()) {
    return 0;
  }
  std::sort(values.begin(), values.end());
  return values[NearestRank(values.size(), p) - 1];
}

// True when the p-th percentile of `n` samples has at least ten samples
// beyond it — the condition for reporting it as a tail at all.
inline bool HasTail(size_t n, double p) {
  return n > 0 && n - NearestRank(n, p) >= kMinSamplesBeyond;
}

// Median of repeated host-time samples (mean of the middle two for an even
// count); 0 for an empty set.
inline double Median(std::vector<double> values) {
  if (values.empty()) {
    return 0;
  }
  std::sort(values.begin(), values.end());
  const size_t mid = values.size() / 2;
  return values.size() % 2 == 1 ? values[mid]
                                : 0.5 * (values[mid - 1] + values[mid]);
}

// Per-slice minimum over repeated passes: `passes[p][i]` is the host time
// of slice i in pass p, where slice i does the same work in every pass.
// Other processes can only add time to a slice, so its minimum is its cost
// with the least interference, and a pass needs only some clean slices,
// not a clean whole, to contribute. Empty when there are no passes or they
// disagree on the slice count.
inline std::vector<double> SliceMinima(
    const std::vector<std::vector<double>>& passes) {
  if (passes.empty()) {
    return {};
  }
  std::vector<double> minima = passes.front();
  for (const std::vector<double>& pass : passes) {
    if (pass.size() != minima.size()) {
      return {};
    }
    for (size_t i = 0; i < pass.size(); ++i) {
      minima[i] = std::min(minima[i], pass[i]);
    }
  }
  return minima;
}

// One offered request or task stage on the simulated clock (µs). A request
// that never completed keeps completion == 0.
struct RequestTimes {
  int64_t id = 0;
  double arrival = 0;
  double first_token = 0;
  double completion = 0;
  int decoded_tokens = 0;

  bool completed() const { return completion > 0; }
  double ttft() const { return first_token - arrival; }
  // Mean gap between emitted tokens after the first; defined only with two
  // or more decoded tokens.
  double tpot() const {
    return (completion - first_token) / (decoded_tokens - 1);
  }
  bool has_tpot() const { return decoded_tokens >= 2; }
};

inline std::vector<double> TtftSamples(const std::vector<RequestTimes>& rs) {
  std::vector<double> out;
  for (const RequestTimes& r : rs) {
    if (r.completed()) {
      out.push_back(r.ttft());
    }
  }
  return out;
}

// TPOT only over completed requests with >= 2 decoded tokens; the rest
// (embed/rerank stages, single-token replies) are left out, not counted
// as 0.
inline std::vector<double> TpotSamples(const std::vector<RequestTimes>& rs) {
  std::vector<double> out;
  for (const RequestTimes& r : rs) {
    if (r.completed() && r.has_tpot()) {
      out.push_back(r.tpot());
    }
  }
  return out;
}

// Latency limits a request must meet, and the share of offered requests
// that must meet them for a rate to count as sustained.
struct Slo {
  double ttft_us = 0;
  double tpot_us = 0;
  double share = 0.9;

  // A request without a TPOT (fewer than two decoded tokens) is judged on
  // TTFT alone; an incomplete request misses.
  bool Meets(const RequestTimes& r) const {
    return r.completed() && r.ttft() <= ttft_us &&
           (!r.has_tpot() || r.tpot() <= tpot_us);
  }
};

// Share of `offered` requests that completed within both limits. Requests
// missing from `served` (rejected by admission, failed) count as misses.
inline double AttainedShare(const Slo& slo,
                            const std::vector<RequestTimes>& served,
                            int64_t offered) {
  if (offered <= 0) {
    return 0;
  }
  int64_t met = 0;
  for (const RequestTimes& r : served) {
    met += slo.Meets(r) ? 1 : 0;
  }
  return static_cast<double>(met) / static_cast<double>(offered);
}

// Highest rung of an ascending rate ladder whose attained share reaches
// `share`, by binary search (attainment is taken as non-increasing in the
// rate). `attained(i)` simulates rung i and returns its share. Returns -1
// when even the lowest rung fails.
template <typename Attained>
int LadderSearch(size_t rungs, double share, Attained attained) {
  int lo = -1;  // highest rung known to pass
  int hi = static_cast<int>(rungs);  // lowest rung known to fail
  while (hi - lo > 1) {
    const int mid = lo + (hi - lo) / 2;
    if (attained(static_cast<size_t>(mid)) >= share) {
      lo = mid;
    } else {
      hi = mid;
    }
  }
  return lo;
}

// FNV-1a over the exact bit patterns of every request's (id, arrival,
// first_token, completion), in the given order. Two runs with the same
// simulated timeline print the same digest; any shifted timestamp changes
// it.
inline uint64_t SimDigest(const std::vector<RequestTimes>& rs) {
  uint64_t h = 1469598103934665603ULL;
  const auto mix = [&h](const void* p, size_t n) {
    const unsigned char* bytes = static_cast<const unsigned char*>(p);
    for (size_t i = 0; i < n; ++i) {
      h = (h ^ bytes[i]) * 1099511628211ULL;
    }
  };
  for (const RequestTimes& r : rs) {
    mix(&r.id, sizeof r.id);
    mix(&r.arrival, sizeof r.arrival);
    mix(&r.first_token, sizeof r.first_token);
    mix(&r.completion, sizeof r.completion);
  }
  return h;
}

// Backlog guard: TTFT p50 over the first and the last quarter of arrivals.
// Below capacity the two stay comparable; a queue that grows over the run
// shows as a last quarter far slower than the first.
struct Backlog {
  double first_quarter_p50_us = 0;
  double last_quarter_p50_us = 0;
  bool growing = false;
};

// The last quarter may be at most `factor` times the first plus `slack_us`
// before the run is flagged. `rs` must be in arrival order.
inline Backlog BacklogOf(const std::vector<RequestTimes>& rs, double factor,
                         double slack_us) {
  Backlog b;
  const size_t q = rs.size() / 4;
  if (q == 0) {
    return b;
  }
  const std::vector<RequestTimes> head(rs.begin(), rs.begin() + q);
  const std::vector<RequestTimes> tail(rs.end() - q, rs.end());
  b.first_quarter_p50_us = Percentile(TtftSamples(head), 50);
  b.last_quarter_p50_us = Percentile(TtftSamples(tail), 50);
  b.growing = b.last_quarter_p50_us > factor * b.first_quarter_p50_us + slack_us;
  return b;
}

// One host-clock span recorded around a call into a layer. `parent` is the
// index of the enclosing span, -1 at top level.
struct Span {
  const char* name = "";
  double start_us = 0;
  double end_us = 0;
  int parent = -1;

  double duration() const { return end_us - start_us; }
};

// Self time of every span: its duration minus the part of its interval
// that its direct children cover (overlapping children counted once,
// children clipped to the parent).
inline std::vector<double> SelfTimes(const std::vector<Span>& spans) {
  std::vector<std::vector<std::pair<double, double>>> children(spans.size());
  for (const Span& s : spans) {
    if (s.parent >= 0) {
      children[static_cast<size_t>(s.parent)].emplace_back(s.start_us,
                                                           s.end_us);
    }
  }
  std::vector<double> self(spans.size());
  for (size_t i = 0; i < spans.size(); ++i) {
    std::vector<std::pair<double, double>>& iv = children[i];
    std::sort(iv.begin(), iv.end());
    double covered = 0;
    double reach = spans[i].start_us;
    for (const auto& [start, end] : iv) {
      const double lo = std::max(start, reach);
      const double hi = std::min(end, spans[i].end_us);
      if (hi > lo) {
        covered += hi - lo;
        reach = hi;
      }
    }
    self[i] = spans[i].duration() - covered;
  }
  return self;
}

}  // namespace perfbench

#endif  // PERFBENCH_SRC_STATS_H_
