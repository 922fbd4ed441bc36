// The benchmark's workloads behind one interface.
//
// Each workload generates its inputs from a seed and hands the program
// only those inputs: `Setup` runs the workload generator and builds the
// system (weights, Replica/Cluster or engine), `Run` serves the inputs and
// returns what happened on the simulated clock plus the output checks.
// The caller times both on the host clock.

#ifndef PERFBENCH_SRC_WORKLOADS_H_
#define PERFBENCH_SRC_WORKLOADS_H_

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "src/stats.h"
#include "src/trace.h"

namespace perfbench {

// Rates and latency limits of a workload.
struct RateSpec {
  // Open loop: the simulated serving stack under a fixed arrival trace,
  // with latencies on the simulated clock; `nominal` is its arrival rate
  // (requests/s, tasks/s for the fleet) and `ladder` the ascending rates
  // searched for the SLO rate. Closed loop: real computation, with
  // latencies on the host clock and no ladder; its SLO rate is the rate it
  // completes requests within the limits.
  // Open loops are single-threaded simulations and take host time as
  // process CPU time; the closed loop runs kernel threads and takes it on
  // the steady (wall) clock.
  bool open_loop = true;
  double nominal = 0;
  std::vector<double> ladder;
  Slo slo;
};

struct PassOutcome {
  // Every offered request or stage, in arrival order; one that never
  // completed keeps completion == 0.
  std::vector<RequestTimes> requests;
  // End-to-end latency of every task (a flat request is a one-stage task).
  std::vector<double> task_latency_us;
  int64_t offered = 0;  // requests (stages for the fleet) offered
  // Output-check failures, with the first few reasons.
  int64_t failed = 0;
  std::vector<std::string> failures;
  double tokens = 0;     // prompt + decoded tokens processed
  // Host seconds of consecutive pieces of the pass that do the same work on
  // every pass (scheduling rounds, engine steps), on the workload's host
  // clock; empty when the pass is one piece. The runner takes each piece's
  // minimum over the passes.
  std::vector<double> slice_s;
  double energy_uj = 0;  // simulated SoC energy over the window
  // Per-layer counters (the traced run's report).
  std::map<std::string, double> layer;

  // An offered request or stage that failed its checks.
  void Fail(std::string why) {
    ++failed;
    Flag(std::move(why));
  }
  // A failed check of the pass as a whole, not of one request.
  void Flag(std::string why) {
    if (failures.size() < 5) {
      failures.push_back(std::move(why));
    }
  }
};

class Workload {
 public:
  virtual ~Workload() = default;

  // Frees the system and inputs of the previous `Setup`, outside the
  // timed region.
  virtual void Release() = 0;
  // Generates the inputs from `seed` and builds the system. Timed as
  // set-up; everything before the first submit belongs here.
  virtual void Setup(uint64_t seed, Tracer* tracer) = 0;
  // Untimed preparation between `Setup` and the first `Run` (first-use
  // caches of a real-compute engine); neither set-up nor pass.
  virtual void WarmUp() {}
  // True when `Run` may be called again on the same system and serves the
  // same inputs the same way. Otherwise every pass follows a fresh `Setup`.
  virtual bool Rerunnable() const { return false; }
  // Serves the inputs with the nominal arrival rate multiplied by
  // `rate_scale`. The nominal pass (rate_scale 1) is the timed one.
  virtual PassOutcome Run(double rate_scale, Tracer* tracer) = 0;
  // Output checks that sit outside the timed region (the compute
  // workload's reference path); run once, after the timed passes.
  virtual void CheckOutside(PassOutcome* /*outcome*/) {}

  virtual const RateSpec& rates() const = 0;
};

// "chat_serve", "agentic_fleet" or "compute_generate"; null for an unknown
// name.
std::unique_ptr<Workload> MakeWorkload(const std::string& name);

}  // namespace perfbench

#endif  // PERFBENCH_SRC_WORKLOADS_H_
