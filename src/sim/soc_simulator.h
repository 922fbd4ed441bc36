// Discrete-event simulator for a heterogeneous mobile SoC.
//
// The simulator models a set of execution units (CPU, GPU, NPU) that each
// execute kernels serially from a FIFO queue, all contending for one shared
// memory system (`MemorySystem`). A kernel is described by a contention-free
// compute duration and a DRAM byte count; it finishes when both the compute
// phase and the memory stream complete (roofline semantics). Completion times
// therefore depend on which other units are streaming at the same moment —
// the effect the paper's decoding-phase partitioning exploits.
//
// Time advances lazily: `Submit` only enqueues; `WaitForKernel` /
// `WaitForUnitIdle` / `DrainAll` run the event loop forward just far enough
// to answer. The control-plane (engine) interleaves its own simulated CPU
// time with these waits, mirroring how the real runtime's host thread
// schedules GPU/NPU work.
//
// Dynamic conditions (off by default, bit-exact when off): an optional
// per-unit thermal model (`ThermalModel`) integrates dissipated power into a
// temperature and applies DVFS throttle steps, and an optional scripted
// `ConditionEvent` trace injects background-app bandwidth contention, forced
// clock caps and budget changes at fixed times. Each unit carries an
// *effective frequency factor* (thermal × forced cap) that the HAL cost
// models sample at submission time, and a monotonically increasing
// *device-state epoch* lets engines detect that cached plans / compiled
// schedules were built against stale device performance.
//
// Kernel state is split in two. Every issued handle owns a compact record in
// an append-only `KernelTimeline` (label id, unit, start, end, bytes, flops),
// which is all the trace exporter and the execution report read. Only pending
// and running kernels — plus finished ones behind an older unfinished handle —
// keep their scheduling state in a small live table, which is empty again
// after `DrainAll`. Labels are interned once into a simulator-owned table, so
// submitting a kernel does no string work.

#ifndef SRC_SIM_SOC_SIMULATOR_H_
#define SRC_SIM_SOC_SIMULATOR_H_

#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "src/common/status.h"
#include "src/common/types.h"
#include "src/sim/kernel_timeline.h"
#include "src/sim/memory_system.h"
#include "src/sim/power_model.h"
#include "src/sim/thermal_model.h"

namespace heterollm::sim {

inline constexpr KernelHandle kInvalidKernel = -1;

// Static description of an execution unit.
struct UnitSpec {
  std::string name;
  // Peak DRAM bandwidth this unit's memory pipeline can absorb, bytes/µs.
  double bandwidth_cap_bytes_per_us = 45e3;
  PowerRating power;
};

// One unit of work on a device queue.
struct KernelDesc {
  LabelId label = 0;  // from SocSimulator::InternLabel; 0 = unlabeled
  // Contention-free compute duration (already includes the device's
  // shape-dependent efficiency — computed by the HAL cost models).
  MicroSeconds compute_time = 0;
  // DRAM traffic streamed during execution.
  Bytes memory_bytes = 0;
  // Fixed device-side latency before compute/memory begin (launch, queue pop,
  // warp ramp-up, ...).
  MicroSeconds launch_overhead = 0;
  // Multiplier on the unit's active power while this kernel runs (DVFS
  // operating-point modelling; 1.0 = the unit's rated active power).
  double power_scale = 1.0;
  // Arithmetic work the kernel performs (the *executed* count — padded on
  // the NPU). Reporting only: per-op TFLOPS in the execution report.
  Flops flops = 0;
};

class SocSimulator {
 public:
  explicit SocSimulator(const MemoryConfig& mem_config);

  SocSimulator(const SocSimulator&) = delete;
  SocSimulator& operator=(const SocSimulator&) = delete;

  // Registers an execution unit; returns its id.
  UnitId AddUnit(const UnitSpec& spec);

  // Enqueues `desc` on `unit`, visible to the device no earlier than
  // `submit_time` (which must be >= the currently resolved time).
  KernelHandle Submit(UnitId unit, const KernelDesc& desc,
                      MicroSeconds submit_time);

  // Advances simulation until `k` finishes; returns its completion time.
  MicroSeconds WaitForKernel(KernelHandle k);

  // Advances until everything submitted to `unit` so far has finished.
  // Returns the time the unit went idle (== now() afterwards only if the
  // unit finished last).
  MicroSeconds WaitForUnitIdle(UnitId unit);

  // Advances until all queues are empty; returns the final time.
  MicroSeconds DrainAll();

  // Advances the clock to `t` with no kernel-completion goal: integrates
  // thermal cooling over idle gaps and applies scripted condition events
  // falling in (now, t]. Queued/running kernels still execute normally.
  // Returns the resolved time (>= t up to the event-loop epsilon).
  MicroSeconds AdvanceIdleTo(MicroSeconds t);

  // True once `k` has been resolved as finished.
  bool IsFinished(KernelHandle k) const;

  // Completion time of a finished kernel (HCHECKs that it is finished).
  MicroSeconds CompletionTime(KernelHandle k) const;

  // Start time of a started kernel (HCHECKs that it has started).
  MicroSeconds StartTime(KernelHandle k) const;

  // True if `unit` has a running kernel or a non-empty queue (at the
  // currently resolved time) — used to model the extra submission latency an
  // empty GPU queue incurs.
  bool UnitHasWork(UnitId unit) const;

  // Cumulative busy time of `unit` (only counts resolved kernels).
  MicroSeconds UnitBusyTime(UnitId unit) const;

  // --- kernel timeline -----------------------------------------------------

  // Handles issued so far are [0, kernel_count()), in submission order.
  KernelHandle kernel_count() const { return timeline_.size(); }

  // The timeline record of `k`. Label, unit, bytes and flops are set at
  // submission; `start` once it started, `end` once IsFinished(k).
  const KernelRecord& record(KernelHandle k) const;

  // Kernels whose scheduling state is still held (pending, running, or
  // finished behind an older unfinished handle); 0 after DrainAll.
  size_t live_kernel_count() const { return live_.size(); }

  // Returns the id of `label`, adding it on first use. Equal strings get
  // equal ids; ids are dense from 0 (the empty label).
  LabelId InternLabel(std::string_view label);

  // The string `id` was interned from; valid for the simulator's lifetime.
  const std::string& label_name(LabelId id) const;

  // Number of interned labels (ids are [0, label_count())).
  int label_count() const { return static_cast<int>(label_names_.size()); }

  // --- dynamic conditions --------------------------------------------------

  // Attaches a thermal/DVFS model (no-op config when `!config.enabled`).
  // Must be called before any kernel is submitted.
  void EnableThermal(const ThermalConfig& config);

  // Installs a scripted condition trace. Events are applied as simulated
  // time passes them; events at or before now() apply immediately (so a
  // trace installed at t=0 pre-conditions the platform).
  void SetConditionTrace(std::vector<ConditionEvent> events);

  // True when a thermal model or a condition trace is attached.
  bool dynamic_conditions() const {
    return thermal_ != nullptr || next_event_ < trace_.size();
  }

  // Effective frequency factor of `unit` (thermal throttle × forced cap);
  // exactly 1.0 when no dynamic condition has engaged.
  double UnitFrequencyFactor(UnitId unit) const;

  // Current die temperature of `unit` (°C); ambient when thermal is off.
  double UnitTemperature(UnitId unit) const;

  // Monotonic counter bumped whenever any unit's effective performance (or a
  // plan-relevant shared resource: bandwidth, power budget) changes.
  uint64_t device_state_epoch() const { return epoch_; }

  // The global epoch value at which `unit` last changed state (0 = never).
  uint64_t unit_state_epoch(UnitId unit) const;

  // Externally forced parallel-power budget from the condition trace, watts
  // (0 = none forced).
  double forced_power_budget_watts() const { return power_budget_watts_; }

  // Scripted scale on the serving scheduler's KV budget (1.0 = full).
  double kv_budget_scale() const { return kv_budget_scale_; }

  // Earliest not-yet-applied condition event time; +inf when none pending.
  MicroSeconds NextConditionEventTime() const;

  MicroSeconds now() const { return now_; }
  MemorySystem& memory() { return memory_; }
  const MemorySystem& memory() const { return memory_; }
  PowerMeter& power() { return power_; }
  const PowerMeter& power() const { return power_; }
  const ThermalModel* thermal() const { return thermal_.get(); }
  int unit_count() const { return static_cast<int>(units_.size()); }
  const UnitSpec& unit_spec(UnitId unit) const;

 private:
  enum class KernelState { kPending, kRunning, kFinished };

  // Scheduling state of a kernel that has not yet left the live table.
  struct LiveKernel {
    MicroSeconds submit_time = 0;
    MicroSeconds compute_time = 0;
    MicroSeconds launch_overhead = 0;
    double power_scale = 1.0;
    MicroSeconds compute_end = 0;  // valid once running
    // Open memory stream while running; -1 when the kernel moves no bytes
    // or its stream has completed.
    StreamId stream = -1;
    KernelState state = KernelState::kPending;
  };

  struct Unit {
    UnitSpec spec;
    std::deque<KernelHandle> queue;
    KernelHandle running = kInvalidKernel;
    int power_index = -1;
    MicroSeconds busy_time = 0;
    MicroSeconds last_completion = 0;
    // Dynamic-conditions state. Both factors are exactly 1.0 until a
    // throttle step / condition event engages.
    int thermal_index = -1;
    double thermal_factor = 1.0;
    double forced_cap = 1.0;
    uint64_t epoch = 0;  // global epoch at the unit's last state change
  };

  // Live-table entry of `k`, which must not have been released yet.
  LiveKernel& live(KernelHandle k);
  const LiveKernel& live(KernelHandle k) const;

  // Drops the finished prefix of the live table.
  void ReleaseFinishedKernels();

  // Moves queue heads whose submit time has arrived onto idle units.
  void StartEligibleKernels();

  // Runs the event loop until `done()` returns true. HCHECK-fails on
  // deadlock (no event can advance the predicate).
  void RunUntil(const std::function<bool()>& done);

  // Completes any running kernel whose compute and memory phases are both
  // done at the current time.
  void FinishCompletedKernels();

  // Integrates unit temperatures over [now_, now_ + dt] at the units'
  // current (piecewise-constant) dissipation.
  void IntegrateThermal(MicroSeconds dt);

  // Re-evaluates throttle factors after time advanced; bumps epochs on
  // change.
  void UpdateThrottleState();

  // Applies every trace event with time <= now_.
  void ApplyDueConditionEvents();
  void ApplyConditionEvent(const ConditionEvent& event);

  void BumpUnitEpoch(Unit& unit);

  MemorySystem memory_;
  PowerMeter power_;
  MicroSeconds now_ = 0;
  std::vector<Unit> units_;
  KernelTimeline timeline_;
  // Live kernels, handles [first_live_, first_live_ + live_.size()).
  std::deque<LiveKernel> live_;
  KernelHandle first_live_ = 0;
  // A deque keeps every name, and the views keying label_ids_, in place.
  std::deque<std::string> label_names_;
  std::map<std::string_view, LabelId> label_ids_;

  std::unique_ptr<ThermalModel> thermal_;
  std::vector<ConditionEvent> trace_;
  size_t next_event_ = 0;
  uint64_t epoch_ = 0;
  double power_budget_watts_ = 0;
  double kv_budget_scale_ = 1.0;
  // Target of an in-progress AdvanceIdleTo (NaN = none): lets RunUntil make
  // progress with empty queues without tripping the deadlock check.
  MicroSeconds idle_target_ = -1;
  bool idle_advancing_ = false;
};

}  // namespace heterollm::sim

#endif  // SRC_SIM_SOC_SIMULATOR_H_
