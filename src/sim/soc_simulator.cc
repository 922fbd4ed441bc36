#include "src/sim/soc_simulator.h"

#include <algorithm>
#include <cstdio>
#include <limits>
#include <utility>

namespace heterollm::sim {

namespace {
// Comparison slack and minimum forward step. Must stay above the double ULP
// at the largest simulated times (1e-6 µs covers clocks beyond an hour of
// simulated time), otherwise `now + epsilon == now` and the event loop
// cannot make progress.
constexpr double kTimeEpsilon = 1e-6;
}  // namespace

SocSimulator::SocSimulator(const MemoryConfig& mem_config)
    : memory_(mem_config) {
  InternLabel("");
}

LabelId SocSimulator::InternLabel(std::string_view label) {
  auto it = label_ids_.find(label);
  if (it != label_ids_.end()) {
    return it->second;
  }
  const LabelId id = static_cast<LabelId>(label_names_.size());
  label_ids_.emplace(label_names_.emplace_back(label), id);
  return id;
}

const std::string& SocSimulator::label_name(LabelId id) const {
  HCHECK(id >= 0 && id < label_count());
  return label_names_[static_cast<size_t>(id)];
}

UnitId SocSimulator::AddUnit(const UnitSpec& spec) {
  HCHECK(spec.bandwidth_cap_bytes_per_us > 0);
  Unit unit;
  unit.spec = spec;
  unit.power_index = power_.AddUnit(spec.name, spec.power);
  if (thermal_) {
    unit.thermal_index = thermal_->AddUnit(spec.name);
  }
  units_.push_back(std::move(unit));
  return static_cast<UnitId>(units_.size()) - 1;
}

const UnitSpec& SocSimulator::unit_spec(UnitId unit) const {
  HCHECK(unit >= 0 && unit < unit_count());
  return units_[static_cast<size_t>(unit)].spec;
}

void SocSimulator::EnableThermal(const ThermalConfig& config) {
  HCHECK_MSG(kernel_count() == 0,
             "EnableThermal must be called before any kernel is submitted");
  if (!config.enabled) {
    thermal_.reset();
    return;
  }
  thermal_ = std::make_unique<ThermalModel>(config);
  for (Unit& u : units_) {
    u.thermal_index = thermal_->AddUnit(u.spec.name);
  }
}

void SocSimulator::SetConditionTrace(std::vector<ConditionEvent> events) {
  std::stable_sort(events.begin(), events.end(),
                   [](const ConditionEvent& a, const ConditionEvent& b) {
                     return a.time < b.time;
                   });
  trace_ = std::move(events);
  next_event_ = 0;
  ApplyDueConditionEvents();
}

double SocSimulator::UnitFrequencyFactor(UnitId unit) const {
  HCHECK(unit >= 0 && unit < unit_count());
  const Unit& u = units_[static_cast<size_t>(unit)];
  return u.thermal_factor * u.forced_cap;
}

double SocSimulator::UnitTemperature(UnitId unit) const {
  HCHECK(unit >= 0 && unit < unit_count());
  const Unit& u = units_[static_cast<size_t>(unit)];
  if (thermal_ == nullptr || u.thermal_index < 0) {
    return 25.0;  // nominal ambient when the thermal model is off
  }
  return thermal_->Temperature(u.thermal_index);
}

uint64_t SocSimulator::unit_state_epoch(UnitId unit) const {
  HCHECK(unit >= 0 && unit < unit_count());
  return units_[static_cast<size_t>(unit)].epoch;
}

MicroSeconds SocSimulator::NextConditionEventTime() const {
  if (next_event_ >= trace_.size()) {
    return std::numeric_limits<MicroSeconds>::infinity();
  }
  return trace_[next_event_].time;
}

KernelHandle SocSimulator::Submit(UnitId unit, const KernelDesc& desc,
                                  MicroSeconds submit_time) {
  HCHECK(unit >= 0 && unit < unit_count());
  HCHECK_MSG(submit_time >= now_ - kTimeEpsilon,
             "kernel submitted in the resolved past");
  HCHECK(desc.compute_time >= 0 && desc.memory_bytes >= 0 &&
         desc.launch_overhead >= 0);
  HCHECK(desc.label >= 0 && desc.label < label_count());
  const KernelHandle handle = timeline_.Append(
      {desc.label, unit, 0, 0, desc.memory_bytes, desc.flops});
  LiveKernel k;
  k.submit_time = std::max(submit_time, now_);
  k.compute_time = desc.compute_time;
  k.launch_overhead = desc.launch_overhead;
  k.power_scale = desc.power_scale;
  live_.push_back(k);
  // The device executes commands in arrival-time order: a submission with an
  // earlier timestamp (e.g. the control plane enqueueing ahead of a
  // pre-scheduled frame) runs first, stable for equal times.
  auto& queue = units_[static_cast<size_t>(unit)].queue;
  auto pos = queue.end();
  while (pos != queue.begin() && live(*(pos - 1)).submit_time > k.submit_time) {
    --pos;
  }
  queue.insert(pos, handle);
  return handle;
}

SocSimulator::LiveKernel& SocSimulator::live(KernelHandle k) {
  HCHECK(k >= first_live_ && k < kernel_count());
  return live_[static_cast<size_t>(k - first_live_)];
}

const SocSimulator::LiveKernel& SocSimulator::live(KernelHandle k) const {
  HCHECK(k >= first_live_ && k < kernel_count());
  return live_[static_cast<size_t>(k - first_live_)];
}

void SocSimulator::ReleaseFinishedKernels() {
  while (!live_.empty() && live_.front().state == KernelState::kFinished) {
    live_.pop_front();
    ++first_live_;
  }
}

const KernelRecord& SocSimulator::record(KernelHandle k) const {
  HCHECK(k >= 0 && k < kernel_count());
  return timeline_[k];
}

bool SocSimulator::IsFinished(KernelHandle k) const {
  HCHECK(k >= 0 && k < kernel_count());
  return k < first_live_ || live(k).state == KernelState::kFinished;
}

MicroSeconds SocSimulator::CompletionTime(KernelHandle k) const {
  HCHECK_MSG(IsFinished(k), "kernel not finished");
  return timeline_[k].end;
}

MicroSeconds SocSimulator::StartTime(KernelHandle k) const {
  HCHECK_MSG(IsFinished(k) || live(k).state != KernelState::kPending,
             "kernel not started");
  return timeline_[k].start;
}

bool SocSimulator::UnitHasWork(UnitId unit) const {
  HCHECK(unit >= 0 && unit < unit_count());
  const Unit& u = units_[static_cast<size_t>(unit)];
  return u.running != kInvalidKernel || !u.queue.empty();
}

MicroSeconds SocSimulator::UnitBusyTime(UnitId unit) const {
  HCHECK(unit >= 0 && unit < unit_count());
  return units_[static_cast<size_t>(unit)].busy_time;
}

void SocSimulator::StartEligibleKernels() {
  for (auto& unit : units_) {
    while (unit.running == kInvalidKernel && !unit.queue.empty()) {
      KernelHandle head = unit.queue.front();
      LiveKernel& k = live(head);
      if (k.submit_time > now_ + kTimeEpsilon) {
        break;
      }
      unit.queue.pop_front();
      unit.running = head;
      k.state = KernelState::kRunning;
      KernelRecord& rec = timeline_[head];
      rec.start = now_;
      MicroSeconds work_begin = now_ + k.launch_overhead;
      k.compute_end = work_begin + k.compute_time;
      if (rec.bytes > 0) {
        // The stream opens immediately; the launch overhead is folded into
        // the compute deadline (negligible skew at µs scale, avoids a
        // two-phase kernel state machine).
        k.stream =
            memory_.OpenStream(unit.spec.bandwidth_cap_bytes_per_us, rec.bytes);
      }
    }
  }
}

void SocSimulator::FinishCompletedKernels() {
  for (auto& unit : units_) {
    if (unit.running == kInvalidKernel) {
      continue;
    }
    LiveKernel& k = live(unit.running);
    if (k.stream >= 0 && memory_.IsDone(k.stream)) {
      memory_.CloseStream(k.stream);
      k.stream = -1;
    }
    if (k.stream < 0 && k.compute_end <= now_ + kTimeEpsilon) {
      k.state = KernelState::kFinished;
      KernelRecord& rec = timeline_[unit.running];
      rec.end = now_;
      MicroSeconds busy = rec.end - rec.start;
      unit.busy_time += busy;
      unit.last_completion = rec.end;
      power_.AddActive(unit.power_index, busy * k.power_scale);
      unit.running = kInvalidKernel;
    }
  }
  ReleaseFinishedKernels();
}

void SocSimulator::IntegrateThermal(MicroSeconds dt) {
  if (thermal_ == nullptr || dt <= 0) {
    return;
  }
  // A unit's dissipation is constant between event-loop steps (one kernel
  // runs at a time), so the exact RC update over `dt` loses nothing.
  for (const Unit& u : units_) {
    const PowerRating& rating = power_.rating(u.power_index);
    double watts = rating.idle_watts;
    if (u.running != kInvalidKernel) {
      watts = rating.active_watts * live(u.running).power_scale;
    }
    thermal_->Integrate(u.thermal_index, watts, dt);
  }
}

void SocSimulator::UpdateThrottleState() {
  if (thermal_ == nullptr) {
    return;
  }
  for (Unit& u : units_) {
    const double factor = thermal_->UpdateFrequencyFactor(u.thermal_index);
    if (factor != u.thermal_factor) {
      u.thermal_factor = factor;
      BumpUnitEpoch(u);
    }
  }
}

void SocSimulator::ApplyDueConditionEvents() {
  while (next_event_ < trace_.size() &&
         trace_[next_event_].time <= now_ + kTimeEpsilon) {
    ApplyConditionEvent(trace_[next_event_]);
    ++next_event_;
  }
}

void SocSimulator::ApplyConditionEvent(const ConditionEvent& event) {
  if (event.frequency_cap >= 0) {
    HCHECK_MSG(event.frequency_cap > 0 && event.frequency_cap <= 1.0,
               "forced frequency cap must lie in (0, 1]");
    bool matched = false;
    for (Unit& u : units_) {
      if (!event.unit.empty() && u.spec.name != event.unit) {
        continue;
      }
      matched = true;
      if (u.forced_cap != event.frequency_cap) {
        u.forced_cap = event.frequency_cap;
        BumpUnitEpoch(u);
      }
    }
    HCHECK_MSG(matched, "condition event names an unknown unit");
  }
  if (event.background_bandwidth_bytes_per_us >= 0 &&
      memory_.background_traffic() != event.background_bandwidth_bytes_per_us) {
    memory_.SetBackgroundTraffic(event.background_bandwidth_bytes_per_us);
    // Shared-resource change: every unit's achievable bandwidth (and thus
    // every cached plan) is stale.
    for (Unit& u : units_) {
      BumpUnitEpoch(u);
    }
  }
  if (event.kv_budget_scale >= 0) {
    HCHECK_MSG(event.kv_budget_scale > 0 && event.kv_budget_scale <= 1.0,
               "kv budget scale must lie in (0, 1]");
    // Polled by the serving scheduler every iteration; no plan depends on
    // it, so no epoch bump.
    kv_budget_scale_ = event.kv_budget_scale;
  }
  if (event.power_budget_watts >= 0 &&
      power_budget_watts_ != event.power_budget_watts) {
    power_budget_watts_ = event.power_budget_watts;
    // The solver prunes parallel candidates against this budget: cached
    // cut decisions are stale on every unit.
    for (Unit& u : units_) {
      BumpUnitEpoch(u);
    }
  }
}

void SocSimulator::BumpUnitEpoch(Unit& unit) {
  ++epoch_;
  unit.epoch = epoch_;
}

void SocSimulator::RunUntil(const std::function<bool()>& done) {
  // Bound the loop to catch scheduling bugs; real workloads stay far below.
  for (int64_t iterations = 0; iterations < (1 << 26); ++iterations) {
    StartEligibleKernels();
    FinishCompletedKernels();
    StartEligibleKernels();
    if (done()) {
      return;
    }

    MicroSeconds next = std::numeric_limits<MicroSeconds>::infinity();
    for (const auto& unit : units_) {
      if (unit.running != kInvalidKernel) {
        const LiveKernel& k = live(unit.running);
        MicroSeconds est = k.compute_end;
        if (k.stream >= 0) {
          est = std::max(est, memory_.EstimateCompletion(k.stream));
        }
        next = std::min(next, est);
      } else if (!unit.queue.empty()) {
        next = std::min(next, live(unit.queue.front()).submit_time);
      }
    }
    // An idle advance supplies its own target, so empty queues are not a
    // deadlock while one is in progress.
    if (idle_advancing_) {
      next = std::min(next, std::max(idle_target_, now_ + kTimeEpsilon));
    }
    HCHECK_MSG(next != std::numeric_limits<MicroSeconds>::infinity(),
               "simulator deadlock: wait cannot be satisfied by queued work");
    // Never step past a pending scripted condition event: it may change
    // throttle factors / bandwidth mid-interval.
    if (next_event_ < trace_.size()) {
      next = std::min(
          next, std::max(trace_[next_event_].time, now_ + kTimeEpsilon));
    }
    // Guarantee forward progress even when the next event is "now".
    next = std::max(next, now_ + kTimeEpsilon);
    IntegrateThermal(next - now_);
    memory_.AdvanceTo(next);
    now_ = next;
    ApplyDueConditionEvents();
    UpdateThrottleState();
  }
  for (const auto& unit : units_) {
    if (unit.running != kInvalidKernel) {
      const LiveKernel& k = live(unit.running);
      std::fprintf(stderr,
                   "stuck unit=%s kernel=%s compute_end=%.9f stream_done=%d "
                   "now=%.9f\n",
                   unit.spec.name.c_str(),
                   label_name(timeline_[unit.running].label).c_str(),
                   k.compute_end, k.stream < 0 ? 1 : 0, now_);
      if (k.stream >= 0) {
        std::fprintf(stderr, "  stream est=%.9f rate=%.6f\n",
                     memory_.EstimateCompletion(k.stream),
                     memory_.AllocatedRate(k.stream));
      }
    }
  }
  HCHECK_MSG(false, "simulator exceeded event budget (livelock?)");
}

MicroSeconds SocSimulator::WaitForKernel(KernelHandle k) {
  RunUntil([&] { return IsFinished(k); });
  return CompletionTime(k);
}

MicroSeconds SocSimulator::WaitForUnitIdle(UnitId unit) {
  HCHECK(unit >= 0 && unit < unit_count());
  Unit& u = units_[static_cast<size_t>(unit)];
  RunUntil([&] { return u.running == kInvalidKernel && u.queue.empty(); });
  return u.last_completion;
}

MicroSeconds SocSimulator::DrainAll() {
  RunUntil([&] {
    for (const auto& unit : units_) {
      if (unit.running != kInvalidKernel || !unit.queue.empty()) {
        return false;
      }
    }
    return true;
  });
  return now_;
}

MicroSeconds SocSimulator::AdvanceIdleTo(MicroSeconds t) {
  if (t <= now_ + kTimeEpsilon) {
    return now_;
  }
  idle_target_ = t;
  idle_advancing_ = true;
  RunUntil([&] { return now_ + kTimeEpsilon >= t; });
  idle_advancing_ = false;
  return now_;
}

}  // namespace heterollm::sim
