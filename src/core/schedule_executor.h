// Replays a `graph::CompiledSchedule` against the simulated Platform.
//
// The executor is the mechanism half of the compile-and-replay split: the
// schedule already names every kernel, partition plan and static NPU graph,
// so replay is a flat walk over the steps through the engine's own
// SubmitKernel / EnsureVisible / EnsureHost machinery. It is the only way an
// engine runs the decoder stack. Session state the schedule cannot bake in
// (the committed KV length, per-slot serving caches) is read at replay
// time.

#ifndef SRC_CORE_SCHEDULE_EXECUTOR_H_
#define SRC_CORE_SCHEDULE_EXECUTOR_H_

#include "src/core/engine_base.h"

namespace heterollm::core {

class ScheduleExecutor {
 public:
  explicit ScheduleExecutor(EngineBase* engine) : e_(engine) {
    HCHECK(engine != nullptr);
  }

  // Replays `sched` on `batch` (validated, caches resolved); returns the
  // step's phase stats. A replay runs the NPU-graph checks only when the
  // graph cache has been cleared since `sched` last ran them; a replay that
  // runs them records the cache's generation in `sched`.
  PhaseStats Run(graph::CompiledSchedule& sched, const StepBatch& batch);

 private:
  using Value = EngineBase::Value;

  EngineBase* e_;
};

}  // namespace heterollm::core

#endif  // SRC_CORE_SCHEDULE_EXECUTOR_H_
