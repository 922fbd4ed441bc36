#include "src/serve/task_graph.h"

#include <algorithm>
#include <limits>
#include <tuple>
#include <unordered_map>

#include "src/common/status.h"

namespace heterollm::serve {
namespace {

constexpr MicroSeconds kNever = std::numeric_limits<MicroSeconds>::max();

}  // namespace

TaskGraph::TaskGraph(std::vector<workload::TaskSpec> tasks) {
  tasks_.reserve(tasks.size());
  int next_id = 0;
  for (auto& spec : tasks) {
    HCHECK_MSG(!spec.stages.empty(), "a task needs at least one stage");
    HCHECK(spec.arrival >= 0);
    TaskState state;
    state.stages.resize(spec.stages.size());
    for (size_t s = 0; s < spec.stages.size(); ++s) {
      for (int parent : spec.stages[s].depends_on) {
        HCHECK_MSG(parent >= 0 && static_cast<size_t>(parent) < s,
                   "stage dependencies must point at earlier stages");
      }
      state.stages[s].request_id = next_id;
      by_id_[next_id] = {tasks_.size(), s};
      ++next_id;
      ++total_stages_;
    }
    state.spec = std::move(spec);
    tasks_.push_back(std::move(state));
  }
}

MicroSeconds TaskGraph::ReleaseTime(const TaskState& task, size_t s) const {
  const workload::TaskStage& stage = task.spec.stages[s];
  MicroSeconds ready = task.spec.arrival;
  for (int parent : stage.depends_on) {
    const StageState& p = task.stages[static_cast<size_t>(parent)];
    if (!p.completed) { return kNever; }
    ready = std::max(ready, p.completed_at);
  }
  return ready + stage.pause_us;
}

std::vector<Request> TaskGraph::TakeReady(MicroSeconds now) {
  // (release, task index, stage index) of every stage releasable at `now`.
  std::vector<std::tuple<MicroSeconds, size_t, size_t>> ready;
  for (size_t t = 0; t < tasks_.size(); ++t) {
    const TaskState& task = tasks_[t];
    for (size_t s = 0; s < task.stages.size(); ++s) {
      if (task.stages[s].released) { continue; }
      const MicroSeconds release = ReleaseTime(task, s);
      if (release <= now) { ready.emplace_back(release, t, s); }
    }
  }
  std::sort(ready.begin(), ready.end());

  std::vector<Request> out;
  out.reserve(ready.size());
  for (const auto& [release, t, s] : ready) {
    TaskState& task = tasks_[t];
    StageState& state = task.stages[s];
    const workload::TaskStage& stage = task.spec.stages[s];
    // Clamp the emitted arrival monotone: a multi-replica co-simulation can
    // observe completions out of global time order, but Submit requires a
    // non-decreasing stream.
    const MicroSeconds arrival = std::max(release, last_emitted_);
    last_emitted_ = arrival;
    Request::StageSpec spec;
    spec.task_id = task.spec.task_id;
    spec.stage_id = static_cast<int>(s);
    spec.depends_on = stage.depends_on;
    spec.session_id = task.spec.session_id;
    spec.priority = task.completed_count;
    out.push_back(Request::Stage(state.request_id, arrival, stage.prompt_len,
                                 stage.decode_len, std::move(spec),
                                 stage.prompt_tokens));
    state.released = true;
    state.released_at = arrival;
    ++released_;
  }
  return out;
}

MicroSeconds TaskGraph::NextReleaseTime() const {
  MicroSeconds next = kNever;
  for (const TaskState& task : tasks_) {
    for (size_t s = 0; s < task.stages.size(); ++s) {
      if (task.stages[s].released) { continue; }
      next = std::min(next, ReleaseTime(task, s));
    }
  }
  return next;
}

void TaskGraph::OnCompleted(int request_id, MicroSeconds time) {
  auto it = by_id_.find(request_id);
  HCHECK_MSG(it != by_id_.end(), "completion for a request id this graph never issued");
  TaskState& task = tasks_[it->second.first];
  StageState& state = task.stages[it->second.second];
  HCHECK_MSG(state.released, "completion for a stage that was never released");
  HCHECK_MSG(!state.completed, "stage completed twice");
  state.completed = true;
  state.completed_at = time;
  ++task.completed_count;
  ++completed_;
}

std::vector<TaskMetrics> TaskGraph::BuildTaskMetrics(
    const std::vector<RequestMetrics>& requests) const {
  std::unordered_map<int, const RequestMetrics*> by_request;
  by_request.reserve(requests.size());
  for (const RequestMetrics& rm : requests) { by_request[rm.id] = &rm; }

  std::vector<TaskMetrics> out;
  out.reserve(tasks_.size());
  for (const TaskState& task : tasks_) {
    TaskMetrics tm;
    tm.task_id = task.spec.task_id;
    tm.session_id = task.spec.session_id;
    tm.arrival = task.spec.arrival;
    for (size_t s = 0; s < task.stages.size(); ++s) {
      const StageState& state = task.stages[s];
      StageMetrics sm;
      sm.request_id = state.request_id;
      sm.stage_id = static_cast<int>(s);
      sm.kind = workload::StageKindName(task.spec.stages[s].kind);
      sm.released = state.released_at;
      auto it = by_request.find(state.request_id);
      if (it != by_request.end()) {
        sm.admitted = it->second->admitted;
        sm.first_token = it->second->first_token;
        sm.completion = it->second->completion;
      }
      tm.completion = std::max(tm.completion, sm.completion);
      tm.stages.push_back(std::move(sm));
    }
    out.push_back(std::move(tm));
  }
  return out;
}

}  // namespace heterollm::serve
