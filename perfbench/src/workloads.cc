#include "src/workloads.h"

#include <algorithm>
#include <cmath>
#include <map>
#include <set>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "src/common/rng.h"
#include "src/common/strings.h"
#include "src/core/engine_registry.h"
#include "src/core/execution_report.h"
#include "src/model/kv_cache.h"
#include "src/model/weights.h"
#include "src/serve/cluster/cluster.h"
#include "src/serve/replica.h"
#include "src/serve/task_graph.h"
#include "src/sim/soc_spec.h"
#include "src/sim/thermal_model.h"
#include "src/tensor/tensor.h"
#include "src/workload/task_trace.h"

namespace perfbench {
namespace {

using heterollm::MicroSeconds;
using heterollm::Rng;
using heterollm::StrFormat;
using heterollm::core::EngineBase;
using heterollm::core::Platform;
using heterollm::model::ExecutionMode;
using heterollm::model::KvCache;
using heterollm::model::ModelConfig;
using heterollm::model::ModelWeights;
using heterollm::serve::Replica;
using heterollm::serve::ReplicaOptions;
using heterollm::serve::Request;
using heterollm::serve::ServingMetrics;
using heterollm::tensor::Shape;
using heterollm::tensor::Tensor;

constexpr const char* kEngine = "Hetero-tensor";
constexpr const char* kUnits[] = {"cpu", "gpu", "npu"};

std::vector<int32_t> UniqueTokens(Rng& rng, int n, int64_t vocab) {
  std::vector<int32_t> tokens(static_cast<size_t>(n));
  for (int32_t& t : tokens) {
    t = static_cast<int32_t>(rng.NextBelow(static_cast<uint64_t>(vocab)));
  }
  return tokens;
}

// Per-layer counters of one serving window, accumulated across replicas
// (the fleet calls this once per replica). Ratios are rebuilt from the
// summed numerators and denominators by `FinishServingCounters`.
void AddServingCounters(const ServingMetrics& m, Replica& replica,
                        const heterollm::sim::PowerSnapshot& power_start,
                        std::map<std::string, double>* layer) {
  std::map<std::string, double>& c = *layer;
  const auto& opts = replica.options().scheduler;
  const double block_bytes = KvCache::BytesForTokens(
      replica.engine().model_config(), opts.kv_block_tokens);
  c["sched.decode_iterations"] += m.decode_iterations;
  c["sched.batched_rows"] += m.avg_decode_batch * m.decode_iterations;
  c["sched.hybrid_iterations"] += m.hybrid_iterations;
  c["sched.prefill_chunks"] += m.prefill_chunks;
  c["sched.evictions"] += m.evictions;
  c["sched.peak_active_sessions"] =
      std::max(c["sched.peak_active_sessions"],
               static_cast<double>(m.peak_active_sessions));
  c["kv.blocks_peak"] += static_cast<double>(m.kv_blocks_peak);
  c["kv.blocks_usable"] +=
      static_cast<double>(static_cast<int64_t>(opts.kv_budget_bytes /
                                               block_bytes));
  c["kv.chunk_resumed_tokens"] += static_cast<double>(m.chunk_resumed_tokens);
  c["prefix.hit_tokens"] += static_cast<double>(m.prefix_hit_tokens);
  c["prefix.prefilled_tokens"] += static_cast<double>(m.prefilled_tokens);
  c["prefix.blocks_evicted"] += static_cast<double>(m.blocks_evicted);
  c["spec.draft_tokens"] += static_cast<double>(m.total_draft_tokens());
  c["spec.accepted_tokens"] += static_cast<double>(m.total_accepted_tokens());
  c["engine.schedule_compiles"] += replica.engine().schedule_compiles();
  c["engine.replan_events"] += m.replan_events;

  Platform& platform = replica.platform();
  c["hal.npu_graphs"] += platform.graph_cache().size();
  c["hal.npu_graph_gen_ms"] +=
      platform.graph_cache().total_generation_time() / 1e3;
  c["hal.sync_waits"] += static_cast<double>(platform.sync().wait_count());
  c["hal.sync_overhead_ms"] += platform.sync().total_sync_overhead() / 1e3;
  c["hal.map_ops"] +=
      static_cast<double>(platform.pool().total_map_operations());

  for (const auto& row : m.report.units) {
    c["sim.kernels"] += row.kernels;
    c["sim.dram_gb"] += row.bytes / 1e9;
    c["sim." + row.unit + ".busy_sum"] += row.utilization;
  }
  const heterollm::sim::PowerMeter& power = platform.soc().power();
  for (int u = 0; u < power.unit_count(); ++u) {
    c["sim." + power.unit_name(u) + ".energy_mj"] +=
        power.UnitEnergySince(power_start, u, m.makespan()) / 1e3;
  }
  c["sim.replicas"] += 1;
}

void FinishServingCounters(std::map<std::string, double>* layer) {
  std::map<std::string, double>& c = *layer;
  const auto ratio = [](double num, double den) {
    return den > 0 ? num / den : 0.0;
  };
  c["sched.avg_decode_batch"] =
      ratio(c["sched.batched_rows"], c["sched.decode_iterations"]);
  c["kv.blocks_peak_frac"] = ratio(c["kv.blocks_peak"], c["kv.blocks_usable"]);
  c["prefix.hit_rate"] =
      ratio(c["prefix.hit_tokens"], c["prefix.prefilled_tokens"]);
  c["spec.acceptance_rate"] =
      ratio(c["spec.accepted_tokens"], c["spec.draft_tokens"]);
  for (const char* unit : kUnits) {
    const std::string u = unit;
    c["sim." + u + ".busy_frac"] =
        ratio(c["sim." + u + ".busy_sum"], c["sim.replicas"]);
  }
}

// Joins a window's request rows with the offered requests: completed
// exactly once, the whole prompt prefilled, the decode budget emitted.
void CheckRequests(const std::vector<Request>& offered,
                   const std::vector<heterollm::serve::RequestMetrics>& rows,
                   const std::map<int, int>& completions, PassOutcome* out) {
  std::map<int, const heterollm::serve::RequestMetrics*> by_id;
  for (const auto& row : rows) {
    if (!by_id.emplace(row.id, &row).second) {
      out->Fail(StrFormat("request %d reported twice", row.id));
    }
  }
  for (const Request& r : offered) {
    RequestTimes t;
    t.id = r.id;
    t.arrival = r.arrival;
    const auto row = by_id.find(r.id);
    const auto done = completions.find(r.id);
    const int times = done == completions.end() ? 0 : done->second;
    if (row == by_id.end() || times != 1) {
      out->Fail(StrFormat("request %d completed %d times", r.id, times));
    } else if (row->second->prompt_tokens != r.prompt_len ||
               row->second->decoded_tokens != r.decode_len) {
      out->Fail(StrFormat("request %d: prefilled %d/%d, decoded %d/%d", r.id,
                          row->second->prompt_tokens, r.prompt_len,
                          row->second->decoded_tokens, r.decode_len));
    } else {
      t.first_token = row->second->first_token;
      t.completion = row->second->completion;
      t.decoded_tokens = row->second->decoded_tokens;
      out->tokens += row->second->prompt_tokens + row->second->decoded_tokens;
    }
    out->requests.push_back(t);
  }
}

// `n` uniforms in [0, 1), one drawn from each stratum [i/n, (i+1)/n), in
// seeded random order. Traces draw lengths and gaps through it so that a
// trace of a few hundred requests matches its target distributions on
// every seed: seeds change which request gets which length and when it
// arrives, not the total work, which would otherwise move every percentile
// by several percent from seed to seed.
std::vector<double> StratifiedUnits(Rng& rng, int n) {
  std::vector<double> u(static_cast<size_t>(n));
  for (int i = 0; i < n; ++i) {
    u[static_cast<size_t>(i)] = (i + rng.NextUnit()) / n;
  }
  for (int i = n - 1; i > 0; --i) {
    std::swap(u[static_cast<size_t>(i)],
              u[rng.NextBelow(static_cast<uint64_t>(i) + 1)]);
  }
  return u;
}

// Open-loop arrival times: exponential gaps of mean `mean_gap_us` (a
// Poisson process), drawn stratified.
std::vector<MicroSeconds> PoissonArrivals(Rng& rng, int n,
                                          MicroSeconds mean_gap_us) {
  std::vector<MicroSeconds> arrivals;
  MicroSeconds t = 0;
  for (double u : StratifiedUnits(rng, n)) {
    t += -mean_gap_us * std::log(1.0 - u);
    arrivals.push_back(t);
  }
  return arrivals;
}

// Open-loop arrival times with gamma-distributed gaps of mean
// `mean_gap_us` and shape `burstiness` (an integer; each gap is the sum of
// that many exponentials, each drawn stratified). Shape 1 is a Poisson
// process; larger shapes space arrivals more evenly (coefficient of
// variation 1/sqrt(burstiness)), the `--burstiness` knob of vLLM's serving
// benchmark.
std::vector<MicroSeconds> GammaArrivals(Rng& rng, int n,
                                        MicroSeconds mean_gap_us,
                                        int burstiness) {
  std::vector<MicroSeconds> arrivals(static_cast<size_t>(n), 0);
  for (int k = 0; k < burstiness; ++k) {
    const std::vector<MicroSeconds> part =
        PoissonArrivals(rng, n, mean_gap_us / burstiness);
    for (size_t i = 0; i < arrivals.size(); ++i) {
      arrivals[i] += part[i];
    }
  }
  return arrivals;
}

int UniformInt(double u, int lo, int hi) {
  return lo + static_cast<int>(u * (hi - lo + 1));
}

int LogUniformInt(double u, int lo, int hi) {
  return static_cast<int>(std::lround(
      std::exp(std::log(lo) + u * (std::log(hi) - std::log(lo)))));
}

constexpr int kChatRequests = 200;

// 24 ascending rates from `lowest`, 8% apart (a 5.9x span, which reaches
// well above every measured knee); a binary search simulates five of them.
std::vector<double> GeometricLadder(double lowest) {
  std::vector<double> rates;
  for (int i = 0; i < 24; ++i) {
    rates.push_back(lowest * std::pow(1.08, i));
  }
  return rates;
}

// ---------------------------------------------------------------------------
// chat_serve: open-loop Poisson chat on InternLM-1.8B with speculative
// decoding, on one Replica driven round by round. The decode-dominated
// case, and the bypass case for the prefix cache and the router.

class ChatServe : public Workload {
 public:
  ChatServe() {
    options_.name = "8gen3";
    options_.platform = heterollm::core::PlatformOptionsFor(kEngine);
    options_.engine = kEngine;
    options_.scheduler.iteration =
        heterollm::serve::IterationPolicy::kHybridChunked;
    options_.scheduler.speculative_window = 4;
    rates_.nominal = 0.5;
    rates_.ladder = GeometricLadder(0.8);
    rates_.slo = {1000e3, 60e3, 0.5};
  }

  void Release() override {
    replica_.reset();
    weights_.reset();
  }

  void Setup(uint64_t seed, Tracer* tracer) override {
    {
      ScopedSpan span(tracer, "model.weights_create");
      weights_ = std::make_unique<ModelWeights>(
          ModelWeights::Create(model_, ExecutionMode::kSimulate));
    }
    {
      ScopedSpan span(tracer, "workload.trace_gen");
      requests_ = Generate(seed);
    }
    ScopedSpan span(tracer, "serve.replica_create");
    auto replica = Replica::Create(options_, weights_.get());
    HCHECK_MSG(replica.ok(), replica.status().ToString());
    replica_ = std::move(*replica);
  }

  PassOutcome Run(double rate_scale, Tracer* tracer) override {
    PassOutcome out;
    std::vector<Request> offered = requests_;
    for (Request& r : offered) {
      r.arrival /= rate_scale;
    }
    Replica& replica = *replica_;
    std::map<int, int> completions;
    replica.BeginWindow();
    const auto power_start = replica.platform().soc().power().Snapshot();
    {
      ScopedSpan span(tracer, "sched.submit");
      for (const Request& r : offered) {
        replica.Submit(r);
      }
    }
    int64_t rounds = 0;
    double mark = HostCpuSeconds();
    for (;;) {
      {
        ScopedSpan span(tracer, "sched.round");
        if (!replica.StepRound()) {
          break;
        }
      }
      ++rounds;
      for (const auto& done : replica.DrainCompletions()) {
        ++completions[done.id];
      }
      // Each pass replays the same rounds (the runner checks the
      // simulated timeline), so round i is one slice.
      const double now = HostCpuSeconds();
      out.slice_s.push_back(now - mark);
      mark = now;
    }
    ServingMetrics m;
    {
      ScopedSpan span(tracer, "sched.end_window");
      m = replica.EndWindow();
    }
    for (const auto& done : replica.DrainCompletions()) {
      ++completions[done.id];
    }
    out.offered = static_cast<int64_t>(offered.size());
    CheckRequests(offered, m.requests, completions, &out);
    for (const RequestTimes& t : out.requests) {
      out.task_latency_us.push_back(t.completed() ? t.completion - t.arrival
                                                  : 0);
    }
    out.energy_uj = m.energy;
    std::vector<double> queue_wait;
    for (const auto& row : m.requests) {
      queue_wait.push_back(row.admitted - row.arrival);
    }
    auto& c = out.layer;
    c["sched.rounds"] = static_cast<double>(rounds);
    c["sched.queue_wait_p90_ms"] = Percentile(queue_wait, 90) / 1e3;
    AddServingCounters(m, replica, power_start, &c);
    FinishServingCounters(&c);
    // Unshared prompts: this is the prefix cache's bypass case.
    if (m.prefix_hit_tokens != 0) {
      out.Flag(StrFormat("%lld prefix-hit tokens on unshared prompts",
                         static_cast<long long>(m.prefix_hit_tokens)));
    }
    return out;
  }

  const RateSpec& rates() const override { return rates_; }

 private:
  // Independent users: prompts log-uniform in [32, 512] tokens (the chat
  // trace shape of src/workload/prompt_workload.h), decodes uniform in
  // [32, 256], unique prompt tokens.
  std::vector<Request> Generate(uint64_t seed) const {
    Rng rng(seed);
    const int n = kChatRequests;
    const auto arrivals = PoissonArrivals(rng, n, 1e6 / rates_.nominal);
    const auto prompt_u = StratifiedUnits(rng, n);
    const auto decode_u = StratifiedUnits(rng, n);
    std::vector<Request> out;
    for (int i = 0; i < n; ++i) {
      const size_t k = static_cast<size_t>(i);
      const int prompt = LogUniformInt(prompt_u[k], 32, 512);
      out.push_back(Request::Chat(i, arrivals[k], prompt,
                                  UniformInt(decode_u[k], 32, 256),
                                  UniqueTokens(rng, prompt, model_.vocab)));
    }
    return out;
  }

  const ModelConfig model_ = ModelConfig::InternLM1_8B();
  ReplicaOptions options_;
  RateSpec rates_;
  std::unique_ptr<ModelWeights> weights_;
  std::vector<Request> requests_;
  std::unique_ptr<Replica> replica_;
};

// ---------------------------------------------------------------------------
// agentic_fleet: agentic task DAGs on a two-SoC cluster.

constexpr int kFleetTasks = 100;
// Gamma shape of the task gaps. Under Poisson arrivals (shape 1) the TPOT
// p90 of 100 tasks is set by the two or three arrival clumps a seed
// happens to draw, and its quartile spread over seeds was 0.15-0.19; at
// shape 4 it is 0.08-0.13, with the p90 still about 1.7x the p50.
constexpr int kFleetBurstiness = 4;

class AgenticFleet : public Workload {
 public:
  AgenticFleet() {
    rates_.nominal = 0.7;
    rates_.ladder = GeometricLadder(0.4);
    rates_.slo = {1000e3, 300e3, 0.5};
  }

  void Release() override {
    cluster_.reset();
    weights_.reset();
  }

  void Setup(uint64_t seed, Tracer* tracer) override {
    const ModelConfig model = ModelConfig::InternLM1_8B();
    {
      ScopedSpan span(tracer, "model.weights_create");
      weights_ = std::make_unique<ModelWeights>(
          ModelWeights::Create(model, ExecutionMode::kSimulate));
    }
    {
      ScopedSpan span(tracer, "workload.trace_gen");
      Rng rng(seed);
      // The generator's own stage shapes; only the turn count is cut.
      heterollm::workload::AgenticTraceOptions t;
      t.tasks = kFleetTasks;
      t.mean_interarrival_us = 1e6 / rates_.nominal;
      t.turns_min = 1;
      t.turns_max = 1;
      trace_ = heterollm::workload::SyntheticAgenticTrace(rng, t);
      const auto arrivals = GammaArrivals(
          rng, kFleetTasks, t.mean_interarrival_us, kFleetBurstiness);
      for (size_t i = 0; i < trace_.size(); ++i) {
        trace_[i].arrival = arrivals[i];
      }
      const MicroSeconds horizon =
          trace_.back().arrival * 2 + 60 * heterollm::kMicrosPerSecond;
      // 300 ms DRAM bursts every second (30% duty). Each burst edge is a
      // condition event that replans the engines; at a 200 ms period the
      // same duty cost a quarter more host time.
      conditions_ = heterollm::workload::BackgroundLoadTrace(
          /*period_us=*/1e6, /*busy_us=*/3e5,
          /*bandwidth_bytes_per_us=*/12e3, horizon);
      heterollm::sim::ConditionEvent cap;
      cap.time = 0;
      cap.unit = "npu";
      cap.frequency_cap = 0.7;
      conditions_.insert(conditions_.begin(), cap);
    }
    ScopedSpan span(tracer, "serve.cluster_create");
    std::vector<std::unique_ptr<Replica>> replicas;
    replicas.push_back(MakeReplica(
        "8gen3", "8 Gen 3", heterollm::core::PlatformOptionsFor(kEngine)));
    replicas.push_back(MakeReplica(
        "k9300", "K9300",
        heterollm::core::PlatformOptions::FromSocSpec(
            heterollm::sim::FindSocSpec("K9300"))));
    heterollm::serve::ClusterOptions copts;
    copts.router.policy = heterollm::serve::RoutingPolicy::kPrefixAffinity;
    // Room for every stage of every task (at most four per one-turn task):
    // Cluster::ServeTasks aborts on a rejected stage, so a rejection fails
    // the run instead of passing unnoticed.
    copts.router.max_pending = 4 * kFleetTasks;
    cluster_ = std::make_unique<heterollm::serve::Cluster>(std::move(replicas),
                                                           copts);
  }

  PassOutcome Run(double rate_scale, Tracer* tracer) override {
    PassOutcome out;
    std::vector<heterollm::workload::TaskSpec> tasks = trace_;
    for (auto& t : tasks) {
      t.arrival /= rate_scale;
    }
    std::vector<heterollm::sim::PowerSnapshot> power_start;
    for (const auto& r : cluster_->replicas()) {
      power_start.push_back(r->platform().soc().power().Snapshot());
    }
    std::unique_ptr<heterollm::serve::TaskGraph> graph;
    {
      ScopedSpan span(tracer, "task_graph.build");
      graph = std::make_unique<heterollm::serve::TaskGraph>(tasks);
    }
    heterollm::serve::ClusterMetrics cm;
    {
      ScopedSpan span(tracer, "cluster.serve_tasks");
      cm = cluster_->ServeTasks(*graph);
    }

    // Offered stages in request-id order, which is (task, stage) order.
    std::vector<Request> offered;
    int id = 0;
    for (const auto& task : tasks) {
      for (size_t s = 0; s < task.stages.size(); ++s) {
        const auto& stage = task.stages[s];
        Request::StageSpec spec;
        spec.task_id = task.task_id;
        spec.stage_id = static_cast<int>(s);
        offered.push_back(Request::Stage(id++, 0, stage.prompt_len,
                                         stage.decode_len, spec));
      }
    }
    std::vector<heterollm::serve::RequestMetrics> rows;
    std::map<int, int> completions;
    std::vector<double> replica_tokens;
    for (const auto& row : cm.replicas) {
      double tokens = 0;
      for (const auto& r : row.metrics.requests) {
        rows.push_back(r);
        ++completions[r.id];
        tokens += r.prompt_tokens + r.decoded_tokens;
      }
      replica_tokens.push_back(tokens);
    }
    // Stage arrivals are release times, known only from the rows.
    std::map<int, MicroSeconds> released;
    for (const auto& row : rows) {
      released[row.id] = row.arrival;
    }
    for (Request& r : offered) {
      r.arrival = released[r.id];
    }
    out.offered = static_cast<int64_t>(offered.size());
    CheckRequests(offered, rows, completions, &out);
    std::sort(out.requests.begin(), out.requests.end(),
              [](const RequestTimes& a, const RequestTimes& b) {
                return a.arrival < b.arrival ||
                       (a.arrival == b.arrival && a.id < b.id);
              });
    std::vector<double> stage_queue;
    for (const auto& task : cm.tasks) {
      out.task_latency_us.push_back(task.e2e_latency());
      for (const auto& stage : task.stages) {
        stage_queue.push_back(stage.queue_us());
      }
    }
    auto& c = out.layer;
    double max_tokens = 0;
    double sum_tokens = 0;
    for (size_t i = 0; i < cm.replicas.size(); ++i) {
      Replica& replica = *cluster_->replicas()[i];
      AddServingCounters(cm.replicas[i].metrics, replica, power_start[i], &c);
      out.energy_uj += cm.replicas[i].metrics.energy;
      max_tokens = std::max(max_tokens, replica_tokens[i]);
      sum_tokens += replica_tokens[i];
    }
    FinishServingCounters(&c);
    c["router.offered"] = static_cast<double>(cm.offered);
    c["router.rejected"] = static_cast<double>(cm.rejected);
    c["router.prefix_hit_rate"] = cm.prefix_hit_rate();
    c["router.load_imbalance"] =
        sum_tokens > 0 ? max_tokens / (sum_tokens / cm.replicas.size()) : 0;
    c["task_graph.stages"] = graph->total_stages();
    c["task_graph.stage_queue_p50_ms"] = Percentile(stage_queue, 50) / 1e3;
    c["task_graph.stage_queue_p90_ms"] = Percentile(stage_queue, 90) / 1e3;
    return out;
  }

  const RateSpec& rates() const override { return rates_; }

 private:
  std::unique_ptr<Replica> MakeReplica(const char* name, const char* device,
                                       heterollm::core::PlatformOptions p) {
    ReplicaOptions o;
    o.name = name;
    o.device = device;
    o.platform = std::move(p);
    o.platform.thermal = heterollm::sim::ThermalConfig::MobileSustained();
    o.platform.conditions = conditions_;
    o.engine = kEngine;
    o.scheduler.admission = heterollm::serve::AdmissionPolicy::kPriority;
    o.scheduler.max_decode_batch = 4;
    auto replica = Replica::Create(o, weights_.get());
    HCHECK_MSG(replica.ok(), replica.status().ToString());
    return std::move(*replica);
  }

  RateSpec rates_;
  std::unique_ptr<ModelWeights> weights_;
  std::vector<heterollm::workload::TaskSpec> trace_;
  std::vector<heterollm::sim::ConditionEvent> conditions_;
  std::unique_ptr<heterollm::serve::Cluster> cluster_;
};

// ---------------------------------------------------------------------------
// compute_generate: a closed loop of real prefill + decode through EngineBase.

constexpr int kComputeRequests = 100;

struct Turn {
  int prompt_len = 0;
  int decode_len = 0;  // tokens generated, the first by the prefill
};

ModelConfig ComputeModel() {
  ModelConfig c;
  c.name = "bench-mid";
  c.hidden = 512;
  c.intermediate = 768;
  c.num_layers = 3;
  c.num_heads = 8;
  c.num_kv_heads = 4;
  c.head_dim = 64;
  c.vocab = 2048;
  return c;
}

// Multiply-adds of one forward pass over `rows` new tokens attending to
// `ctx` cached positions (matmuls plus attention), as flops; computed from
// the shapes.
double ForwardFlops(const ModelConfig& m, double rows, double ctx) {
  const double per_layer =
      m.hidden * (2.0 * m.q_dim() + 2.0 * m.kv_dim()) +
      3.0 * m.hidden * m.intermediate;
  const double attention = 2.0 * m.q_dim() * (ctx + rows / 2);
  return 2.0 * rows * (m.num_layers * (per_layer + attention) +
                       m.hidden * m.vocab);
}

class ComputeGenerate : public Workload {
 public:
  ComputeGenerate() {
    rates_.open_loop = false;
    rates_.slo = {100e3, 20e3, 0.9};
  }

  void Release() override {
    engine_.reset();
    platform_.reset();
    weights_.reset();
  }

  void Setup(uint64_t seed, Tracer* tracer) override {
    {
      ScopedSpan span(tracer, "model.weights_create");
      weights_ = std::make_unique<ModelWeights>(ModelWeights::Create(
          model_, ExecutionMode::kCompute, seed, KernelThreads()));
    }
    {
      ScopedSpan span(tracer, "workload.trace_gen");
      Rng rng(seed);
      // Prompts log-uniform in [2, 6] tokens, 4 to 6 tokens generated.
      const auto prompt_u = StratifiedUnits(rng, kComputeRequests);
      const auto decode_u = StratifiedUnits(rng, kComputeRequests);
      turns_.clear();
      for (size_t i = 0; i < prompt_u.size(); ++i) {
        turns_.push_back({LogUniformInt(prompt_u[i], 2, 6),
                          UniformInt(decode_u[i], 4, 6)});
      }
      inputs_.clear();
      for (const auto& turn : turns_) {
        std::vector<Tensor> steps;
        steps.push_back(
            Tensor::Random(Shape({turn.prompt_len, model_.hidden}), rng, 0.1f));
        for (int d = 1; d < turn.decode_len; ++d) {
          steps.push_back(Tensor::Random(Shape({1, model_.hidden}), rng, 0.1f));
        }
        inputs_.push_back(std::move(steps));
      }
    }
    ScopedSpan span(tracer, "core.engine_create");
    std::tie(platform_, engine_) = MakeEngine(KernelThreads());
  }

  // One prefill per distinct prompt length (first-use schedule compiles)
  // and a decode step, which also fill the dequantized-weight cache and
  // start the kernel thread pool.
  void WarmUp() override {
    std::set<int> lengths;
    for (size_t i = 0; i < turns_.size(); ++i) {
      if (lengths.insert(turns_[i].prompt_len).second) {
        engine_->ResetSession();
        engine_->Prefill(inputs_[i][0]);
        engine_->DecodeStep(inputs_[i][1]);
      }
    }
  }

  // Every request starts a fresh session, so a pass leaves nothing behind
  // that changes the next one's numerics.
  bool Rerunnable() const override { return true; }

  // The closed loop runs real numerics on the host, so its latencies are
  // taken on the host clock: each request arrives when the previous one
  // completes. Energy and the sim.* counters stay on the simulated clock.
  PassOutcome Run(double /*rate_scale*/, Tracer* tracer) override {
    PassOutcome out;
    outputs_.clear();
    const auto& power = platform_->soc().power();
    const auto power_start = power.Snapshot();
    const MicroSeconds sim_start = platform_->soc().now();
    MicroSeconds sim_span = 0;
    double prefill_flops = 0;
    double decode_flops = 0;
    const double host_start = HostSeconds();
    const auto host_us = [&] { return (HostSeconds() - host_start) * 1e6; };
    for (size_t i = 0; i < turns_.size(); ++i) {
      const auto& turn = turns_[i];
      RequestTimes t;
      t.id = static_cast<int64_t>(i);
      t.arrival = host_us();
      engine_->ResetSession();
      heterollm::core::PhaseStats stats;
      {
        ScopedSpan span(tracer, "engine.prefill");
        stats = engine_->Prefill(inputs_[i][0]);
      }
      sim_span += stats.latency;
      outputs_.push_back(stats.hidden);
      t.first_token = host_us();
      // One slice per engine step: the prefill (from arrival) and each
      // decode step.
      out.slice_s.push_back((t.first_token - t.arrival) / 1e6);
      double mark = t.first_token;
      prefill_flops += ForwardFlops(model_, turn.prompt_len, 0);
      for (int d = 1; d < turn.decode_len; ++d) {
        {
          ScopedSpan span(tracer, "engine.decode_step");
          stats = engine_->DecodeStep(inputs_[i][d]);
        }
        sim_span += stats.latency;
        outputs_.push_back(stats.hidden);
        const double now = host_us();
        out.slice_s.push_back((now - mark) / 1e6);
        mark = now;
        decode_flops += ForwardFlops(model_, 1, turn.prompt_len + d - 1);
      }
      // The prefill emits the first token; each decode step one more.
      t.decoded_tokens = turn.decode_len;
      t.completion = mark;
      out.tokens += turn.prompt_len + turn.decode_len;
      out.requests.push_back(t);
      out.task_latency_us.push_back(t.completion - t.arrival);
    }
    out.offered = static_cast<int64_t>(turns_.size());
    out.energy_uj = power.TotalEnergySince(power_start, sim_span);
    auto& c = out.layer;
    c["tensor.prefill_gflop"] = prefill_flops / 1e9;
    c["tensor.decode_gflop"] = decode_flops / 1e9;
    c["engine.schedule_compiles"] = engine_->schedule_compiles();
    c["engine.replan_events"] = engine_->replan_events();
    c["hal.npu_graphs"] = platform_->graph_cache().size();
    c["hal.npu_graph_gen_ms"] =
        platform_->graph_cache().total_generation_time() / 1e3;
    c["hal.sync_waits"] = static_cast<double>(platform_->sync().wait_count());
    c["hal.sync_overhead_ms"] = platform_->sync().total_sync_overhead() / 1e3;
    c["hal.map_ops"] =
        static_cast<double>(platform_->pool().total_map_operations());
    const auto report = heterollm::core::ExecutionReport::Build(
        *platform_, sim_start, platform_->soc().now());
    for (const auto& row : report.units) {
      c["sim.kernels"] += row.kernels;
      c["sim.dram_gb"] += row.bytes / 1e9;
      c["sim." + row.unit + ".busy_frac"] = row.utilization;
    }
    for (int u = 0; u < power.unit_count(); ++u) {
      c["sim." + power.unit_name(u) + ".energy_mj"] =
          power.UnitEnergySince(power_start, u, sim_span) / 1e3;
    }
    return out;
  }

  // Bit-exactness against the single-threaded reference kernels, on a
  // fresh engine with kernel_threads = 1 over the same weights and inputs,
  // for every request.
  void CheckOutside(PassOutcome* out) override {
    auto [platform, engine] = MakeEngine(1);
    float max_diff = 0;
    size_t k = 0;
    for (size_t i = 0; i < turns_.size(); ++i) {
      engine->ResetSession();
      std::vector<Tensor> got;
      got.push_back(engine->Prefill(inputs_[i][0]).hidden);
      for (int d = 1; d < turns_[i].decode_len; ++d) {
        got.push_back(engine->DecodeStep(inputs_[i][d]).hidden);
      }
      for (const Tensor& g : got) {
        const float diff = Tensor::MaxAbsDiff(g, outputs_.at(k++));
        max_diff = std::max(max_diff, diff);
        if (diff != 0) {
          out->Fail(StrFormat("request %zu: hidden differs from the "
                              "reference by %g",
                              i, static_cast<double>(diff)));
        }
      }
    }
    out->layer["tensor.max_abs_diff"] = max_diff;
  }

  const RateSpec& rates() const override { return rates_; }

 private:
  // Two blocked-kernel threads, never more than nproc. With all four
  // cores of a 4-core host, one busy process elsewhere slowed a run by up
  // to 3x through stragglers at the kernels' barriers.
  static int KernelThreads() {
    return static_cast<int>(
        std::clamp(std::thread::hardware_concurrency(), 1u, 2u));
  }

  std::pair<std::unique_ptr<Platform>, std::unique_ptr<EngineBase>> MakeEngine(
      int kernel_threads) const {
    auto platform = std::make_unique<Platform>(
        heterollm::core::PlatformOptionsFor(kEngine));
    heterollm::core::EngineOptions opts;
    opts.kernel_threads = kernel_threads;
    auto engine = heterollm::core::CreateEngine(kEngine, platform.get(),
                                                weights_.get(), opts);
    return {std::move(platform), std::move(engine)};
  }

  const ModelConfig model_ = ComputeModel();
  RateSpec rates_;
  std::unique_ptr<ModelWeights> weights_;
  std::vector<Turn> turns_;
  std::vector<std::vector<Tensor>> inputs_;
  std::vector<Tensor> outputs_;
  std::unique_ptr<Platform> platform_;
  std::unique_ptr<EngineBase> engine_;
};

}  // namespace

std::unique_ptr<Workload> MakeWorkload(const std::string& name) {
  if (name == "chat_serve") {
    return std::make_unique<ChatServe>();
  }
  if (name == "agentic_fleet") {
    return std::make_unique<AgenticFleet>();
  }
  if (name == "compute_generate") {
    return std::make_unique<ComputeGenerate>();
  }
  return nullptr;
}

}  // namespace perfbench
