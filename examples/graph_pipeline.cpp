// Graph front-end walkthrough (the paper's Fig. 1 pipeline, end to end):
//   build the decoder IR -> optimization passes (SwiGLU/QKV fusion, DCE)
//   -> static cost analysis with the partition solver
//   -> numerical check against the reference interpreter
//   -> backend placement + schedule compilation with a real engine's policy
//   -> compiled-schedule execution on the simulated SoC, compared against
//      the cost analyzer's static prediction.

#include <cstdio>

#include "src/core/engine_registry.h"
#include "src/core/profiler.h"
#include "src/core/solver.h"
#include "src/graph/cost_analyzer.h"
#include "src/graph/interpreter.h"
#include "src/graph/passes.h"
#include "src/graph/placement.h"
#include "src/graph/schedule.h"

using namespace heterollm;  // NOLINT(build/namespaces)
using model::ExecutionMode;
using model::ModelConfig;
using model::ModelWeights;

int main() {
  std::printf("Operator-graph pipeline\n=======================\n\n");

  // 1. Build + shape-infer the unfused Llama-8B graph (seq 256).
  const ModelConfig cfg = ModelConfig::Llama8B();
  graph::Graph g = graph::BuildModelGraph(cfg);
  HCHECK(graph::InferShapes(&g, cfg, /*seq_len=*/256).ok());
  std::printf("unfused graph: %d nodes, %d matmuls, %d attention ops\n",
              g.node_count(), g.CountLive(graph::OpType::kMatmul),
              g.CountLive(graph::OpType::kAttention));

  // 2. Optimization passes.
  graph::PassResult optimized = graph::OptimizeGraph(g);
  HCHECK(graph::InferShapes(&optimized.graph, cfg, 256).ok());
  std::printf("after %d fusions: %d nodes, %d matmuls (QKV fused), "
              "%d swiglu ops\n\n",
              optimized.rewrites, optimized.graph.node_count(),
              optimized.graph.CountLive(graph::OpType::kMatmul),
              optimized.graph.CountLive(graph::OpType::kSwiGlu));

  // 3. Static cost analysis with the tensor-partition solver.
  core::Platform platform;
  core::HardwareProfiler profiler(&platform);
  core::PartitionSolver solver(&profiler, &platform);
  graph::CostAnalyzer analyzer(&platform, &solver, &profiler);
  graph::GraphCost cost = analyzer.Analyze(optimized.graph);
  std::printf("heaviest nodes (prefill, seq 256):\n%s\n",
              cost.Render(8).c_str());

  // 4. Numerics: optimized graph == unfused graph on a tiny model.
  const ModelConfig tiny = ModelConfig::Tiny();
  const ModelWeights weights =
      ModelWeights::Create(tiny, ExecutionMode::kCompute, 2);
  graph::Graph tg = graph::BuildModelGraph(tiny);
  HCHECK(graph::InferShapes(&tg, tiny, 8).ok());
  graph::PassResult topt = graph::OptimizeGraph(tg);

  Rng rng(5);
  tensor::Tensor input =
      tensor::Tensor::Random(tensor::Shape({8, tiny.hidden}), rng, 0.1f);
  graph::GraphInterpreter base(&weights);
  graph::GraphInterpreter fused(&weights);
  auto base_out = base.Run(tg, input);
  auto fused_out = fused.Run(topt.graph, input);
  HCHECK(base_out.ok() && fused_out.ok());
  const float diff =
      tensor::Tensor::MaxAbsDiff((*base_out)[1], (*fused_out)[1]);
  std::printf("fusion numerics check (max |logit diff|): %g — %s\n", diff,
              diff == 0.0f ? "PASS" : "FAIL");

  // 5. Graphviz export of one layer for documentation.
  std::printf("\nGraphviz snippet (pipe the full output of Graph::ToDot() "
              "into `dot -Tsvg`):\n");
  std::string dot = topt.graph.ToDot();
  std::printf("%.400s...\n", dot.c_str());

  // 6. Backend placement + schedule compilation. The engine *is* the
  // placement policy (EngineBase implements graph::PlacementPolicy), so the
  // placed graph carries exactly the plans the engine would execute.
  ModelWeights sim_weights =
      ModelWeights::Create(cfg, ExecutionMode::kSimulate);
  core::Platform exec_platform(core::PlatformOptionsFor("Hetero-tensor"));
  auto engine = core::CreateEngine("Hetero-tensor", &exec_platform,
                                   &sim_weights);
  auto placed = graph::PlaceGraph(optimized.graph, core::Phase::kPrefill,
                                  engine.get());
  HCHECK(placed.ok());
  auto sched = graph::CompileSchedule(placed.value());
  HCHECK(sched.ok());
  std::printf("\nplaced graph: %d matmuls (%d fused QKV)\n",
              placed.value().matmul_count, placed.value().fused_qkv_count);
  std::printf("compiled schedule: %s\n", sched.value().Summary().c_str());
  std::printf("placed-layer Graphviz snippet (PlacedToDot):\n%.400s...\n",
              graph::PlacedToDot(placed.value()).c_str());

  // 7. Execute through the engine's own compiled schedule (prefill seq 256)
  // and compare the measured simulated latency against the cost analyzer's
  // static prediction. The two diverge by design: the analyzer sums
  // per-node isolated costs, while the executor overlaps GPU and NPU
  // kernels and charges submit/sync overheads.
  const tensor::Tensor prompt = tensor::Tensor::Deferred(
      tensor::Shape({256, cfg.hidden}), tensor::DType::kFp16);
  const core::PhaseStats prefill = engine->Prefill(prompt);
  std::printf("\nprefill seq 256 (Llama-8B, Hetero-tensor):\n");
  std::printf("  cost-analyzer prediction: %8.1f us (sum of chosen plans)\n",
              cost.total_chosen);
  std::printf("  executor measured:        %8.1f us (compiled-schedule "
              "replay)\n",
              prefill.latency);
  std::printf("  measured/predicted:       %8.2fx\n",
              cost.total_chosen > 0 ? prefill.latency / cost.total_chosen
                                    : 0.0);
  return diff < 1e-4f ? 0 : 1;
}
