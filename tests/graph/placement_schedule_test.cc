// Placement pass + schedule compiler unit tests: site resolution (plain and
// fused weights), per-node plans, and the structure of the compiled
// schedule (step counts, per-layer attention, LM-head row handling, NPU
// graph references, rejection of unfused SiLU/Mul).

#include <gtest/gtest.h>

#include "src/graph/builder.h"
#include "src/graph/passes.h"
#include "src/graph/placement.h"
#include "src/graph/schedule.h"
#include "src/model/model_config.h"

namespace heterollm::graph {
namespace {

using core::MatmulPlan;
using core::MatmulShape;
using core::MatmulSite;
using core::PartitionKind;
using core::Phase;
using model::ModelConfig;

// Deterministic policy: every matmul whole on the NPU, vector ops on GPU.
class NpuPolicy : public PlacementPolicy {
 public:
  MatmulPlan PlanMatmul(MatmulSite /*site*/, const MatmulShape& /*shape*/,
                        Phase /*phase*/) override {
    MatmulPlan plan;
    plan.kind = PartitionKind::kNone;
    plan.sole_backend = hal::Backend::kNpu;
    return plan;
  }
  hal::Backend vector_backend() const override { return hal::Backend::kGpu; }
};

Graph OptimizedGraph(const ModelConfig& cfg, int64_t rows, bool fuse_qkv) {
  Graph g = BuildModelGraph(cfg);
  HCHECK(InferShapes(&g, cfg, rows).ok());
  g = FuseSiluMul(g).graph;
  if (fuse_qkv) {
    g = FuseQkv(g).graph;
  }
  g = EliminateDeadNodes(g).graph;
  HCHECK(InferShapes(&g, cfg, rows).ok());
  return g;
}

TEST(PlacementTest, AnnotatesEveryMatmulWithSiteAndPlan) {
  const ModelConfig cfg = ModelConfig::Tiny();
  Graph g = OptimizedGraph(cfg, 32, /*fuse_qkv=*/false);
  NpuPolicy policy;
  auto placed = PlaceGraph(g, Phase::kPrefill, &policy);
  ASSERT_TRUE(placed.ok()) << placed.status().ToString();

  // 7 projection sites per layer plus the LM head.
  EXPECT_EQ(placed.value().matmul_count, cfg.num_layers * 7 + 1);
  EXPECT_EQ(placed.value().fused_qkv_count, 0);
  for (NodeId id : placed.value().graph.LiveNodesInOrder()) {
    const NodePlacement& p = placed.value().placements[id];
    if (!p.is_matmul) {
      continue;
    }
    EXPECT_EQ(p.weight_refs.size(), 1u);
    EXPECT_EQ(p.plan.sole_backend, hal::Backend::kNpu);
    EXPECT_EQ(p.op_id, core::GraphOpId(p.layer, p.site));
  }
}

TEST(PlacementTest, FusedQkvBecomesOneSiteWithThreeWeights) {
  const ModelConfig cfg = ModelConfig::Tiny();
  Graph g = OptimizedGraph(cfg, 32, /*fuse_qkv=*/true);
  NpuPolicy policy;
  auto placed = PlaceGraph(g, Phase::kPrefill, &policy);
  ASSERT_TRUE(placed.ok()) << placed.status().ToString();

  // q/k/v collapse into one site per layer: 5 matmuls per layer + head.
  EXPECT_EQ(placed.value().fused_qkv_count, cfg.num_layers);
  EXPECT_EQ(placed.value().matmul_count, cfg.num_layers * 5 + 1);
  int fused_seen = 0;
  for (NodeId id : placed.value().graph.LiveNodesInOrder()) {
    const NodePlacement& p = placed.value().placements[id];
    if (p.is_matmul && p.site == MatmulSite::kQkv) {
      ++fused_seen;
      EXPECT_EQ(p.weight_refs.size(), 3u);
      EXPECT_EQ(p.shape.k, cfg.q_dim() + 2 * cfg.kv_dim());
    }
  }
  EXPECT_EQ(fused_seen, cfg.num_layers);
}

TEST(PlacementTest, LmHeadPlacedAtOneRowUnlessServing) {
  const ModelConfig cfg = ModelConfig::Tiny();
  Graph g = OptimizedGraph(cfg, 32, /*fuse_qkv=*/false);
  NpuPolicy policy;
  auto single = PlaceGraph(g, Phase::kPrefill, &policy, /*serving=*/false);
  auto serving = PlaceGraph(g, Phase::kDecode, &policy, /*serving=*/true);
  ASSERT_TRUE(single.ok() && serving.ok());
  for (NodeId id : g.LiveNodesInOrder()) {
    if (single.value().placements[id].is_matmul &&
        single.value().placements[id].site == MatmulSite::kLmHead) {
      EXPECT_EQ(single.value().placements[id].shape.m, 1);
      EXPECT_EQ(serving.value().placements[id].shape.m, 32);
    }
  }
}

TEST(PlacementTest, RequiresInferredShapes) {
  const ModelConfig cfg = ModelConfig::Tiny();
  Graph g = BuildModelGraph(cfg);  // no InferShapes
  NpuPolicy policy;
  EXPECT_FALSE(PlaceGraph(g, Phase::kPrefill, &policy).ok());
}

TEST(PlacementTest, DotRenderingNamesBackends) {
  const ModelConfig cfg = ModelConfig::Tiny();
  Graph g = OptimizedGraph(cfg, 32, /*fuse_qkv=*/false);
  NpuPolicy policy;
  auto placed = PlaceGraph(g, Phase::kPrefill, &policy);
  ASSERT_TRUE(placed.ok());
  const std::string dot = PlacedToDot(placed.value());
  EXPECT_NE(dot.find("digraph"), std::string::npos);
  EXPECT_NE(dot.find("palegreen"), std::string::npos);  // NPU matmuls
  EXPECT_NE(dot.find("lm_head"), std::string::npos);
}

TEST(ScheduleTest, CompilesDecoderStructure) {
  const ModelConfig cfg = ModelConfig::Tiny();
  Graph g = OptimizedGraph(cfg, 32, /*fuse_qkv=*/false);
  NpuPolicy policy;
  auto placed = PlaceGraph(g, Phase::kPrefill, &policy);
  ASSERT_TRUE(placed.ok());
  auto sched = CompileSchedule(placed.value());
  ASSERT_TRUE(sched.ok()) << sched.status().ToString();

  const CompiledSchedule& s = sched.value();
  EXPECT_EQ(s.rows, 32);
  EXPECT_EQ(s.matmul_steps, cfg.num_layers * 7 + 1);
  EXPECT_EQ(s.merge_steps, 0);  // whole-NPU plans need no merge
  // One NPU graph per matmul (kNone on NPU).
  EXPECT_EQ(s.npu_graph_refs, s.matmul_steps);
  EXPECT_GE(s.num_slots, s.matmul_steps);
  EXPECT_GE(s.input_slot, 0);
  EXPECT_GE(s.hidden_slot, 0);
  EXPECT_GE(s.logits_slot, 0);

  int attention_steps = 0;
  bool saw_last_rows = false;
  for (const ScheduleStep& step : s.steps) {
    if (step.kind == StepKind::kAttention) {
      ++attention_steps;
    }
    if (step.kind == StepKind::kLastRows) {
      saw_last_rows = true;
      EXPECT_EQ(step.begin, 31);  // single-session: last row only
      EXPECT_EQ(step.end, 32);
    }
  }
  EXPECT_EQ(attention_steps, cfg.num_layers);
  EXPECT_TRUE(saw_last_rows);
  EXPECT_FALSE(s.Summary().empty());
}

// The engine runs SwiGLU as one fused kernel, so a schedule with live SiLU
// and Mul nodes is rejected when it is compiled, not when it is replayed.
TEST(ScheduleTest, RejectsUnfusedSiluMul) {
  const ModelConfig cfg = ModelConfig::Tiny();
  Graph g = BuildModelGraph(cfg);
  ASSERT_TRUE(InferShapes(&g, cfg, 32).ok());
  NpuPolicy policy;
  auto placed = PlaceGraph(g, Phase::kPrefill, &policy);
  ASSERT_TRUE(placed.ok()) << placed.status().ToString();
  auto sched = CompileSchedule(placed.value());
  ASSERT_FALSE(sched.ok());
  EXPECT_NE(sched.status().message().find("FuseSiluMul"), std::string::npos);
}

TEST(ScheduleTest, FusedScheduleEmitsSlicesAndFewerMatmuls) {
  const ModelConfig cfg = ModelConfig::Tiny();
  Graph g = OptimizedGraph(cfg, 32, /*fuse_qkv=*/true);
  NpuPolicy policy;
  auto placed = PlaceGraph(g, Phase::kPrefill, &policy);
  ASSERT_TRUE(placed.ok());
  auto sched = CompileSchedule(placed.value());
  ASSERT_TRUE(sched.ok()) << sched.status().ToString();

  const CompiledSchedule& s = sched.value();
  EXPECT_EQ(s.fused_qkv_steps, cfg.num_layers);
  EXPECT_EQ(s.matmul_steps, cfg.num_layers * 5 + 1);
  int slices = 0;
  for (const ScheduleStep& step : s.steps) {
    if (step.kind == StepKind::kSliceCols) {
      ++slices;
    }
    if (step.kind == StepKind::kMatmul && step.site == MatmulSite::kQkv) {
      EXPECT_EQ(step.weight_refs.size(), 3u);
      ASSERT_EQ(step.npu_graphs.size(), 1u);
      EXPECT_EQ(step.npu_graphs[0].k, cfg.q_dim() + 2 * cfg.kv_dim());
    }
  }
  EXPECT_EQ(slices, cfg.num_layers * 3);  // q/k/v views per layer
}

TEST(ScheduleTest, ServingScheduleRunsHeadOverAllRows) {
  const ModelConfig cfg = ModelConfig::Tiny();
  Graph g = OptimizedGraph(cfg, 4, /*fuse_qkv=*/false);
  NpuPolicy policy;
  auto placed = PlaceGraph(g, Phase::kDecode, &policy, /*serving=*/true);
  ASSERT_TRUE(placed.ok());
  auto sched = CompileSchedule(placed.value());
  ASSERT_TRUE(sched.ok());
  EXPECT_TRUE(sched.value().serving);
  for (const ScheduleStep& step : sched.value().steps) {
    if (step.kind == StepKind::kLastRows) {
      EXPECT_EQ(step.begin, 0);  // every row is a session's last position
      EXPECT_EQ(step.end, 4);
    }
  }
}

}  // namespace
}  // namespace heterollm::graph
