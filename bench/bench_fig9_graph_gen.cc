// Figure 9: NPU graph generation time for a single operator across tensor
// shapes — the cost that makes runtime graph creation ("Online-prepare")
// impractical for dynamic sequence lengths.

#include "bench/bench_common.h"
#include "src/common/strings.h"
#include "src/common/table.h"
#include "src/hal/npu_graph.h"

namespace heterollm {
namespace {

void PrintFigure9(report::BenchReport& report) {
  benchx::PrintHeader(report, "Figure 9",
                      "NPU graph generation time per operator vs tensor "
                      "shape");
  hal::NpuGraphCache cache;
  TextTable table({"seq len", "[m,4096,4096] (ms)", "[m,4096,14336] (ms)",
                   "[m,14336,4096] (ms)"});
  for (int64_t m : {32, 64, 128, 256, 512, 1024}) {
    table.AddRow(
        {std::to_string(m),
         StrFormat("%.2f", ToMillis(cache.GenerationCost({m, 4096, 4096}))),
         StrFormat("%.2f", ToMillis(cache.GenerationCost({m, 4096, 14336}))),
         StrFormat("%.2f", ToMillis(cache.GenerationCost({m, 14336, 4096})))});
  }
  benchx::EmitTable(report, "graph_gen_per_op", table);
  report.AddMetric("graph_gen.op_1024x4096x4096.ms",
                   ToMillis(cache.GenerationCost({1024, 4096, 4096})),
                   benchx::LowerIsBetter("ms"));

  // Whole-model anchors from §5.2.2.
  auto model_cost = [&](int64_t m) {
    MicroSeconds per_layer = cache.GenerationCost({m, 4096, 4096}) +
                             2 * cache.GenerationCost({m, 4096, 1024}) +
                             cache.GenerationCost({m, 4096, 4096}) +
                             2 * cache.GenerationCost({m, 4096, 14336}) +
                             cache.GenerationCost({m, 14336, 4096});
    return per_layer * 32 + cache.GenerationCost({m, 4096, 128256});
  };
  benchx::EmitAnchors(report, "Whole-model graph set (Llama-8B, 4 variants)",
                      {{"generation @ seq 135 (ms)", 408.4,
                        ToMillis(model_cost(135)), "ms"},
                       {"generation @ seq 1000 (ms)", 2050.0,
                        ToMillis(model_cost(1000)), "ms"}});
}

}  // namespace
}  // namespace heterollm

HETEROLLM_BENCH_MAIN("fig9_graph_gen", heterollm::PrintFigure9)
