#include "src/hal/npu_graph.h"

#include "src/common/log.h"
#include "src/common/math_util.h"

namespace heterollm::hal {

NpuGraphCache::NpuGraphCache(const NpuGraphConfig& config) : config_(config) {}

bool NpuGraphCache::Contains(const NpuGraphKey& key) const {
  return graphs_.count(key) > 0;
}

MicroSeconds NpuGraphCache::GenerationCost(const NpuGraphKey& key) const {
  const double m = static_cast<double>(AlignUp(key.m, config_.tile));
  const double n = static_cast<double>(AlignUp(key.n, config_.tile));
  const double k = static_cast<double>(AlignUp(key.k, config_.tile));
  return (config_.per_op_base_us + config_.per_op_coef_us * m * (n + k)) *
         config_.graph_variants;
}

MicroSeconds NpuGraphCache::Prepare(const NpuGraphKey& key) {
  if (Contains(key)) {
    return 0;
  }
  graphs_.insert(key);
  MicroSeconds cost = GenerationCost(key);
  total_generation_time_ += cost;
  HLOG(kDebug) << "compiled NPU graph [" << key.m << "," << key.n << ","
               << key.k << "] op=" << key.op << " in " << cost << " us";
  return cost;
}

void NpuGraphCache::Clear() {
  graphs_.clear();
  total_generation_time_ = 0;
  ++generation_;
}

}  // namespace heterollm::hal
