#include "src/hal/npu_device.h"

#include <algorithm>
#include <cmath>

#include "src/common/math_util.h"

namespace heterollm::hal {

namespace {
sim::UnitSpec MakeUnitSpec(const std::string& name, const NpuConfig& config) {
  sim::UnitSpec spec;
  spec.name = name;
  spec.bandwidth_cap_bytes_per_us = config.bandwidth_gbps * 1e3;
  spec.power = config.power;
  return spec;
}
}  // namespace

NpuDevice::NpuDevice(std::string name, sim::SocSimulator* soc,
                     const NpuConfig& config)
    : Device(name, Backend::kNpu, soc, MakeUnitSpec(name, config)),
      config_(config) {
  launch_overhead_us_ = config.launch_overhead_us;
  // The NPU's scalar/vector unit is weak; the engines keep norms, softmax
  // and attention off the NPU, but cost them honestly if someone tries.
  vector_rate_flops_per_us_ = 0.1e6;
}

double NpuDevice::ShapeEfficiency(const MatmulSpec& spec) const {
  const int64_t m_pad = AlignUp(spec.m, config_.tile);
  const int64_t n_pad = AlignUp(spec.n, config_.tile);
  // GEMV-like: the stationary operand is (nearly) a vector — decoding-phase
  // matmuls after the engine permutation. These run on the vector pipeline
  // without the systolic array's shape constraints.
  if (config_.gemv_fast_path && spec.k < config_.tile) {
    return 1.0;
  }
  if (m_pad >= n_pad) {
    return 1.0;
  }
  const double ratio =
      static_cast<double>(m_pad) / static_cast<double>(n_pad);
  return std::max(config_.shape_floor, std::pow(ratio, config_.shape_gamma));
}

sim::KernelDesc NpuDevice::CostMatmul(const MatmulSpec& spec) const {
  const bool gemv = config_.gemv_fast_path && spec.k < config_.tile;
  const int64_t m_pad = AlignUp(spec.m, config_.tile);
  const int64_t n_pad = AlignUp(spec.n, config_.tile);
  // The vector pipeline does not pad the (near-)vector dimension.
  const int64_t k_pad = gemv ? spec.k : AlignUp(spec.k, config_.tile);

  sim::KernelDesc desc;
  desc.label = matmul_label_;

  // NPU-①: the hardware computes on the padded grid, so padded FLOPs are
  // what the array executes regardless of the logical shape.
  const double padded_flops =
      2.0 * static_cast<double>(m_pad) * static_cast<double>(n_pad) *
      static_cast<double>(k_pad);
  const double rate = PeakMatmulRate(spec.precision) * ShapeEfficiency(spec);
  desc.compute_time = padded_flops / rate;

  // NPU-②: the stationary operand streams once if it fits SRAM; otherwise it
  // re-streams for every `rows_per_pass` block of streamed rows.
  const Bytes b_bytes =
      static_cast<double>(n_pad) * static_cast<double>(k_pad) *
      spec.b_bytes_per_elem;
  int64_t passes = 1;
  if (b_bytes > config_.sram_bytes) {
    passes = DivCeil(m_pad, config_.rows_per_pass);
  }
  desc.memory_bytes = spec.a_bytes() + b_bytes * static_cast<double>(passes) +
                      spec.out_bytes();
  desc.launch_overhead = config_.launch_overhead_us;
  desc.flops = padded_flops;
  ApplyOperatingPoint(&desc);
  return desc;
}

MicroSeconds NpuDevice::SubmitOverhead(bool queue_empty) const {
  (void)queue_empty;
  return config_.submit_us;
}

double NpuDevice::PeakMatmulRate(Precision precision) const {
  switch (precision) {
    case Precision::kFp16:
      return config_.effective_fp16_tflops * 1e6;
    case Precision::kInt8:
      return config_.effective_int8_tops * 1e6;
  }
  return config_.effective_fp16_tflops * 1e6;
}

}  // namespace heterollm::hal
