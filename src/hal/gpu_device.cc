#include "src/hal/gpu_device.h"

namespace heterollm::hal {

namespace {
sim::UnitSpec MakeUnitSpec(const std::string& name, const GpuConfig& config) {
  sim::UnitSpec spec;
  spec.name = name;
  spec.bandwidth_cap_bytes_per_us = config.bandwidth_gbps * 1e3;
  spec.power = config.power;
  return spec;
}
}  // namespace

GpuDevice::GpuDevice(std::string name, sim::SocSimulator* soc,
                     const GpuConfig& config)
    : Device(name, Backend::kGpu, soc, MakeUnitSpec(name, config)),
      config_(config) {
  launch_overhead_us_ = config.launch_overhead_us;
  // Vector ops (norms, softmax, attention) run well on the GPU's SIMT
  // pipeline; use half the matmul rate as their throughput.
  vector_rate_flops_per_us_ =
      0.5 * config.effective_fp16_tflops * 1e6 * config.compute_efficiency;
}

sim::KernelDesc GpuDevice::CostMatmul(const MatmulSpec& spec) const {
  sim::KernelDesc desc;
  desc.label = matmul_label_;
  // GPUs run arbitrary shapes at a flat efficiency: compute time is linear
  // in FLOPs (GPU-① linear performance). Memory-boundness for small shapes
  // falls out of the roofline in the simulator.
  desc.compute_time = spec.flops() / PeakMatmulRate(spec.precision);
  desc.memory_bytes = (spec.a_bytes() + spec.b_bytes() + spec.out_bytes()) /
                      config_.memory_efficiency;
  desc.launch_overhead = config_.launch_overhead_us;
  desc.flops = spec.flops();
  ApplyOperatingPoint(&desc);
  return desc;
}

MicroSeconds GpuDevice::SubmitOverhead(bool queue_empty) const {
  return queue_empty ? config_.empty_queue_penalty_us : config_.submit_us;
}

double GpuDevice::PeakMatmulRate(Precision precision) const {
  // The mobile GPU has no separate INT8 matmul pipeline worth modelling; the
  // paper's GPU path computes FP16 in all phases.
  (void)precision;
  return config_.effective_fp16_tflops * 1e6 * config_.compute_efficiency;
}

}  // namespace heterollm::hal
