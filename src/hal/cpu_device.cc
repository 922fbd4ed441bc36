#include "src/hal/cpu_device.h"

namespace heterollm::hal {

namespace {
sim::UnitSpec MakeUnitSpec(const std::string& name, const CpuConfig& config) {
  sim::UnitSpec spec;
  spec.name = name;
  spec.bandwidth_cap_bytes_per_us = config.bandwidth_gbps * 1e3;
  spec.power = config.power;
  return spec;
}
}  // namespace

CpuDevice::CpuDevice(std::string name, sim::SocSimulator* soc,
                     const CpuConfig& config)
    : Device(name, Backend::kCpu, soc, MakeUnitSpec(name, config)),
      config_(config) {
  launch_overhead_us_ = config.launch_overhead_us;
  vector_rate_flops_per_us_ = 0.5 * config.effective_fp16_tflops * 1e6;
}

sim::KernelDesc CpuDevice::CostMatmul(const MatmulSpec& spec) const {
  sim::KernelDesc desc;
  desc.label = matmul_label_;
  desc.compute_time = spec.flops() / PeakMatmulRate(spec.precision);
  desc.memory_bytes = (spec.a_bytes() + spec.b_bytes() + spec.out_bytes()) /
                      config_.memory_efficiency;
  desc.launch_overhead = config_.launch_overhead_us;
  desc.flops = spec.flops();
  ApplyOperatingPoint(&desc);
  return desc;
}

MicroSeconds CpuDevice::SubmitOverhead(bool queue_empty) const {
  // Function call into the same address space; no driver round trip.
  (void)queue_empty;
  return 0.5;
}

double CpuDevice::PeakMatmulRate(Precision precision) const {
  switch (precision) {
    case Precision::kFp16:
      return config_.effective_fp16_tflops * 1e6;
    case Precision::kInt8:
      return config_.effective_int8_tops * 1e6;
  }
  return config_.effective_fp16_tflops * 1e6;
}

}  // namespace heterollm::hal
