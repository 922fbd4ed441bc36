#include "src/hal/device.h"

#include <algorithm>

namespace heterollm::hal {

const char* BackendName(Backend backend) {
  switch (backend) {
    case Backend::kCpu:
      return "cpu";
    case Backend::kGpu:
      return "gpu";
    case Backend::kNpu:
      return "npu";
  }
  return "unknown";
}

Device::Device(std::string name, Backend backend, sim::SocSimulator* soc,
               const sim::UnitSpec& unit_spec)
    : name_(std::move(name)), backend_(backend), soc_(soc) {
  HCHECK(soc != nullptr);
  unit_ = soc_->AddUnit(unit_spec);
  matmul_label_ = soc_->InternLabel(name_ + ":matmul");
  elementwise_label_ = soc_->InternLabel(name_ + ":elementwise");
  attention_label_ = soc_->InternLabel(name_ + ":attention");
}

void Device::ApplyOperatingPoint(sim::KernelDesc* desc) const {
  const double factor = soc_->UnitFrequencyFactor(unit_);
  if (factor != 1.0) {
    desc->compute_time /= factor;
    desc->power_scale *= factor * factor;
  }
}

sim::KernelDesc Device::CostElementwise(const ElementwiseSpec& spec) const {
  sim::KernelDesc desc;
  desc.label = elementwise_label_;
  desc.compute_time = static_cast<double>(spec.elems) * spec.flops_per_elem /
                      vector_rate_flops_per_us_;
  desc.memory_bytes = static_cast<double>(spec.elems) * spec.bytes_per_elem;
  desc.launch_overhead = launch_overhead_us_;
  desc.flops = static_cast<double>(spec.elems) * spec.flops_per_elem;
  ApplyOperatingPoint(&desc);
  return desc;
}

sim::KernelDesc Device::CostAttention(const AttentionSpec& spec) const {
  sim::KernelDesc desc;
  desc.label = attention_label_;
  desc.compute_time = spec.flops() / vector_rate_flops_per_us_;
  desc.memory_bytes =
      spec.kv_bytes() +
      4.0 * static_cast<double>(spec.m) * spec.num_heads * spec.head_dim;
  desc.launch_overhead = launch_overhead_us_;
  desc.flops = spec.flops();
  ApplyOperatingPoint(&desc);
  return desc;
}

MicroSeconds Device::SubmitOverhead(bool queue_empty) const {
  (void)queue_empty;
  return 5.0;
}

sim::KernelHandle Device::Submit(const sim::KernelDesc& desc,
                                 MicroSeconds submit_time) {
  return soc_->Submit(unit_, desc, submit_time);
}

MicroSeconds Device::IsolatedTime(const sim::KernelDesc& desc) const {
  const double bw = soc_->unit_spec(unit_).bandwidth_cap_bytes_per_us;
  return desc.launch_overhead +
         std::max(desc.compute_time, desc.memory_bytes / bw);
}

}  // namespace heterollm::hal
