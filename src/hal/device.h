// Hardware abstraction layer: simulated compute devices.
//
// A `Device` wraps one execution unit of the SoC simulator and knows how to
// translate operator descriptions (matmul / elementwise / attention specs)
// into `sim::KernelDesc` costs. The cost models are the stand-in for the
// closed vendor stacks (QNN for the Hexagon NPU, OpenCL for the Adreno GPU)
// and are calibrated against every datapoint the paper reports; see
// DESIGN.md §4.3 and the per-device headers.

#ifndef SRC_HAL_DEVICE_H_
#define SRC_HAL_DEVICE_H_

#include <cstdint>
#include <string>

#include "src/common/status.h"
#include "src/common/types.h"
#include "src/sim/soc_simulator.h"

namespace heterollm::hal {

enum class Backend { kCpu, kGpu, kNpu };

const char* BackendName(Backend backend);

// Computation precision for a kernel. The paper's W4A16 setting computes in
// FLOAT everywhere except the NPU decoding path, which falls back to the
// NPU's INT pipeline (paper footnote 2).
enum class Precision { kFp16, kInt8 };

// Matmul A[m, n] x B[n, k]; B is the stationary ("weight-stall") operand.
struct MatmulSpec {
  int64_t m = 0;
  int64_t n = 0;
  int64_t k = 0;
  Precision precision = Precision::kFp16;
  // Storage bytes per element for each operand (activations default FP16;
  // W4A16 weights are 0.5).
  double a_bytes_per_elem = 2.0;
  double b_bytes_per_elem = 0.5;
  double out_bytes_per_elem = 2.0;

  Flops flops() const { return 2.0 * static_cast<double>(m * n * k); }
  Bytes a_bytes() const { return static_cast<double>(m * n) * a_bytes_per_elem; }
  Bytes b_bytes() const { return static_cast<double>(n * k) * b_bytes_per_elem; }
  Bytes out_bytes() const {
    return static_cast<double>(m * k) * out_bytes_per_elem;
  }
};

// Element-wise / reduction op over `elems` elements (RMSNorm, SwiGLU, RoPE,
// residual adds, softmax, ...).
struct ElementwiseSpec {
  int64_t elems = 0;
  double flops_per_elem = 4.0;
  double bytes_per_elem = 4.0;  // read + write FP16
};

// Causal (GQA) attention: m query rows over a t-row KV cache.
struct AttentionSpec {
  int64_t m = 0;
  int64_t t = 0;
  int num_heads = 0;
  int num_kv_heads = 0;
  int head_dim = 0;

  Flops flops() const {
    // QKᵀ and PV, per query head.
    return 4.0 * static_cast<double>(m) * static_cast<double>(t) *
           static_cast<double>(num_heads) * head_dim;
  }
  Bytes kv_bytes() const {
    return 2.0 * static_cast<double>(t) *
           static_cast<double>(num_kv_heads) * head_dim * 2.0;  // K and V, fp16
  }
};

class Device {
 public:
  Device(std::string name, Backend backend, sim::SocSimulator* soc,
         const sim::UnitSpec& unit_spec);
  virtual ~Device() = default;

  Device(const Device&) = delete;
  Device& operator=(const Device&) = delete;

  Backend backend() const { return backend_; }
  const std::string& name() const { return name_; }
  sim::UnitId unit() const { return unit_; }
  sim::SocSimulator& soc() const { return *soc_; }

  // Cost models. Each returns a kernel whose compute time already reflects
  // the device's shape-dependent efficiency.
  virtual sim::KernelDesc CostMatmul(const MatmulSpec& spec) const = 0;
  virtual sim::KernelDesc CostElementwise(const ElementwiseSpec& spec) const;
  virtual sim::KernelDesc CostAttention(const AttentionSpec& spec) const;

  // Host-side latency of enqueueing one kernel. `queue_empty` models the
  // extra submission latency a drained queue incurs (paper GPU-② — 50–100 µs
  // versus 10–20 µs when kernels are already queued).
  virtual MicroSeconds SubmitOverhead(bool queue_empty) const;

  // Effective dense-matmul throughput for this precision, flops/µs, before
  // shape effects. Used by the profiler's prediction mode.
  virtual double PeakMatmulRate(Precision precision) const = 0;

  // Enqueues `desc` on the simulated unit at `submit_time`.
  sim::KernelHandle Submit(const sim::KernelDesc& desc,
                           MicroSeconds submit_time);

  // Contention-free execution time of `desc` (launch + roofline max).
  // This is what the paper's profiler measures in real-execution mode on
  // otherwise-idle hardware.
  MicroSeconds IsolatedTime(const sim::KernelDesc& desc) const;

 protected:
  // Applies the unit's current effective frequency factor (thermal throttle ×
  // forced cap) to a freshly built cost: compute stretches by 1/f and active
  // power scales ~f² (DVFS lowers voltage with frequency; memory traffic is
  // unaffected). Exactly a no-op — bit-for-bit — while the factor is 1.0, so
  // every cost model calls this unconditionally.
  void ApplyOperatingPoint(sim::KernelDesc* desc) const;

  std::string name_;
  Backend backend_;
  sim::SocSimulator* soc_;
  sim::UnitId unit_;
  // "<name>:matmul" / ":elementwise" / ":attention", interned once.
  sim::LabelId matmul_label_ = 0;
  sim::LabelId elementwise_label_ = 0;
  sim::LabelId attention_label_ = 0;
  // Generic per-kernel device-side launch latency.
  MicroSeconds launch_overhead_us_ = 8.0;
  // Elementwise + attention throughput (flops/µs) for the default impls.
  double vector_rate_flops_per_us_ = 0.5e6;
};

}  // namespace heterollm::hal

#endif  // SRC_HAL_DEVICE_H_
