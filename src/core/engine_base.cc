#include "src/core/engine_base.h"

#include <algorithm>
#include <utility>

#include "src/common/rng.h"
#include "src/common/strings.h"
#include "src/core/schedule_executor.h"
#include "src/graph/builder.h"
#include "src/graph/passes.h"
#include "src/tensor/kernel_config.h"

namespace heterollm::core {

using model::ExecutionMode;
using tensor::QuantizedTensor;
using tensor::Shape;
using tensor::Tensor;

namespace {

// A multi-slot batch keeps every row's logits: with one row per slot each
// row is its session's last position, and a batched verify reads them all.
bool KeepsAllRowLogits(const StepBatch& batch) {
  return batch.all_rows_logits || batch.caches.size() > 1;
}

}  // namespace

EngineBase::EngineBase(Platform* platform,
                       const model::ModelWeights* weights,
                       const EngineOptions& options)
    : platform_(platform), weights_(weights), options_(options) {
  HCHECK(platform != nullptr && weights != nullptr);
  mode_ = weights->mode();
  kv_cache_ = std::make_unique<model::KvCache>(
      weights->config(), options.kv_capacity, mode_);
  // Conditions applied before construction (a t=0 trace entry) are the
  // baseline this engine plans against, not a change to react to.
  seen_epoch_ = platform_->soc().device_state_epoch();
  AcquireWorkspace();
  InternLabels();
}

void EngineBase::InternLabels() {
  sim::SocSimulator& soc = platform_->soc();
  for (size_t i = 0; i < kSiteCount; ++i) {
    const std::string site = MatmulSiteName(static_cast<MatmulSite>(i));
    SiteLabels& labels = site_labels_[i];
    for (hal::Backend b :
         {hal::Backend::kCpu, hal::Backend::kGpu, hal::Backend::kNpu}) {
      labels.sole[static_cast<size_t>(b)] =
          soc.InternLabel(site + ":" + hal::BackendName(b));
    }
    labels.gpu_cut = soc.InternLabel(site + ":gpu-cut");
    labels.npu_cut = soc.InternLabel(site + ":npu-cut");
    labels.gpu_seq = soc.InternLabel(site + ":gpu-seq");
    labels.act_quant = soc.InternLabel(site + ":act-quant");
  }
  rmsnorm_label_ = soc.InternLabel("rmsnorm");
  residual_label_ = soc.InternLabel("residual");
  swiglu_label_ = soc.InternLabel("swiglu");
  rope_label_ = soc.InternLabel("rope");
  for (int layer = 0; layer < weights_->config().num_layers; ++layer) {
    attn_labels_.push_back(soc.InternLabel(StrFormat("attn:L%d", layer)));
  }
}

sim::LabelId EngineBase::NpuSeqLabel(MatmulSite site, int64_t seg) {
  const int64_t key = seg * static_cast<int64_t>(kSiteCount) +
                      static_cast<int64_t>(site);
  auto it = npu_seq_labels_.find(key);
  if (it == npu_seq_labels_.end()) {
    it = npu_seq_labels_
             .emplace(key, platform_->soc().InternLabel(StrFormat(
                               "%s:npu-seq%lld", MatmulSiteName(site),
                               static_cast<long long>(seg))))
             .first;
  }
  return it->second;
}

void EngineBase::AcquireWorkspace() {
  // One persistent mapped buffer per activation role, sized for the largest
  // standard sequence; reused across every layer and step (§4.2). The map
  // costs are a one-time session setup charge.
  const auto& cfg = weights_->config();
  const int64_t max_seq =
      options_.standard_seq_sizes.empty() ? 1024
                                          : options_.standard_seq_sizes.back();
  const Bytes act_bytes = 2.0 * static_cast<double>(max_seq) *
                          static_cast<double>(std::max(
                              cfg.intermediate, std::max(cfg.hidden, cfg.q_dim())));
  constexpr int kWorkspaceSlots = 8;  // hidden, q, k, v, attn, gate, up, ffn
  for (int i = 0; i < kWorkspaceSlots; ++i) {
    hal::UnifiedMemoryPool::Allocation a = platform_->pool().Acquire(act_bytes);
    host_now_ += a.host_cost;
    workspace_slots_.push_back(a.slot);
  }
}

PhaseStats EngineBase::Step(const StepBatch& batch) {
  if (batch.caches.empty()) {
    StepBatch own = batch;
    own.caches = {kv_cache_.get()};
    return EngineBase::Step(own);
  }
  for (const model::KvCache* cache : batch.caches) {
    HCHECK_MSG(cache != nullptr, "null KV cache in the step batch");
  }
  const Shape& shape = batch.input.shape();
  const int64_t slots = static_cast<int64_t>(batch.caches.size());
  HCHECK(shape.rank() == 2);
  HCHECK_MSG(shape.rows() >= slots, "every slot needs at least one row");
  HCHECK_MSG(shape.rows() % slots == 0,
             "input rows must be a multiple of the slot count");
  HCHECK_MSG(shape.cols() == weights_->config().hidden,
             "input width must equal the model's hidden size");
  HCHECK_MSG(slots == 1 || mode_ == ExecutionMode::kSimulate,
             "a multi-slot batch is timing-only (ExecutionMode::kSimulate)");
  return RunStack(batch);
}

void EngineBase::PregenerateNpuGraphs(const std::vector<int64_t>& seq_lens,
                                      int64_t row_align) {
  HCHECK(row_align > 0);
  const auto& cfg = weights_->config();
  hal::NpuGraphCache& cache = platform_->graph_cache();
  struct Site {
    MatmulSite site;
    int64_t n;
    int64_t k;
  };
  std::vector<Site> layer_sites = {
      {MatmulSite::kQ, cfg.hidden, cfg.q_dim()},
      {MatmulSite::kK, cfg.hidden, cfg.kv_dim()},
      {MatmulSite::kV, cfg.hidden, cfg.kv_dim()},
      {MatmulSite::kO, cfg.q_dim(), cfg.hidden},
      {MatmulSite::kGate, cfg.hidden, cfg.intermediate},
      {MatmulSite::kUp, cfg.hidden, cfg.intermediate},
      {MatmulSite::kDown, cfg.intermediate, cfg.hidden},
  };
  if (options_.fuse_qkv) {
    // A fused network executes one QKV graph per layer in place of the
    // separate Wq/Wk/Wv graphs (which stay available for unfused shapes).
    layer_sites.push_back(
        {MatmulSite::kQkv, cfg.hidden, cfg.q_dim() + 2 * cfg.kv_dim()});
  }
  auto prepare_site = [&](int64_t m, int64_t op, int64_t n, int64_t k) {
    cache.Prepare({m, n, k, op});
    // Row-cut slices of the output dimension land on row_align-aligned
    // sub-shapes; pre-compile those too.
    for (int64_t k_cut = row_align; k_cut < k; k_cut += row_align) {
      cache.Prepare({m, n, k_cut, op});
    }
  };
  for (int64_t m : seq_lens) {
    for (int layer = 0; layer < cfg.num_layers; ++layer) {
      for (const Site& s : layer_sites) {
        prepare_site(m, GraphOpId(layer, s.site), s.n, s.k);
      }
    }
    prepare_site(m, GraphOpId(0, MatmulSite::kLmHead), cfg.hidden, cfg.vocab);
  }
}

void EngineBase::EnsureVisible(Value& v, hal::Device& consumer) {
  std::vector<std::pair<hal::Device*, sim::KernelHandle>> kept;
  std::vector<sim::KernelHandle> to_wait;
  for (auto& [dev, kernel] : v.deps) {
    if (dev == &consumer) {
      kept.emplace_back(dev, kernel);  // FIFO queue order synchronizes
      continue;
    }
    if (synced_kernels_.insert(kernel).second) {
      to_wait.push_back(kernel);
    }
  }
  host_now_ = platform_->sync().WaitKernels(platform_->soc(), to_wait,
                                            host_now_, sync_mode());
  v.deps = std::move(kept);
}

void EngineBase::EnsureHost(Value& v) {
  std::vector<sim::KernelHandle> to_wait;
  for (auto& [dev, kernel] : v.deps) {
    if (synced_kernels_.insert(kernel).second) {
      to_wait.push_back(kernel);
    } else {
      // Already synced elsewhere; ensure the host clock is past it.
      host_now_ =
          std::max(host_now_, platform_->soc().CompletionTime(kernel));
    }
  }
  host_now_ = platform_->sync().WaitKernels(platform_->soc(), to_wait,
                                            host_now_, sync_mode());
  v.deps.clear();
}

EngineBase::Value EngineBase::SubmitKernel(hal::Device& dev,
                                           sim::KernelDesc desc,
                                           std::initializer_list<Value*> inputs,
                                           Tensor out) {
  for (Value* input : inputs) {
    EnsureVisible(*input, dev);
  }
  // The drained-queue resubmission penalty (GPU-②, 50–100 µs) is a property
  // of driver-level synchronization: the sync call tears the ring down and
  // the next submission re-arms it. Fast sync observes completion through a
  // unified-memory flag without touching the driver, so a momentarily empty
  // queue stays armed and costs only the normal enqueue latency.
  const bool drained = !platform_->soc().UnitHasWork(dev.unit()) &&
                       sync_mode() == hal::SyncMode::kBaseline;
  host_now_ += dev.SubmitOverhead(drained);
  if (dev.backend() == hal::Backend::kGpu) {
    desc.power_scale = options_.gpu_power_scale;
  }
  sim::KernelHandle handle = dev.Submit(desc, host_now_);
  Value v;
  v.tensor = std::move(out);
  v.deps.emplace_back(&dev, handle);
  return v;
}

Tensor EngineBase::MatmulNumeric(
    const Tensor& a, const std::vector<const QuantizedTensor*>& parts,
    int64_t k_begin, int64_t k_end) const {
  bool deferred = mode_ == ExecutionMode::kSimulate || !a.has_data();
  for (const QuantizedTensor* w : parts) {
    deferred = deferred || !w->has_data();
  }
  if (deferred) {
    return Tensor::Deferred(Shape({a.shape().rows(), k_end - k_begin}),
                            tensor::DType::kFp16);
  }
  // Each part contributes the output-feature range it owns within the
  // concatenated weight; output columns are independent, so per-part matmuls
  // concatenated column-wise are bit-identical to one matmul against the
  // concatenated weight.
  std::vector<Tensor> pieces;
  int64_t offset = 0;
  for (const QuantizedTensor* w : parts) {
    const int64_t cols = w->shape().cols();
    const int64_t lo = std::max(k_begin, offset);
    const int64_t hi = std::min(k_end, offset + cols);
    if (lo < hi) {
      if (int_activation_path()) {
        // INT-offload engines really compute through the quantized-activation
        // pipeline, so their (reduced) accuracy is measurable.
        Tensor full = tensor::ops::MatmulInt8(a, *w);
        pieces.push_back(lo == offset && hi == offset + cols
                             ? full
                             : full.SliceCols(lo - offset, hi - offset));
      } else if (lo == offset && hi == offset + cols) {
        pieces.push_back(tensor::ops::Matmul(a, w->DequantizedCached()));
      } else {
        // Compute only the output-feature slice this backend owns, against
        // the weight's cached FP32 image (dequantized once per process, not
        // once per call).
        pieces.push_back(tensor::ops::MatmulCols(a, w->DequantizedCached(),
                                                 lo - offset, hi - offset));
      }
    }
    offset += cols;
  }
  HCHECK(!pieces.empty());
  return pieces.size() == 1 ? pieces[0] : Tensor::ConcatCols(pieces);
}

hal::Precision EngineBase::MatmulPrecision(Phase phase) const {  // NOLINT
  // Paper footnote 2: the NPU lacks a W4A16 decoding path, so decoding-phase
  // NPU matmuls use the INT pipeline; prefill stays FLOAT.
  return phase == Phase::kDecode ? hal::Precision::kInt8
                                 : hal::Precision::kFp16;
}

EngineBase::Value EngineBase::ExecuteMatmulPlanned(
    MatmulSite site, int64_t op_id, const MatmulPlan& plan, Value& input,
    const std::vector<const QuantizedTensor*>& parts, Phase phase,
    bool graphs_confirmed) {
  HCHECK(!parts.empty());
  MatmulShape shape;
  shape.m = input.tensor.shape().rows();
  shape.n = parts[0]->shape().rows();
  shape.k = 0;
  for (const QuantizedTensor* w : parts) {
    shape.k += w->shape().cols();
  }
  shape.precision = hal::Precision::kFp16;

  const SiteLabels& labels = site_labels_[static_cast<size_t>(site)];
  if (int_activation_path()) {
    // INT-offload datapath: quantize activations and extract outliers on
    // the CPU before every NPU matmul (MLLM-NPU's design).
    hal::Device& cpu_dev = platform_->cpu();
    hal::ElementwiseSpec quant_spec;
    quant_spec.elems = shape.m * shape.n;
    quant_spec.flops_per_elem = 8.0;
    quant_spec.bytes_per_elem = 3.0;
    sim::KernelDesc qdesc = cpu_dev.CostElementwise(quant_spec);
    qdesc.label = labels.act_quant;
    input = SubmitKernel(cpu_dev, qdesc, {&input}, input.tensor);
  }

  hal::GpuDevice& gpu = platform_->gpu();
  hal::NpuDevice& npu = platform_->npu();
  hal::NpuGraphCache& cache = platform_->graph_cache();

  auto ensure_graph = [&](int64_t m, int64_t n, int64_t k) {
    if (graphs_confirmed) {
      return;
    }
    hal::NpuGraphKey key{m, n, k, op_id};
    if (graph_policy() == GraphPolicy::kOnline) {
      const MicroSeconds cost = cache.Prepare(key);
      host_now_ += cost;
      graph_gen_accum_ += cost;
    } else {
      HCHECK_MSG(cache.Contains(key),
                 StrFormat("missing NPU graph for [%lld,%lld,%lld] at %s",
                           static_cast<long long>(m),
                           static_cast<long long>(n),
                           static_cast<long long>(k), MatmulSiteName(site)));
    }
  };

  auto npu_spec = [&](int64_t m, int64_t k) {
    MatmulShape s = shape;
    s.m = m;
    s.k = k;
    s.precision = MatmulPrecision(phase);
    return NpuMatmulSpec(s);
  };

  switch (plan.kind) {
    case PartitionKind::kNone: {
      hal::Device& dev = platform_->device(plan.sole_backend);
      Tensor out = MatmulNumeric(input.tensor, parts, 0, shape.k);
      sim::KernelDesc desc;
      if (plan.sole_backend == hal::Backend::kNpu) {
        ensure_graph(shape.m, shape.n, shape.k);
        desc = npu.CostMatmul(npu_spec(shape.m, shape.k));
      } else {
        desc = dev.CostMatmul(MatmulSpecFor(plan.sole_backend, shape));
      }
      desc.label = labels.sole[static_cast<size_t>(plan.sole_backend)];
      return SubmitKernel(dev, desc, {&input}, std::move(out));
    }

    case PartitionKind::kRowCut:
    case PartitionKind::kHybridCut: {
      const int64_t k_npu = plan.npu_out_features;
      HCHECK(k_npu > 0 && k_npu <= shape.k);
      const int64_t k_gpu = shape.k - k_npu;
      const int64_t npu_m = plan.kind == PartitionKind::kHybridCut &&
                                    plan.npu_padded_seq > 0
                                ? plan.npu_padded_seq
                                : shape.m;

      // GPU piece first: in the NPU-dominant prefill its execution hides
      // under the NPU kernel (Fig. 11); in decode it primes the GPU queue.
      Value gpu_piece;
      bool has_gpu_piece = k_gpu > 0;
      if (has_gpu_piece) {
        MatmulShape gshape = shape;
        gshape.k = k_gpu;
        Tensor gout = MatmulNumeric(input.tensor, parts, k_npu, shape.k);
        sim::KernelDesc gdesc = gpu.CostMatmul(GpuMatmulSpec(gshape));
        gdesc.label = labels.gpu_cut;
        gpu_piece = SubmitKernel(gpu, gdesc, {&input}, std::move(gout));
      }

      ensure_graph(npu_m, shape.n, k_npu);
      Tensor nout = MatmulNumeric(input.tensor, parts, 0, k_npu);
      sim::KernelDesc ndesc = npu.CostMatmul(npu_spec(npu_m, k_npu));
      ndesc.label = labels.npu_cut;
      Value npu_piece = SubmitKernel(npu, ndesc, {&input}, std::move(nout));

      // Merge. The pieces write disjoint column ranges of one unified
      // buffer, so the merge itself is free; the host only needs the
      // completion guarantees.
      Value merged;
      merged.tensor =
          has_gpu_piece
              ? Tensor::ConcatCols({npu_piece.tensor, gpu_piece.tensor})
              : std::move(npu_piece.tensor);
      if (has_gpu_piece && phase == Phase::kDecode) {
        // GPU-dominant pipelining: leave the GPU piece pending; queue order
        // synchronizes any same-device consumer, and a cross-device
        // consumer will fast-sync on it (§4.2).
        EnsureHost(npu_piece);
        merged.deps = std::move(gpu_piece.deps);
      } else {
        // One (batched) wait covers both pieces.
        merged.deps = std::move(npu_piece.deps);
        if (has_gpu_piece) {
          merged.deps.insert(merged.deps.end(), gpu_piece.deps.begin(),
                             gpu_piece.deps.end());
        }
        EnsureHost(merged);
      }
      host_now_ += options_.merge_cost_us;
      return merged;
    }

    case PartitionKind::kSeqCut: {
      int64_t npu_rows = 0;
      for (int64_t seg : plan.npu_seq_segments) {
        npu_rows += seg;
      }
      // The static segments may overshoot the true length (Pipe pads its
      // margin into the smallest graph); numerics only use real rows.
      const int64_t npu_real_rows = std::min(npu_rows, shape.m);
      const int64_t gpu_rows = shape.m - npu_real_rows;

      std::vector<Value> pieces;
      std::vector<Tensor> piece_tensors;
      int64_t row = 0;
      for (int64_t seg : plan.npu_seq_segments) {
        const int64_t r0 = row;
        const int64_t r1 = std::min(row + seg, npu_real_rows);
        if (r1 <= r0) {
          break;
        }
        ensure_graph(seg, shape.n, shape.k);
        Tensor slice = input.tensor.SliceRows(r0, r1);
        Tensor out = MatmulNumeric(slice, parts, 0, shape.k);
        sim::KernelDesc desc = npu.CostMatmul(npu_spec(seg, shape.k));
        desc.label = NpuSeqLabel(site, seg);
        pieces.push_back(SubmitKernel(npu, desc, {&input}, std::move(out)));
        row = r1;
      }
      if (gpu_rows > 0) {
        MatmulShape gshape = shape;
        gshape.m = gpu_rows;
        Tensor slice = input.tensor.SliceRows(npu_real_rows, shape.m);
        Tensor out = MatmulNumeric(slice, parts, 0, shape.k);
        sim::KernelDesc desc = gpu.CostMatmul(GpuMatmulSpec(gshape));
        desc.label = labels.gpu_seq;
        pieces.push_back(SubmitKernel(gpu, desc, {&input}, std::move(out)));
      }
      HCHECK(!pieces.empty());

      Value merged;
      piece_tensors.reserve(pieces.size());
      for (Value& p : pieces) {
        piece_tensors.push_back(p.tensor);
        merged.deps.insert(merged.deps.end(), p.deps.begin(), p.deps.end());
      }
      merged.tensor = piece_tensors.size() == 1
                          ? std::move(piece_tensors[0])
                          : Tensor::ConcatRows(piece_tensors);
      EnsureHost(merged);  // one batched wait across all pieces
      host_now_ += options_.merge_cost_us;
      return merged;
    }
  }
  HCHECK_MSG(false, "unknown partition kind");
  __builtin_unreachable();
}

EngineBase::Value EngineBase::VectorOp(sim::LabelId label,
                                       double flops_per_elem,
                                       double bytes_per_elem,
                                       std::initializer_list<Value*> inputs,
                                       Tensor out) {
  hal::Device& dev = platform_->device(vector_backend());
  hal::ElementwiseSpec spec;
  spec.elems = (*inputs.begin())->tensor.numel();
  spec.flops_per_elem = flops_per_elem;
  spec.bytes_per_elem = bytes_per_elem;
  sim::KernelDesc desc = dev.CostElementwise(spec);
  desc.label = label;
  return SubmitKernel(dev, desc, inputs, std::move(out));
}

EngineBase::Value EngineBase::RmsNorm(Value& x, const Tensor& gamma) {
  return VectorOp(rmsnorm_label_, 4.0, 4.0, {&x},
                  tensor::ops::RmsNorm(x.tensor, gamma));
}

EngineBase::Value EngineBase::Add(Value& a, Value& b) {
  return VectorOp(residual_label_, 1.0, 6.0, {&a, &b},
                  tensor::ops::Add(a.tensor, b.tensor));
}

EngineBase::Value EngineBase::SwiGlu(Value& gate, Value& up) {
  return VectorOp(swiglu_label_, 6.0, 6.0, {&gate, &up},
                  tensor::ops::SwiGlu(gate.tensor, up.tensor));
}

EngineBase::Value EngineBase::Rope(Value& x, int64_t pos_offset) {
  Tensor out = x.tensor;
  tensor::ops::ApplyRope(out, pos_offset, weights_->config().head_dim);
  return VectorOp(rope_label_, 6.0, 4.0, {&x}, std::move(out));
}

EngineBase::Value EngineBase::AttendLayer(const StepBatch& batch, int layer,
                                          Value& q, Value& k, Value& v) {
  const auto& cfg = weights_->config();
  const size_t slots = batch.caches.size();
  const int64_t per = batch.input.shape().rows() / static_cast<int64_t>(slots);
  // The cache append itself is a strided device-side write folded into the
  // projection kernels; attention's kernel dependencies flow through q/k/v.
  if (slots == 1) {
    batch.caches[0]->AppendLayer(layer, k.tensor, v.tensor);
  } else {
    for (size_t slot = 0; slot < slots; ++slot) {
      const int64_t r = static_cast<int64_t>(slot) * per;
      batch.caches[slot]->AppendLayer(layer, k.tensor.SliceRows(r, r + per),
                                      v.tensor.SliceRows(r, r + per));
    }
  }
  // Attention (on the vector backend) must see k/v results.
  hal::Device& dev = platform_->device(vector_backend());
  EnsureVisible(k, dev);
  EnsureVisible(v, dev);

  Value out;
  for (model::KvCache* cache : batch.caches) {
    // Causal: query row i of the slot attends to kv_len - per + i + 1
    // positions; charge the average span rather than the full rectangle.
    const int64_t kv_len = cache->visible_rows(layer);
    hal::AttentionSpec spec;
    spec.m = per;
    spec.t = kv_len - per + (per + 1) / 2;
    spec.num_heads = cfg.num_heads;
    spec.num_kv_heads = cfg.num_kv_heads;
    spec.head_dim = cfg.head_dim;
    sim::KernelDesc desc = dev.CostAttention(spec);
    desc.label = attn_labels_[static_cast<size_t>(layer)];
    Value piece = SubmitKernel(dev, desc, {&q}, Tensor());
    out.deps.insert(out.deps.end(), piece.deps.begin(), piece.deps.end());
  }
  if (slots == 1) {
    // The query rows continue from the committed length (this step's rows
    // stay pending until the commit).
    const model::KvCache& cache = *batch.caches[0];
    const tensor::AttentionParams params{cfg.num_heads, cfg.num_kv_heads,
                                         cfg.head_dim, cache.length()};
    out.tensor = tensor::GqaAttention(q.tensor, cache.View(layer), params);
  } else {
    out.tensor = Tensor::Deferred(
        Shape({static_cast<int64_t>(slots) * per, cfg.q_dim()}),
        tensor::DType::kFp16);
  }
  return out;
}

PhaseStats EngineBase::RunStack(const StepBatch& batch) {
  // Pin the compute-kernel thread count for everything this step runs
  // (matmuls, norms, attention). Numerics are bit-exact across settings;
  // only host wall-clock changes.
  tensor::KernelThreadScope kernel_scope(options_.kernel_threads);
  RefreshDeviceState();
  synced_kernels_.clear();
  // One transactional KV step per session slot: every layer must append its
  // rows before the commit below, or the cache aborts — the per-layer
  // "all layers appended the same rows" contract is enforced here instead
  // of trusted.
  const int64_t rows = batch.input.shape().rows();
  const int64_t per_slot = rows / static_cast<int64_t>(batch.caches.size());
  for (model::KvCache* cache : batch.caches) {
    cache->BeginStep(per_slot);
  }
  PhaseStats stats = ScheduleExecutor(this).Run(
      ScheduleFor(batch.phase, rows, KeepsAllRowLogits(batch)), batch);
  for (model::KvCache* cache : batch.caches) {
    cache->CommitStep();
  }
  return stats;
}

graph::CompiledSchedule& EngineBase::ScheduleFor(Phase phase, int64_t rows,
                                                 bool serving) {
  const uint64_t key = (static_cast<uint64_t>(rows) << 2) |
                       (phase == Phase::kDecode ? 2u : 0u) | (serving ? 1u : 0u);
  auto it = schedule_cache_.find(key);
  if (it != schedule_cache_.end()) {
    return it->second;
  }
  // Compile once per bucket: the pipeline below (including every PlanMatmul
  // consultation) runs exactly once, then replays from the cache.
  const auto& cfg = weights_->config();
  graph::Graph g = graph::BuildModelGraph(cfg);
  Status shaped = graph::InferShapes(&g, cfg, rows);
  HCHECK_MSG(shaped.ok(), shaped.message().c_str());
  // FuseSiluMul always applies: the engine runs SwiGLU as one fused kernel
  // (CompileSchedule rejects a live SiLU/Mul). FuseQkv changes kernel
  // granularity, so it is opt-in.
  g = graph::FuseSiluMul(g).graph;
  if (options_.fuse_qkv) {
    g = graph::FuseQkv(g).graph;
  }
  g = graph::EliminateDeadNodes(g).graph;
  shaped = graph::InferShapes(&g, cfg, rows);
  HCHECK_MSG(shaped.ok(), shaped.message().c_str());
  StatusOr<graph::PlacedGraph> placed =
      graph::PlaceGraph(g, phase, this, serving);
  HCHECK_MSG(placed.ok(), placed.status().message().c_str());
  StatusOr<graph::CompiledSchedule> sched = graph::CompileSchedule(
      placed.value());
  HCHECK_MSG(sched.ok(), sched.status().message().c_str());
  ++schedule_compiles_;
  return schedule_cache_.emplace(key, std::move(sched.value())).first->second;
}

bool EngineBase::ScheduleUsesBackend(
    const graph::CompiledSchedule& sched,
    const std::vector<hal::Backend>& changed) const {
  auto hit = [&](hal::Backend b) {
    return std::find(changed.begin(), changed.end(), b) != changed.end();
  };
  // Vector ops (norms, RoPE, attention, activations) all run on the
  // engine's vector backend.
  if (hit(vector_backend())) {
    return true;
  }
  for (const graph::ScheduleStep& step : sched.steps) {
    if (step.kind != graph::StepKind::kMatmul) {
      continue;
    }
    if (step.plan.kind == PartitionKind::kNone) {
      if (hit(step.plan.sole_backend)) {
        return true;
      }
    } else if (hit(hal::Backend::kGpu) || hit(hal::Backend::kNpu)) {
      // Every partition kind splits work between GPU and NPU.
      return true;
    }
  }
  return false;
}

void EngineBase::RefreshDeviceState() {
  const sim::SocSimulator& soc = platform_->soc();
  const uint64_t epoch = soc.device_state_epoch();
  if (epoch == seen_epoch_) {
    return;
  }
  if (!options_.reactive_replanning) {
    // Frozen-plan mode: acknowledge the epoch so the check stays O(1), keep
    // every cache as-is.
    seen_epoch_ = epoch;
    return;
  }
  std::vector<hal::Backend> changed;
  for (hal::Backend b :
       {hal::Backend::kCpu, hal::Backend::kGpu, hal::Backend::kNpu}) {
    if (soc.unit_state_epoch(platform_->device(b).unit()) > seen_epoch_) {
      changed.push_back(b);
    }
  }
  seen_epoch_ = epoch;
  if (changed.empty()) {
    return;
  }
  for (auto it = schedule_cache_.begin(); it != schedule_cache_.end();) {
    if (ScheduleUsesBackend(it->second, changed)) {
      it = schedule_cache_.erase(it);
    } else {
      ++it;
    }
  }
  OnDeviceStateChange(changed);
  ++replan_events_;
  host_now_ += options_.replan_cost_us;
}

GenerationStats EngineBase::Generate(int prompt_len, int decode_len) {
  ResetSession();
  // Snapshot (not Reset) so concurrent workloads on the platform keep their
  // queues: anything executing inside the window — including interference
  // kernels submitted by other workloads — is charged to this window.
  const sim::PowerSnapshot power_start = platform_->soc().power().Snapshot();
  const int replan_start = replan_events_;
  const MicroSeconds window_start = host_now_;

  Rng rng(7);
  auto make_input = [&](int rows) {
    Shape shape({rows, weights_->config().hidden});
    if (mode_ == ExecutionMode::kCompute) {
      return Tensor::Random(shape, rng, 0.1f, tensor::DType::kFp16);
    }
    return Tensor::Deferred(shape, tensor::DType::kFp16);
  };

  GenerationStats stats;
  stats.prefill = Prefill(make_input(prompt_len));
  for (int i = 0; i < decode_len; ++i) {
    PhaseStats step = DecodeStep(make_input(1));
    stats.decode_time += step.latency;
    ++stats.decode_tokens;
  }

  platform_->soc().DrainAll();
  host_now_ = std::max(host_now_, platform_->soc().now());
  const MicroSeconds window = host_now_ - window_start;
  // Windowed accounting: deltas against the start snapshot, so back-to-back
  // Generate calls (and anything the platform ran before) don't leak
  // activity into each other's energy numbers.
  stats.energy =
      platform_->soc().power().TotalEnergySince(power_start, window);
  stats.avg_power_watts =
      platform_->soc().power().AveragePowerWattsSince(power_start, window);
  stats.replan_events = replan_events_ - replan_start;
  return stats;
}

}  // namespace heterollm::core
