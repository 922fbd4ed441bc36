#include "src/tensor/attention.h"

#include <algorithm>
#include <cmath>
#include <vector>

#include "src/common/status.h"
#include "src/tensor/kernel_config.h"

namespace heterollm::tensor {

namespace {

// Reference scalar path: the seed repo's loops, kept verbatim as the
// equivalence oracle (see kernel_config.h). It reads contiguous copies of
// the cache rows, gathered through the paged view.
void GqaAttentionScalar(const Tensor& q, const Tensor& k_cache,
                        const Tensor& v_cache, const AttentionParams& params,
                        Tensor& out) {
  const int64_t m = q.shape().rows();
  const int hd = params.head_dim;
  const int group = params.num_heads / params.num_kv_heads;
  const float inv_sqrt_d = 1.0f / std::sqrt(static_cast<float>(hd));
  std::vector<double> scores;

  for (int64_t i = 0; i < m; ++i) {
    const int64_t span = params.q_pos_offset + i + 1;  // causal window
    for (int h = 0; h < params.num_heads; ++h) {
      const int kv_h = h / group;
      const int64_t q_col0 = static_cast<int64_t>(h) * hd;
      const int64_t kv_col0 = static_cast<int64_t>(kv_h) * hd;

      scores.assign(static_cast<size_t>(span), 0.0);
      double max_score = -1e30;
      for (int64_t t = 0; t < span; ++t) {
        double dot = 0;
        for (int d = 0; d < hd; ++d) {
          dot += static_cast<double>(q.At(i, q_col0 + d)) *
                 k_cache.At(t, kv_col0 + d);
        }
        scores[static_cast<size_t>(t)] = dot * inv_sqrt_d;
        max_score = std::max(max_score, scores[static_cast<size_t>(t)]);
      }
      double denom = 0;
      for (int64_t t = 0; t < span; ++t) {
        scores[static_cast<size_t>(t)] =
            std::exp(scores[static_cast<size_t>(t)] - max_score);
        denom += scores[static_cast<size_t>(t)];
      }
      for (int d = 0; d < hd; ++d) {
        double acc = 0;
        for (int64_t t = 0; t < span; ++t) {
          acc += scores[static_cast<size_t>(t)] * v_cache.At(t, kv_col0 + d);
        }
        out.Set(i, q_col0 + d, static_cast<float>(acc / denom));
      }
    }
  }
}

// Calls fn(t, row) for t = 0 .. span - 1 in ascending order, `row` pointing
// at column `col0` of cache row t. Walks block by block, so within a block
// the rows are a plain pointer stride.
template <typename Fn>
void ForEachRow(const std::vector<const float*>& blocks, const PagedKv& kv,
                int64_t col0, int64_t span, Fn&& fn) {
  for (int64_t t0 = 0; t0 < span; t0 += kv.block_tokens) {
    const float* row =
        blocks[static_cast<size_t>(t0 / kv.block_tokens)] + col0;
    const int64_t end = std::min(span, t0 + kv.block_tokens);
    for (int64_t t = t0; t < end; ++t, row += kv.kv_cols) {
      fn(t, row);
    }
  }
}

// Blocked path: flat (row, head) work items fanned out over the pool; each
// item owns the disjoint output slice [i, h*hd .. (h+1)*hd) and repeats the
// scalar path's per-element FP order (score dots ascend over d, softmax and
// the value reduction ascend over t), so results are bit-exact at any
// thread count. Raw-pointer accesses replace the bounds-checked At()/Set()
// calls, and the value pass runs t-outer so V rows stream contiguously.
void GqaAttentionBlocked(const Tensor& q, const PagedKv& kv,
                         const AttentionParams& params, Tensor& out) {
  const int64_t m = q.shape().rows();
  const int hd = params.head_dim;
  const int num_heads = params.num_heads;
  const int group = num_heads / params.num_kv_heads;
  const float inv_sqrt_d = 1.0f / std::sqrt(static_cast<float>(hd));
  const int64_t q_cols = q.shape().cols();
  const float* qv = q.data().data();
  float* ov = out.mutable_data().data();

  KernelParallelFor(
      m * num_heads, /*grain=*/1, [&](int64_t w0, int64_t w1) {
        std::vector<double> scores;
        std::vector<double> acc(static_cast<size_t>(hd));
        for (int64_t w = w0; w < w1; ++w) {
          const int64_t i = w / num_heads;
          const int h = static_cast<int>(w % num_heads);
          const int64_t span = params.q_pos_offset + i + 1;  // causal window
          const int kv_h = h / group;
          const float* qrow = qv + i * q_cols + static_cast<int64_t>(h) * hd;
          const int64_t kv_col0 = static_cast<int64_t>(kv_h) * hd;

          scores.assign(static_cast<size_t>(span), 0.0);
          double max_score = -1e30;
          ForEachRow(kv.k_blocks, kv, kv_col0, span,
                     [&](int64_t t, const float* krow) {
                       double dot = 0;
                       for (int d = 0; d < hd; ++d) {
                         dot += static_cast<double>(qrow[d]) * krow[d];
                       }
                       scores[static_cast<size_t>(t)] = dot * inv_sqrt_d;
                       max_score =
                           std::max(max_score, scores[static_cast<size_t>(t)]);
                     });
          double denom = 0;
          for (int64_t t = 0; t < span; ++t) {
            scores[static_cast<size_t>(t)] =
                std::exp(scores[static_cast<size_t>(t)] - max_score);
            denom += scores[static_cast<size_t>(t)];
          }
          std::fill(acc.begin(), acc.end(), 0.0);
          ForEachRow(kv.v_blocks, kv, kv_col0, span,
                     [&](int64_t t, const float* vrow) {
                       const double s = scores[static_cast<size_t>(t)];
                       for (int d = 0; d < hd; ++d) {
                         acc[static_cast<size_t>(d)] += s * vrow[d];
                       }
                     });
          float* orow = ov + i * q_cols + static_cast<int64_t>(h) * hd;
          for (int d = 0; d < hd; ++d) {
            orow[d] =
                static_cast<float>(acc[static_cast<size_t>(d)] / denom);
          }
        }
      });
}

}  // namespace

Tensor GatherRows(const PagedKv& kv, bool want_v) {
  Tensor out = Tensor::Zeros(Shape({kv.rows, kv.kv_cols}), DType::kFp16);
  float* dst = out.mutable_data().data();
  ForEachRow(want_v ? kv.v_blocks : kv.k_blocks, kv, 0, kv.rows,
             [&](int64_t t, const float* row) {
               std::copy(row, row + kv.kv_cols, dst + t * kv.kv_cols);
             });
  return out;
}

Tensor GqaAttention(const Tensor& q, const PagedKv& kv,
                    const AttentionParams& params) {
  HCHECK(params.num_heads > 0 && params.num_kv_heads > 0 &&
         params.head_dim > 0);
  HCHECK(params.num_heads % params.num_kv_heads == 0);
  HCHECK(q.shape().rank() == 2);
  HCHECK(q.shape().cols() ==
         static_cast<int64_t>(params.num_heads) * params.head_dim);
  HCHECK(kv.kv_cols ==
         static_cast<int64_t>(params.num_kv_heads) * params.head_dim);
  HCHECK(kv.block_tokens >= 1);

  const int64_t m = q.shape().rows();
  if (!q.has_data() || !kv.has_data()) {
    return Tensor::Deferred(q.shape(), q.dtype());
  }
  HCHECK_MSG(kv.rows >= params.q_pos_offset + m,
             "KV cache shorter than attended span");
  const size_t blocks =
      static_cast<size_t>((kv.rows + kv.block_tokens - 1) / kv.block_tokens);
  HCHECK_MSG(kv.k_blocks.size() >= blocks && kv.v_blocks.size() >= blocks,
             "paged KV view is missing blocks");

  Tensor out = Tensor::Zeros(q.shape(), q.dtype());
  if (ResolveKernelConfig().reference) {
    GqaAttentionScalar(q, GatherRows(kv, /*want_v=*/false),
                       GatherRows(kv, /*want_v=*/true), params, out);
  } else {
    GqaAttentionBlocked(q, kv, params, out);
  }
  return out;
}

Tensor GqaAttention(const Tensor& q, const Tensor& k_cache,
                    const Tensor& v_cache, const AttentionParams& params) {
  HCHECK(k_cache.shape().rank() == 2 && k_cache.shape() == v_cache.shape());
  const int64_t rows = k_cache.shape().rows();
  PagedKv kv{{}, {}, std::max<int64_t>(1, rows), rows, k_cache.shape().cols()};
  if (k_cache.has_data() && v_cache.has_data()) {
    kv.k_blocks = {k_cache.data().data()};
    kv.v_blocks = {v_cache.data().data()};
  }
  return GqaAttention(q, kv, params);
}

}  // namespace heterollm::tensor
