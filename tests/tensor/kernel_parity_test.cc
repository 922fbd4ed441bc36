// Threaded-vs-scalar bit-exactness for every rewritten kernel.
//
// The contract (src/tensor/kernel_config.h): num_threads == 1 runs the seed
// repo's scalar loops (the oracle); any other setting runs the blocked,
// pooled kernels. Because each output element keeps the oracle's per-element
// FP accumulation order, the paths must agree to the last bit — every
// comparison below is MaxAbsDiff == 0, not a tolerance.

#include <algorithm>
#include <cmath>
#include <limits>
#include <vector>

#include <gtest/gtest.h>

#include "src/tensor/attention.h"
#include "src/tensor/kernel_config.h"
#include "src/tensor/ops.h"
#include "src/tensor/quant.h"

namespace heterollm::tensor {
namespace {

void ExpectBitExactAcrossThreads(const std::function<Tensor()>& fn) {
  Tensor oracle;
  {
    KernelThreadScope scope(1);
    oracle = fn();
  }
  // The process default is 0 = auto (hardware concurrency); running with no
  // override exercises the blocked path exactly as the engines see it.
  {
    Tensor blocked = fn();
    EXPECT_EQ(Tensor::MaxAbsDiff(oracle, blocked), 0.0f)
        << "auto thread count diverged from the scalar oracle";
  }
  for (int threads : {2, 3, 8}) {
    KernelThreadScope scope(threads);
    Tensor blocked = fn();
    EXPECT_EQ(Tensor::MaxAbsDiff(oracle, blocked), 0.0f)
        << "blocked kernel diverged from the scalar oracle at " << threads
        << " threads";
  }
}

// Shapes chosen to stress the tiling: rows/cols not divisible by the 8-row
// panels, 32-col tiles or chunk grains, including single-row decodes.
struct MatShape {
  int64_t m, n, k;
};
const MatShape kMatShapes[] = {
    {1, 37, 19}, {13, 64, 70}, {33, 96, 65}, {8, 32, 32}, {7, 5, 3}};

TEST(KernelParityTest, MatmulBitExactAcrossThreadCounts) {
  for (const MatShape& s : kMatShapes) {
    Rng rng(101);
    Tensor a = Tensor::Random(Shape({s.m, s.n}), rng);
    Tensor b = Tensor::Random(Shape({s.n, s.k}), rng);
    ExpectBitExactAcrossThreads([&] { return ops::Matmul(a, b); });
  }
}

TEST(KernelParityTest, MatmulColsMatchesSlicedMatmul) {
  Rng rng(102);
  Tensor a = Tensor::Random(Shape({9, 48}), rng);
  Tensor b = Tensor::Random(Shape({48, 50}), rng);
  for (int threads : {1, 2, 8}) {
    KernelThreadScope scope(threads);
    Tensor whole = ops::Matmul(a, b).SliceCols(5, 43);
    Tensor cols = ops::MatmulCols(a, b, 5, 43);
    EXPECT_EQ(Tensor::MaxAbsDiff(whole, cols), 0.0f);
  }
  ExpectBitExactAcrossThreads([&] { return ops::MatmulCols(a, b, 5, 43); });
}

TEST(KernelParityTest, MatmulQuantBitExactAcrossThreadCounts) {
  Rng rng(103);
  Tensor a = Tensor::Random(Shape({13, 70}), rng);
  // rows % group_size != 0: ragged final quantization group.
  QuantizedTensor w =
      QuantizedTensor::Quantize(Tensor::Random(Shape({70, 33}), rng, 0.1f), 32);
  ExpectBitExactAcrossThreads([&] { return ops::MatmulQuant(a, w); });
}

TEST(KernelParityTest, MatmulInt8BitExactAcrossThreadCounts) {
  Rng rng(104);
  Tensor a = Tensor::Random(Shape({13, 70}), rng, 0.2f);
  QuantizedTensor w =
      QuantizedTensor::Quantize(Tensor::Random(Shape({70, 33}), rng, 0.1f), 32);
  ExpectBitExactAcrossThreads([&] { return ops::MatmulInt8(a, w); });
}

TEST(KernelParityTest, RmsNormBitExactAcrossThreadCounts) {
  Rng rng(105);
  Tensor x = Tensor::Random(Shape({19, 67}), rng);
  Tensor gamma = Tensor::Random(Shape({1, 67}), rng);
  ExpectBitExactAcrossThreads([&] { return ops::RmsNorm(x, gamma); });
}

TEST(KernelParityTest, SiluSwiGluSoftmaxBitExactAcrossThreadCounts) {
  Rng rng(106);
  Tensor x = Tensor::Random(Shape({21, 53}), rng, 2.0f);
  Tensor y = Tensor::Random(Shape({21, 53}), rng);
  ExpectBitExactAcrossThreads([&] { return ops::Silu(x); });
  ExpectBitExactAcrossThreads([&] { return ops::SwiGlu(x, y); });
  ExpectBitExactAcrossThreads([&] { return ops::SoftmaxRows(x); });
  ExpectBitExactAcrossThreads([&] { return ops::Add(x, y); });
  ExpectBitExactAcrossThreads([&] { return ops::Mul(x, y); });
}

TEST(KernelParityTest, ApplyRopeBitExactAcrossThreadCounts) {
  Rng rng(107);
  const Tensor base = Tensor::Random(Shape({11, 24}), rng);
  auto roped = [&] {
    Tensor x = Tensor::FromData(base.shape(), base.data());
    ops::ApplyRope(x, /*pos_offset=*/3, /*head_dim=*/8);
    return x;
  };
  ExpectBitExactAcrossThreads(roped);
}

TEST(KernelParityTest, GqaAttentionBitExactAcrossThreadCounts) {
  Rng rng(108);
  // 6 query heads over 2 kv heads, 11 query rows against 18 cached
  // positions: (row, head) work items = 66, not divisible by any pool chunk.
  AttentionParams p{/*num_heads=*/6, /*num_kv_heads=*/2, /*head_dim=*/8,
                    /*q_pos_offset=*/7};
  Tensor q = Tensor::Random(Shape({11, 48}), rng);
  Tensor k = Tensor::Random(Shape({18, 16}), rng);
  Tensor v = Tensor::Random(Shape({18, 16}), rng);
  ExpectBitExactAcrossThreads([&] { return GqaAttention(q, k, v, p); });
}

// The paged view reads rows where they live: the same K/V laid out as 16-row
// blocks with a ragged 5-row tail give the one-block output bit for bit, on
// the scalar oracle and the blocked kernel alike. Rows past the visible
// span hold NaN, so a read beyond it would show.
TEST(KernelParityTest, GqaAttentionPagedViewMatchesOneBlock) {
  Rng rng(110);
  AttentionParams p{/*num_heads=*/6, /*num_kv_heads=*/2, /*head_dim=*/8,
                    /*q_pos_offset=*/30};
  const int64_t rows = 37;
  const int64_t cols = 16;
  const int64_t bt = 16;
  Tensor q = Tensor::Random(Shape({7, 48}), rng);
  Tensor k = Tensor::Random(Shape({rows, cols}), rng);
  Tensor v = Tensor::Random(Shape({rows, cols}), rng);

  std::vector<std::vector<float>> storage;
  PagedKv paged;
  paged.block_tokens = bt;
  paged.rows = rows;
  paged.kv_cols = cols;
  for (int64_t t0 = 0; t0 < rows; t0 += bt) {
    const int64_t n = std::min(bt, rows - t0);
    for (const Tensor* src : {&k, &v}) {
      std::vector<float>& block = storage.emplace_back(
          static_cast<size_t>(bt * cols),
          std::numeric_limits<float>::quiet_NaN());
      std::copy(src->data().begin() + t0 * cols,
                src->data().begin() + (t0 + n) * cols, block.begin());
    }
  }
  for (size_t b = 0; b < storage.size(); b += 2) {
    paged.k_blocks.push_back(storage[b].data());
    paged.v_blocks.push_back(storage[b + 1].data());
  }
  ASSERT_EQ(paged.k_blocks.size(), 3u);

  for (int threads : {1, 2, 3, 8}) {
    KernelThreadScope scope(threads);
    const Tensor out = GqaAttention(q, paged, p);
    // MaxAbsDiff skips NaN elements, so check them directly.
    EXPECT_TRUE(std::all_of(out.data().begin(), out.data().end(),
                            [](float x) { return std::isfinite(x); }))
        << threads << " threads";
    EXPECT_EQ(Tensor::MaxAbsDiff(GqaAttention(q, k, v, p), out), 0.0f)
        << threads << " threads";
  }
  ExpectBitExactAcrossThreads([&] { return GqaAttention(q, paged, p); });
}

TEST(KernelParityTest, FullGroupAndRaggedGroupQuantizeAgree) {
  // Quantization itself is parallelized per column; codes and scales must
  // be identical at every thread count, including a ragged final group.
  Rng rng(109);
  Tensor w = Tensor::Random(Shape({70, 9}), rng, 0.1f);  // 70 % 32 != 0
  KernelThreadScope ref(1);
  QuantizedTensor q1 = QuantizedTensor::Quantize(w, 32);
  for (int threads : {2, 8}) {
    KernelThreadScope scope(threads);
    QuantizedTensor qn = QuantizedTensor::Quantize(w, 32);
    EXPECT_EQ(Tensor::MaxAbsDiff(q1.Dequantize(), qn.Dequantize()), 0.0f);
    for (int64_t g = 0; g < 3; ++g) {
      for (int64_t c = 0; c < 9; ++c) {
        EXPECT_EQ(q1.group_scale(g * 32, c), qn.group_scale(g * 32, c));
      }
    }
  }
}

// --- regression: the removed `aij == 0` inner-loop skip ---------------------

TEST(KernelParityTest, MatmulPropagatesNanThroughZeroActivation) {
  // 0 * NaN must stay NaN. The seed kernel skipped zero activations, so a
  // NaN weight paired with a zero activation silently vanished.
  Tensor a = Tensor::FromData(Shape({1, 2}), {0.0f, 1.0f});
  Tensor b = Tensor::FromData(
      Shape({2, 2}),
      {std::numeric_limits<float>::quiet_NaN(), 2.0f, 3.0f, 4.0f});
  for (int threads : {1, 2, 8}) {
    KernelThreadScope scope(threads);
    Tensor c = ops::Matmul(a, b);
    EXPECT_TRUE(std::isnan(c.At(0, 0)))
        << "0*NaN swallowed at num_threads=" << threads;
    EXPECT_EQ(c.At(0, 1), 4.0f);
  }
}

TEST(KernelParityTest, MatmulPropagatesInfThroughZeroActivation) {
  // 0 * inf = NaN per IEEE 754; the zero-skip turned it into 0.
  Tensor a = Tensor::FromData(Shape({1, 1}), {0.0f});
  Tensor b = Tensor::FromData(Shape({1, 1}),
                              {std::numeric_limits<float>::infinity()});
  for (int threads : {1, 2, 8}) {
    KernelThreadScope scope(threads);
    EXPECT_TRUE(std::isnan(ops::Matmul(a, b).At(0, 0)))
        << "0*inf swallowed at num_threads=" << threads;
  }
}

// --- regression: per-call std::pow in ApplyRope -----------------------------

TEST(KernelParityTest, RopeFrequencyTableMatchesDirectPow) {
  // The hoisted frequency table must reproduce pow(theta, -2d/head_dim)
  // exactly — same double-precision expression, evaluated once.
  const int head_dim = 32;
  const float theta = 10000.0f;
  Rng rng(110);
  Tensor x = Tensor::Random(Shape({3, 64}), rng);
  Tensor manual = Tensor::FromData(x.shape(), x.data());
  ops::ApplyRope(x, /*pos_offset=*/11, head_dim, theta);
  // Manual rotation with the pre-hoist per-element pow.
  for (int64_t i = 0; i < 3; ++i) {
    const double pos = 11 + static_cast<double>(i);
    for (int h = 0; h < 2; ++h) {
      for (int d = 0; d < head_dim / 2; ++d) {
        const double freq =
            std::pow(static_cast<double>(theta),
                     -2.0 * d / static_cast<double>(head_dim));
        const double angle = pos * freq;
        const float c = static_cast<float>(std::cos(angle));
        const float s = static_cast<float>(std::sin(angle));
        const int64_t c0 = static_cast<int64_t>(h) * head_dim + 2 * d;
        const float x0 = manual.At(i, c0);
        const float x1 = manual.At(i, c0 + 1);
        manual.Set(i, c0, x0 * c - x1 * s);
        manual.Set(i, c0 + 1, x0 * s + x1 * c);
      }
    }
  }
  EXPECT_EQ(Tensor::MaxAbsDiff(x, manual), 0.0f);
}

// --- regression: fractional byte_size for odd shapes ------------------------

TEST(KernelParityTest, ByteSizeIsWholeBytesForOddShapes) {
  // 33 rows in groups of 32: a full group (16 packed B/col) plus a ragged
  // 1-row group that still occupies a whole byte per column.
  QuantizedTensor q = QuantizedTensor::Deferred(Shape({33, 5}), 32);
  EXPECT_DOUBLE_EQ(q.byte_size(), (16.0 + 1.0) * 5 + 2.0 * 2 * 5);
  // Odd rows inside a single group: 7 rows pack into 4 bytes, not 3.5.
  QuantizedTensor q2 = QuantizedTensor::Deferred(Shape({7, 3}), 32);
  EXPECT_DOUBLE_EQ(q2.byte_size(), 4.0 * 3 + 2.0 * 1 * 3);
  EXPECT_EQ(std::fmod(q2.byte_size(), 1.0), 0.0);
  // Even shapes match the seed accounting exactly (0.5 B/element).
  QuantizedTensor q3 = QuantizedTensor::Deferred(Shape({64, 128}), 32);
  EXPECT_DOUBLE_EQ(q3.byte_size(), 0.5 * 64 * 128 + 2.0 * 2 * 128);
}

// --- cached dequantization --------------------------------------------------

TEST(KernelParityTest, DequantizedCachedMatchesDequantizeAndIsStable) {
  Rng rng(111);
  QuantizedTensor q =
      QuantizedTensor::Quantize(Tensor::Random(Shape({40, 6}), rng, 0.1f), 32);
  const Tensor& cached = q.DequantizedCached();
  EXPECT_EQ(Tensor::MaxAbsDiff(cached, q.Dequantize()), 0.0f);
  // Same backing tensor on every call, and shared across copies.
  EXPECT_EQ(&q.DequantizedCached(), &cached);
  QuantizedTensor copy = q;
  EXPECT_EQ(&copy.DequantizedCached(), &cached);
}

}  // namespace
}  // namespace heterollm::tensor
