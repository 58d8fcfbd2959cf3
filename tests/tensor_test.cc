#include <gtest/gtest.h>

#include <cmath>

#include "tensor/gemm.h"
#include "tensor/im2col.h"
#include "tensor/metrics.h"
#include "tensor/ops.h"
#include "tensor/tensor.h"

namespace glsc {
namespace {

TEST(Tensor, ZerosAndShape) {
  Tensor t({2, 3, 4});
  EXPECT_EQ(t.numel(), 24);
  EXPECT_EQ(t.rank(), 3u);
  EXPECT_EQ(t.dim(1), 3);
  for (std::int64_t i = 0; i < t.numel(); ++i) EXPECT_EQ(t[i], 0.0f);
}

TEST(Tensor, OverflowingShapeThrowsInsteadOfWrapping) {
  // 2^33 * 2^31 = 2^64 elements: the element count itself wraps int64.
  EXPECT_THROW(ShapeNumel({1ll << 33, 1ll << 31}), std::runtime_error);
  // 2^62 elements fit int64, but their 2^64 float bytes wrap size_t to a
  // zero-byte allocation.
  EXPECT_EQ(ShapeNumel({2, 1ll << 31, 1ll << 30}), 1ll << 62);
  EXPECT_THROW(Tensor::Empty({2, 1ll << 31, 1ll << 30}), std::runtime_error);
  EXPECT_THROW(Tensor({1ll << 33, 1ll << 31}), std::runtime_error);
}

TEST(Tensor, AtIndexing) {
  Tensor t({2, 3});
  t.At({1, 2}) = 5.0f;
  EXPECT_EQ(t[5], 5.0f);
  EXPECT_EQ(t.At({1, 2}), 5.0f);
}

TEST(Tensor, CloneIsDeep) {
  Tensor a({4});
  a[0] = 1.0f;
  Tensor b = a.Clone();
  b[0] = 2.0f;
  EXPECT_EQ(a[0], 1.0f);
}

TEST(Tensor, ReshapeSharesStorage) {
  Tensor a({2, 6});
  Tensor b = a.Reshape({3, 4});
  b[0] = 7.0f;
  EXPECT_EQ(a[0], 7.0f);
  EXPECT_THROW(a.Reshape({5}), std::runtime_error);
}

TEST(Tensor, PermuteRoundTrip) {
  Rng rng(3);
  Tensor a = Tensor::Randn({2, 3, 4, 5}, rng);
  Tensor p = a.Permute({2, 0, 3, 1});
  EXPECT_EQ(p.shape(), (Shape{4, 2, 5, 3}));
  // Inverse permutation restores the original.
  Tensor back = p.Permute({1, 3, 0, 2});
  EXPECT_EQ(back.shape(), a.shape());
  for (std::int64_t i = 0; i < a.numel(); ++i) EXPECT_EQ(back[i], a[i]);
}

TEST(Tensor, PermuteValues) {
  Tensor a({2, 3});
  for (std::int64_t i = 0; i < 6; ++i) a[i] = static_cast<float>(i);
  Tensor t = a.Permute({1, 0});
  EXPECT_EQ(t.At({0, 0}), 0.0f);
  EXPECT_EQ(t.At({0, 1}), 3.0f);
  EXPECT_EQ(t.At({2, 1}), 5.0f);
}

TEST(Tensor, Slice0AndConcat0) {
  Rng rng(4);
  Tensor a = Tensor::Randn({6, 3}, rng);
  Tensor lo = a.Slice0(0, 2);
  Tensor hi = a.Slice0(2, 6);
  Tensor joined = Concat0({lo, hi});
  EXPECT_EQ(joined.shape(), a.shape());
  for (std::int64_t i = 0; i < a.numel(); ++i) EXPECT_EQ(joined[i], a[i]);
}

TEST(Tensor, MinMaxSumMean) {
  Tensor t({4});
  t[0] = -2.0f; t[1] = 3.0f; t[2] = 0.5f; t[3] = -0.5f;
  EXPECT_FLOAT_EQ(t.MinValue(), -2.0f);
  EXPECT_FLOAT_EQ(t.MaxValue(), 3.0f);
  EXPECT_DOUBLE_EQ(t.Sum(), 1.0);
  EXPECT_DOUBLE_EQ(t.Mean(), 0.25);
  EXPECT_TRUE(t.AllFinite());
  t[2] = std::numeric_limits<float>::infinity();
  EXPECT_FALSE(t.AllFinite());
}

// ---- GEMM: parameterized against a naive reference ----

struct GemmCase {
  std::int64_t m, n, k;
  bool ta, tb;
};

class GemmTest : public ::testing::TestWithParam<GemmCase> {};

TEST_P(GemmTest, MatchesNaive) {
  const auto& p = GetParam();
  Rng rng(11);
  // Build op(A), op(B) logically MxK and KxN; store possibly transposed.
  const std::int64_t a_rows = p.ta ? p.k : p.m;
  const std::int64_t a_cols = p.ta ? p.m : p.k;
  const std::int64_t b_rows = p.tb ? p.n : p.k;
  const std::int64_t b_cols = p.tb ? p.k : p.n;
  Tensor a = Tensor::Randn({a_rows, a_cols}, rng);
  Tensor b = Tensor::Randn({b_rows, b_cols}, rng);
  Tensor c = Tensor::Randn({p.m, p.n}, rng);
  Tensor c_ref = c.Clone();

  const float alpha = 1.3f, beta = 0.7f;
  Gemm(p.ta, p.tb, p.m, p.n, p.k, alpha, a.data(), a_cols, b.data(), b_cols,
       beta, c.data(), p.n);

  for (std::int64_t i = 0; i < p.m; ++i) {
    for (std::int64_t j = 0; j < p.n; ++j) {
      double acc = 0.0;
      for (std::int64_t l = 0; l < p.k; ++l) {
        const float av = p.ta ? a[l * a_cols + i] : a[i * a_cols + l];
        const float bv = p.tb ? b[j * b_cols + l] : b[l * b_cols + j];
        acc += static_cast<double>(av) * bv;
      }
      const double expect = alpha * acc + beta * c_ref[i * p.n + j];
      EXPECT_NEAR(c[i * p.n + j], expect, 1e-3 * (1.0 + std::fabs(expect)))
          << "at (" << i << "," << j << ")";
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, GemmTest,
    ::testing::Values(GemmCase{1, 1, 1, false, false},
                      GemmCase{3, 5, 7, false, false},
                      GemmCase{4, 8, 4, true, false},
                      GemmCase{8, 3, 6, false, true},
                      GemmCase{5, 5, 5, true, true},
                      GemmCase{130, 17, 40, false, false},
                      GemmCase{9, 520, 70, false, true},
                      GemmCase{33, 65, 300, false, false}));

TEST(Gemm, BetaZeroOverwritesGarbage) {
  Tensor c({2, 2});
  c[0] = std::numeric_limits<float>::quiet_NaN();
  Tensor a({2, 1}), b({1, 2});
  a.Fill(1.0f);
  b.Fill(2.0f);
  Gemm(false, false, 2, 2, 1, 1.0f, a.data(), 1, b.data(), 2, 0.0f, c.data(), 2);
  EXPECT_FLOAT_EQ(c[0], 2.0f);
}

// ---- im2col / col2im ----

TEST(Im2Col, KnownValues) {
  // 1 channel, 3x3 input, 2x2 kernel, stride 1, no padding.
  Tensor x({1, 3, 3});
  for (std::int64_t i = 0; i < 9; ++i) x[i] = static_cast<float>(i);
  std::vector<float> cols(4 * 4);
  Im2Col(x.data(), 1, 3, 3, 2, 2, 1, 0, cols.data());
  // Row 0 = kernel offset (0,0): values at output positions.
  EXPECT_FLOAT_EQ(cols[0], 0.0f);
  EXPECT_FLOAT_EQ(cols[1], 1.0f);
  EXPECT_FLOAT_EQ(cols[2], 3.0f);
  EXPECT_FLOAT_EQ(cols[3], 4.0f);
  // Row 3 = kernel offset (1,1).
  EXPECT_FLOAT_EQ(cols[12], 4.0f);
  EXPECT_FLOAT_EQ(cols[15], 8.0f);
}

// col2im is the adjoint of im2col: <Im2Col(x), c> == <x, Col2Im(c)>.
TEST(Im2Col, AdjointProperty) {
  Rng rng(13);
  const std::int64_t ch = 2, h = 5, w = 6, k = 3, stride = 2, pad = 1;
  const std::int64_t oh = ConvOutDim(h, k, stride, pad);
  const std::int64_t ow = ConvOutDim(w, k, stride, pad);
  Tensor x = Tensor::Randn({ch, h, w}, rng);
  Tensor c = Tensor::Randn({ch * k * k, oh * ow}, rng);

  Tensor ix({ch * k * k, oh * ow});
  Im2Col(x.data(), ch, h, w, k, k, stride, pad, ix.data());
  Tensor cx({ch, h, w});
  Col2Im(c.data(), ch, h, w, k, k, stride, pad, cx.data());

  EXPECT_NEAR(DotProduct(ix, c), DotProduct(x, cx), 1e-3);
}

// ---- elementwise ops & reductions ----

TEST(Ops, Arithmetic) {
  Tensor a({3}), b({3});
  a[0] = 1; a[1] = 2; a[2] = 3;
  b[0] = 4; b[1] = 5; b[2] = 6;
  EXPECT_FLOAT_EQ(Add(a, b)[1], 7.0f);
  EXPECT_FLOAT_EQ(Sub(a, b)[2], -3.0f);
  EXPECT_FLOAT_EQ(Mul(a, b)[0], 4.0f);
  EXPECT_FLOAT_EQ(Div(b, a)[1], 2.5f);
  EXPECT_THROW(Add(a, Tensor({4})), std::runtime_error);
}

TEST(Ops, AxpyAndScalar) {
  Tensor x({2}), y({2});
  x[0] = 1; x[1] = 2;
  y[0] = 10; y[1] = 20;
  Axpy(2.0f, x, &y);
  EXPECT_FLOAT_EQ(y[0], 12.0f);
  EXPECT_FLOAT_EQ(y[1], 24.0f);
  Tensor z = MulScalar(AddScalar(x, 1.0f), 3.0f);
  EXPECT_FLOAT_EQ(z[1], 9.0f);
}

TEST(Ops, RoundClampAbs) {
  Tensor a({4});
  a[0] = -1.6f; a[1] = 0.4f; a[2] = 2.5f; a[3] = -0.5f;
  const Tensor r = Round(a);
  EXPECT_FLOAT_EQ(r[0], -2.0f);
  EXPECT_FLOAT_EQ(r[1], 0.0f);
  // nearbyint uses banker's rounding: 2.5 -> 2, -0.5 -> 0.
  EXPECT_FLOAT_EQ(r[2], 2.0f);
  EXPECT_FLOAT_EQ(r[3], -0.0f);
  const Tensor c = Clamp(a, -1.0f, 1.0f);
  EXPECT_FLOAT_EQ(c[0], -1.0f);
  EXPECT_FLOAT_EQ(c[2], 1.0f);
  EXPECT_FLOAT_EQ(Abs(a)[0], 1.6f);
}

TEST(Ops, MseAndSumSquares) {
  Tensor a({2}), b({2});
  a[0] = 1; a[1] = 3;
  b[0] = 2; b[1] = 5;
  EXPECT_DOUBLE_EQ(MeanSquaredError(a, b), (1.0 + 4.0) / 2.0);
  EXPECT_DOUBLE_EQ(SumSquares(a), 10.0);
}

TEST(Ops, SymmetricEigenDiagonalizes) {
  // Known symmetric matrix with analytic eigenvalues {3, 1}.
  std::vector<double> m{2.0, 1.0, 1.0, 2.0};
  std::vector<double> vals, vecs;
  SymmetricEigen(m, 2, &vals, &vecs);
  EXPECT_NEAR(vals[0], 3.0, 1e-10);
  EXPECT_NEAR(vals[1], 1.0, 1e-10);
  // Columns are orthonormal.
  const double dot = vecs[0] * vecs[1] + vecs[2] * vecs[3];
  EXPECT_NEAR(dot, 0.0, 1e-10);
}

TEST(Ops, SymmetricEigenReconstructs) {
  Rng rng(17);
  const int n = 12;
  // Random symmetric PSD matrix A = B B^T.
  std::vector<double> b(n * n);
  for (auto& v : b) v = rng.Normal();
  std::vector<double> a(n * n, 0.0);
  for (int i = 0; i < n; ++i) {
    for (int j = 0; j < n; ++j) {
      for (int k = 0; k < n; ++k) a[i * n + j] += b[i * n + k] * b[j * n + k];
    }
  }
  std::vector<double> vals, vecs;
  SymmetricEigen(a, n, &vals, &vecs);
  // Eigenvalues descending and non-negative.
  for (int i = 1; i < n; ++i) EXPECT_LE(vals[i], vals[i - 1] + 1e-9);
  EXPECT_GE(vals[n - 1], -1e-9);
  // V diag(vals) V^T == A.
  for (int i = 0; i < n; ++i) {
    for (int j = 0; j < n; ++j) {
      double acc = 0.0;
      for (int k = 0; k < n; ++k) {
        acc += vecs[i * n + k] * vals[k] * vecs[j * n + k];
      }
      EXPECT_NEAR(acc, a[i * n + j], 1e-8 * (1.0 + std::fabs(a[i * n + j])));
    }
  }
}

// ---- metrics ----

TEST(Metrics, NrmseMatchesDefinition) {
  Tensor orig({4});
  orig[0] = 0; orig[1] = 10; orig[2] = 5; orig[3] = 5;
  Tensor rec = orig.Clone();
  rec[2] = 7;  // squared error 4, mse 1 over 4 points
  const double expected = std::sqrt(4.0 / 4.0) / 10.0;
  EXPECT_NEAR(Nrmse(orig, rec), expected, 1e-12);
}

TEST(Metrics, PsnrIdenticalIsLarge) {
  Rng rng(19);
  Tensor a = Tensor::Randn({32}, rng);
  EXPECT_GE(Psnr(a, a), 200.0);
  EXPECT_GE(Psnr(a, AddScalar(a, 0.01f)), 20.0);
}

TEST(Metrics, PsnrIsFiniteOnDegenerateInputs) {
  // Identical inputs: MSE 0 must clamp to the 200 dB cap, never +inf (the
  // bench harness emits PSNR into JSON, where inf breaks parsing).
  Rng rng(20);
  Tensor a = Tensor::Randn({64}, rng);
  const double identical = Psnr(a, a);
  EXPECT_TRUE(std::isfinite(identical));
  EXPECT_DOUBLE_EQ(identical, 200.0);

  // Constant original (zero range) against a different reconstruction used
  // to take log10(0) = -inf through the range term.
  Tensor flat = Tensor::Full({64}, 3.0f);
  const double constant = Psnr(flat, AddScalar(flat, 0.5f));
  EXPECT_TRUE(std::isfinite(constant));
  // Constant AND identical hits both degeneracies at once.
  EXPECT_DOUBLE_EQ(Psnr(flat, flat), 200.0);
}

TEST(Metrics, CompressionRatio) {
  EXPECT_DOUBLE_EQ(CompressionRatio(1000, 50, 50), 10.0);
  EXPECT_DOUBLE_EQ(CompressionRatio(1000, 0, 0), 0.0);
}

TEST(Metrics, MaxAbsError) {
  Tensor a({3}), b({3});
  a[0] = 1; a[1] = 2; a[2] = 3;
  b[0] = 1; b[1] = 2.5f; b[2] = 2.9f;
  EXPECT_NEAR(MaxAbsError(a, b), 0.5, 1e-6);
}

}  // namespace
}  // namespace glsc
