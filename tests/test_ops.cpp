#include "tensor/ops.hpp"

#include <gtest/gtest.h>

#include <cmath>

#include "utils/error.hpp"
#include "utils/rng.hpp"

namespace fca {
namespace {

TEST(Ops, ElementwiseArithmetic) {
  Tensor a({3}, {1, 2, 3});
  Tensor b({3}, {4, 5, 6});
  EXPECT_EQ(add(a, b)[1], 7.0f);
  EXPECT_EQ(sub(a, b)[0], -3.0f);
  EXPECT_EQ(mul(a, b)[2], 18.0f);
  EXPECT_FLOAT_EQ(div(b, a)[1], 2.5f);
  EXPECT_EQ(add_scalar(a, 10.0f)[0], 11.0f);
  EXPECT_EQ(mul_scalar(a, -2.0f)[2], -6.0f);
  EXPECT_EQ(neg(a)[0], -1.0f);
}

TEST(Ops, ShapeMismatchThrows) {
  Tensor a({3});
  Tensor b({4});
  EXPECT_THROW(add(a, b), Error);
  EXPECT_THROW(mul(a, b), Error);
  Tensor c({3});
  EXPECT_NO_THROW(add(a, c));
}

TEST(Ops, InPlaceVariants) {
  Tensor a({3}, {1, 2, 3});
  Tensor b({3}, {1, 1, 1});
  add_(a, b);
  EXPECT_EQ(a[0], 2.0f);
  mul_scalar_(a, 2.0f);
  EXPECT_EQ(a[1], 6.0f);
  axpy_(a, 0.5f, b);
  EXPECT_EQ(a[0], 4.5f);
}

TEST(Ops, TranscendentalFunctions) {
  Tensor a({2}, {0.0f, 1.0f});
  EXPECT_FLOAT_EQ(exp(a)[0], 1.0f);
  EXPECT_NEAR(exp(a)[1], 2.71828f, 1e-4);
  Tensor b({2}, {1.0f, std::exp(2.0f)});
  EXPECT_NEAR(log(b)[1], 2.0f, 1e-5);
}

TEST(Ops, MatmulMatchesHandComputation) {
  Tensor a({2, 3}, {1, 2, 3, 4, 5, 6});
  Tensor b({3, 2}, {7, 8, 9, 10, 11, 12});
  Tensor c = matmul(a, b);
  EXPECT_EQ(c.dim(0), 2);
  EXPECT_EQ(c.dim(1), 2);
  EXPECT_FLOAT_EQ((c.at({0, 0})), 58.0f);
  EXPECT_FLOAT_EQ((c.at({0, 1})), 64.0f);
  EXPECT_FLOAT_EQ((c.at({1, 0})), 139.0f);
  EXPECT_FLOAT_EQ((c.at({1, 1})), 154.0f);
}

/// Out-of-place transpose of a 2-D matrix, the oracle for matmul's flags.
Tensor transpose2d(const Tensor& a) {
  Tensor out({a.dim(1), a.dim(0)});
  for (int64_t i = 0; i < a.dim(0); ++i) {
    for (int64_t j = 0; j < a.dim(1); ++j) {
      out[j * a.dim(0) + i] = a[i * a.dim(1) + j];
    }
  }
  return out;
}

TEST(Ops, MatmulTransposes) {
  Rng rng(3);
  Tensor a = Tensor::randn({4, 3}, rng);
  Tensor b = Tensor::randn({4, 5}, rng);
  // a^T b == transpose(a) * b
  EXPECT_TRUE(allclose(matmul(a, b, /*trans_a=*/true, /*trans_b=*/false),
                       matmul(transpose2d(a), b)));
  // a b^T == a * transpose(b)
  Tensor c = Tensor::randn({5, 3}, rng);
  EXPECT_TRUE(allclose(matmul(a, c, false, true),
                       matmul(a, transpose2d(c))));
  // a^T c'^T with compatible shapes: a [4,3] -> [3,4]; d [5,4] -> [4,5].
  Tensor d = Tensor::randn({5, 4}, rng);
  EXPECT_TRUE(allclose(matmul(a, d, true, true),
                       matmul(transpose2d(a), transpose2d(d))));
}

TEST(Ops, MatmulInnerDimMismatchThrows) {
  Tensor a({2, 3});
  Tensor b({4, 2});
  EXPECT_THROW(matmul(a, b), Error);
}

TEST(Ops, RowwiseBroadcasts) {
  Tensor m({2, 3}, {1, 2, 3, 4, 5, 6});
  Tensor row({3}, {10, 20, 30});
  Tensor a = add_rowwise(m, row);
  EXPECT_EQ((a.at({0, 0})), 11.0f);
  EXPECT_EQ((a.at({1, 2})), 36.0f);
}

TEST(Ops, Reductions) {
  Tensor a({2, 2}, {1, 2, 3, 4});
  EXPECT_FLOAT_EQ(sum(a), 10.0f);
  EXPECT_FLOAT_EQ(sum_squares(a), 30.0f);
}

TEST(Ops, ColumnSums) {
  Tensor m({2, 3}, {1, 2, 3, 4, 5, 6});
  Tensor cols = sum_rows(m);  // column sums -> [3]
  EXPECT_FLOAT_EQ(cols[0], 5.0f);
  EXPECT_FLOAT_EQ(cols[2], 9.0f);
}

TEST(Ops, ArgmaxRows) {
  Tensor m({2, 3}, {1, 5, 2, 9, 0, 3});
  const std::vector<int> idx = argmax_rows(m);
  EXPECT_EQ(idx[0], 1);
  EXPECT_EQ(idx[1], 0);
}

TEST(Ops, SoftmaxRowsSumToOne) {
  Rng rng(7);
  Tensor m = Tensor::randn({5, 8}, rng, 0.0f, 3.0f);
  Tensor s = softmax_rows(m);
  for (int64_t i = 0; i < 5; ++i) {
    double total = 0.0;
    for (int64_t j = 0; j < 8; ++j) {
      EXPECT_GT(s[i * 8 + j], 0.0f);
      total += s[i * 8 + j];
    }
    EXPECT_NEAR(total, 1.0, 1e-5);
  }
}

TEST(Ops, SoftmaxStableUnderLargeLogits) {
  Tensor m({1, 3}, {1000.0f, 1001.0f, 999.0f});
  Tensor s = softmax_rows(m);
  EXPECT_TRUE(std::isfinite(s[0]));
  EXPECT_GT(s[1], s[0]);
  EXPECT_GT(s[0], s[2]);
}

TEST(Ops, LogSoftmaxMatchesLogOfSoftmax) {
  Rng rng(9);
  Tensor m = Tensor::randn({4, 6}, rng);
  Tensor ls = log_softmax_rows(m);
  Tensor s = softmax_rows(m);
  for (int64_t i = 0; i < m.numel(); ++i) {
    EXPECT_NEAR(ls[i], std::log(s[i]), 1e-5);
  }
}

TEST(Ops, L2NormalizeRows) {
  Tensor m({2, 2}, {3, 4, 0, 0});
  Tensor n = l2_normalize_rows(m);
  EXPECT_FLOAT_EQ((n.at({0, 0})), 0.6f);
  EXPECT_FLOAT_EQ((n.at({0, 1})), 0.8f);
  // Zero row stays finite (zero).
  EXPECT_EQ((n.at({1, 0})), 0.0f);
  double norm = std::sqrt(n[0] * n[0] + n[1] * n[1]);
  EXPECT_NEAR(norm, 1.0, 1e-6);
}

TEST(Ops, AllcloseAndMaxAbsDiff) {
  Tensor a({2}, {1.0f, 2.0f});
  Tensor b({2}, {1.0f, 2.00001f});
  EXPECT_TRUE(allclose(a, b));
  Tensor c({2}, {1.0f, 3.0f});
  EXPECT_FALSE(allclose(a, c));
  EXPECT_FLOAT_EQ(max_abs_diff(a, c), 1.0f);
  Tensor d({3});
  EXPECT_FALSE(allclose(a, d));
}

TEST(Ops, GatherRows) {
  Tensor m({3, 2}, {1, 2, 3, 4, 5, 6});
  Tensor g = gather_rows(m, {2, 0, 2});
  EXPECT_EQ(g.dim(0), 3);
  EXPECT_EQ((g.at({0, 0})), 5.0f);
  EXPECT_EQ((g.at({1, 1})), 2.0f);
  EXPECT_EQ((g.at({2, 1})), 6.0f);
  EXPECT_THROW(gather_rows(m, {3}), Error);
}

TEST(Ops, ConcatRows) {
  Tensor a({1, 2}, {1, 2});
  Tensor b({2, 2}, {3, 4, 5, 6});
  Tensor c = concat_rows({a, b});
  EXPECT_EQ(c.dim(0), 3);
  EXPECT_EQ((c.at({2, 1})), 6.0f);
  Tensor bad({1, 3});
  EXPECT_THROW(concat_rows({a, bad}), Error);
}

}  // namespace
}  // namespace fca
