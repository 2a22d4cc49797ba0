#include "tensor/gemm.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <tuple>
#include <vector>

#include "tensor/tensor.hpp"
#include "utils/rng.hpp"

namespace fca {
namespace {

struct GemmCase {
  int64_t m, n, k;
  bool ta, tb;
};

class GemmParamTest : public ::testing::TestWithParam<GemmCase> {};

std::vector<float> random_matrix(int64_t rows, int64_t cols, Rng& rng) {
  std::vector<float> v(static_cast<size_t>(rows * cols));
  for (auto& x : v) x = static_cast<float>(rng.uniform(-1.0, 1.0));
  return v;
}

TEST_P(GemmParamTest, BlockedMatchesNaive) {
  const GemmCase c = GetParam();
  Rng rng(c.m * 131 + c.n * 17 + c.k + (c.ta ? 1 : 0) + (c.tb ? 2 : 0));
  // Stored dimensions depend on the transpose flags.
  const int64_t a_rows = c.ta ? c.k : c.m;
  const int64_t a_cols = c.ta ? c.m : c.k;
  const int64_t b_rows = c.tb ? c.n : c.k;
  const int64_t b_cols = c.tb ? c.k : c.n;
  const std::vector<float> a = random_matrix(a_rows, a_cols, rng);
  const std::vector<float> b = random_matrix(b_rows, b_cols, rng);
  std::vector<float> c_ref = random_matrix(c.m, c.n, rng);
  std::vector<float> c_blk = c_ref;  // same beta source

  const float alpha = 0.7f, beta = 0.3f;
  sgemm_naive(c.ta, c.tb, c.m, c.n, c.k, alpha, a.data(), a_cols, b.data(),
              b_cols, beta, c_ref.data(), c.n);
  sgemm(c.ta, c.tb, c.m, c.n, c.k, alpha, a.data(), a_cols, b.data(), b_cols,
        beta, c_blk.data(), c.n);
  for (size_t i = 0; i < c_ref.size(); ++i) {
    EXPECT_NEAR(c_blk[i], c_ref[i], 1e-4f) << "at " << i;
  }
}

INSTANTIATE_TEST_SUITE_P(
    ShapesAndTransposes, GemmParamTest,
    ::testing::Values(GemmCase{1, 1, 1, false, false},
                      GemmCase{3, 5, 7, false, false},
                      GemmCase{3, 5, 7, true, false},
                      GemmCase{3, 5, 7, false, true},
                      GemmCase{3, 5, 7, true, true},
                      GemmCase{64, 64, 64, false, false},
                      GemmCase{64, 64, 64, true, true},
                      GemmCase{1, 200, 3, false, false},
                      GemmCase{200, 1, 3, false, true},
                      GemmCase{17, 31, 129, false, false},
                      GemmCase{129, 17, 31, true, false},
                      GemmCase{100, 300, 5, false, false}));

TEST(Gemm, BetaZeroOverwritesGarbage) {
  std::vector<float> a{1, 2, 3, 4};
  std::vector<float> b{1, 0, 0, 1};
  std::vector<float> c{std::nanf(""), std::nanf(""), std::nanf(""),
                       std::nanf("")};
  sgemm(false, false, 2, 2, 2, 1.0f, a.data(), 2, b.data(), 2, 0.0f, c.data(),
        2);
  EXPECT_FLOAT_EQ(c[0], 1.0f);
  EXPECT_FLOAT_EQ(c[3], 4.0f);
}

TEST(Gemm, AlphaZeroOnlyScalesC) {
  std::vector<float> a{1, 2, 3, 4};
  std::vector<float> c{2, 4, 6, 8};
  sgemm(false, false, 2, 2, 2, 0.0f, a.data(), 2, a.data(), 2, 0.5f, c.data(),
        2);
  EXPECT_FLOAT_EQ(c[0], 1.0f);
  EXPECT_FLOAT_EQ(c[3], 4.0f);
}

TEST(Gemm, EmptyDimensionsNoop) {
  std::vector<float> a{1.0f};
  std::vector<float> c{5.0f};
  sgemm(false, false, 0, 0, 1, 1.0f, a.data(), 1, a.data(), 1, 0.0f, c.data(),
        1);
  EXPECT_FLOAT_EQ(c[0], 5.0f);  // untouched (m == n == 0)
}

TEST(Gemm, KZeroAppliesBetaOnly) {
  std::vector<float> a{1.0f};
  std::vector<float> c{5.0f};
  sgemm(false, false, 1, 1, 0, 1.0f, a.data(), 1, a.data(), 1, 2.0f, c.data(),
        1);
  EXPECT_FLOAT_EQ(c[0], 10.0f);
}

}  // namespace
}  // namespace fca
