#include "tensor/tensor.hpp"

#include <gtest/gtest.h>

#include "utils/error.hpp"
#include "utils/rng.hpp"

namespace fca {
namespace {

TEST(Tensor, DefaultIsEmpty) {
  Tensor t;
  EXPECT_TRUE(t.empty());
  EXPECT_EQ(t.numel(), 0);
  EXPECT_EQ(t.ndim(), 0);
}

TEST(Tensor, ZeroInitialized) {
  Tensor t({2, 3});
  EXPECT_EQ(t.numel(), 6);
  for (int64_t i = 0; i < 6; ++i) EXPECT_EQ(t[i], 0.0f);
}

TEST(Tensor, FillConstructor) {
  Tensor t({4}, 2.5f);
  for (int64_t i = 0; i < 4; ++i) EXPECT_EQ(t[i], 2.5f);
}

TEST(Tensor, FromValues) {
  Tensor t({2, 2}, {1, 2, 3, 4});
  EXPECT_EQ((t.at({0, 0})), 1.0f);
  EXPECT_EQ((t.at({0, 1})), 2.0f);
  EXPECT_EQ((t.at({1, 0})), 3.0f);
  EXPECT_EQ((t.at({1, 1})), 4.0f);
}

TEST(Tensor, FromValuesRejectsWrongCount) {
  EXPECT_THROW(Tensor({2, 2}, std::vector<float>{1, 2, 3}), Error);
}

TEST(Tensor, AtBoundsChecked) {
  Tensor t({2, 2});
  EXPECT_THROW((t.at({2, 0})), Error);
  EXPECT_THROW((t.at({0})), Error);  // wrong arity
}

TEST(Tensor, ReshapeSharesStorage) {
  Tensor t({2, 3}, {0, 1, 2, 3, 4, 5});
  Tensor r = t.reshape({3, 2});
  EXPECT_TRUE(r.shares_storage_with(t));
  r[0] = 42.0f;
  EXPECT_EQ(t[0], 42.0f);
}

TEST(Tensor, ReshapeInfersDimension) {
  Tensor t({4, 6});
  EXPECT_EQ(t.reshape({2, -1}).dim(1), 12);
  EXPECT_EQ(t.reshape({-1}).dim(0), 24);
  EXPECT_THROW(t.reshape({-1, -1}), Error);
  EXPECT_THROW(t.reshape({5, -1}), Error);
}

TEST(Tensor, ReshapeRejectsNumelChange) {
  Tensor t({2, 3});
  EXPECT_THROW(t.reshape({7}), Error);
}

TEST(Tensor, CloneIsDeep) {
  Tensor t({3}, {1, 2, 3});
  Tensor c = t.clone();
  EXPECT_FALSE(c.shares_storage_with(t));
  c[0] = 9.0f;
  EXPECT_EQ(t[0], 1.0f);
}

TEST(Tensor, NegativeDimIndexing) {
  Tensor t({2, 3, 4});
  EXPECT_EQ(t.dim(-1), 4);
  EXPECT_EQ(t.dim(-3), 2);
  EXPECT_THROW(t.dim(3), Error);
}

TEST(Tensor, RandnRespectsMoments) {
  Rng rng(5);
  Tensor t = Tensor::randn({10000}, rng, 1.0f, 0.5f);
  double s = 0.0;
  for (int64_t i = 0; i < t.numel(); ++i) s += t[i];
  EXPECT_NEAR(s / 10000.0, 1.0, 0.03);
}

TEST(Tensor, RandInBounds) {
  Rng rng(5);
  Tensor t = Tensor::rand({1000}, rng, -2.0f, 3.0f);
  for (int64_t i = 0; i < t.numel(); ++i) {
    EXPECT_GE(t[i], -2.0f);
    EXPECT_LT(t[i], 3.0f);
  }
}

TEST(Tensor, CopyRowFrom) {
  Tensor src({2, 3}, {1, 2, 3, 4, 5, 6});
  Tensor dst({2, 3});
  dst.copy_row_from(0, src, 1);
  EXPECT_EQ((dst.at({0, 0})), 4.0f);
  EXPECT_EQ((dst.at({0, 2})), 6.0f);
  EXPECT_EQ((dst.at({1, 0})), 0.0f);
}

TEST(Tensor, CopyRowFromRejectsMismatchedSlices) {
  Tensor src({2, 3});
  Tensor dst({2, 4});
  EXPECT_THROW(dst.copy_row_from(0, src, 0), Error);
}

TEST(Tensor, FillOverwrites) {
  Tensor t({4}, {1, 2, 3, 4});
  t.fill(7.0f);
  for (int64_t i = 0; i < 4; ++i) EXPECT_EQ(t[i], 7.0f);
}

TEST(ShapeUtils, NumelAndString) {
  EXPECT_EQ(shape_numel({2, 3, 4}), 24);
  EXPECT_EQ(shape_numel({}), 0);
  EXPECT_EQ(shape_numel({5, 0}), 0);
  EXPECT_EQ(shape_to_string({2, 3}), "[2, 3]");
}

}  // namespace
}  // namespace fca
