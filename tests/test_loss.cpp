#include "nn/loss.hpp"

#include <gtest/gtest.h>

#include <cmath>

#include "tensor/ops.hpp"
#include "utils/error.hpp"
#include "utils/rng.hpp"

namespace fca::nn {
namespace {

/// Finite-difference check of a LossResult-producing function.
template <typename F>
void check_loss_gradient(const Tensor& logits0, F loss_fn, float eps = 1e-3f,
                         float tol = 1e-3f) {
  const LossResult res = loss_fn(logits0);
  Tensor x = logits0.clone();
  for (int64_t i = 0; i < x.numel(); ++i) {
    const float orig = x[i];
    x[i] = orig + eps;
    const float up = loss_fn(x).value;
    x[i] = orig - eps;
    const float down = loss_fn(x).value;
    x[i] = orig;
    const float numeric = (up - down) / (2.0f * eps);
    EXPECT_NEAR(res.grad[i], numeric, tol + tol * std::abs(numeric))
        << "index " << i;
  }
}

TEST(SoftmaxCrossEntropy, UniformLogitsGiveLogC) {
  Tensor logits({2, 4});
  const LossResult res = softmax_cross_entropy(logits, {0, 3});
  EXPECT_NEAR(res.value, std::log(4.0f), 1e-5);
}

TEST(SoftmaxCrossEntropy, PerfectPredictionNearZero) {
  Tensor logits({1, 3}, {100.0f, 0.0f, 0.0f});
  const LossResult res = softmax_cross_entropy(logits, {0});
  EXPECT_NEAR(res.value, 0.0f, 1e-4);
}

TEST(SoftmaxCrossEntropy, GradientMatchesFiniteDifference) {
  Rng rng(1);
  Tensor logits = Tensor::randn({4, 5}, rng, 0.0f, 2.0f);
  const std::vector<int> labels{1, 0, 4, 2};
  check_loss_gradient(logits, [&](const Tensor& l) {
    return softmax_cross_entropy(l, labels);
  });
}

TEST(SoftmaxCrossEntropy, GradientRowsSumToZero) {
  Rng rng(2);
  Tensor logits = Tensor::randn({3, 4}, rng);
  const LossResult res = softmax_cross_entropy(logits, {0, 1, 2});
  for (int64_t i = 0; i < 3; ++i) {
    double s = 0.0;
    for (int64_t j = 0; j < 4; ++j) s += res.grad[i * 4 + j];
    EXPECT_NEAR(s, 0.0, 1e-6);
  }
}

TEST(SoftmaxCrossEntropy, RejectsBadLabels) {
  Tensor logits({1, 3});
  EXPECT_THROW(softmax_cross_entropy(logits, {3}), Error);
  EXPECT_THROW(softmax_cross_entropy(logits, {0, 1}), Error);
}

TEST(SoftTargetCrossEntropy, MatchesHardCEOnOneHot) {
  Rng rng(3);
  Tensor logits = Tensor::randn({3, 4}, rng);
  const std::vector<int> labels{2, 0, 1};
  const LossResult hard = softmax_cross_entropy(logits, labels);
  const LossResult soft = soft_target_cross_entropy(
      logits, Tensor({3, 4}, {0, 0, 1, 0, 1, 0, 0, 0, 0, 1, 0, 0}));
  EXPECT_NEAR(hard.value, soft.value, 1e-5);
  EXPECT_TRUE(allclose(hard.grad, soft.grad, 1e-5f));
}

TEST(SoftTargetCrossEntropy, GradientMatchesFiniteDifference) {
  Rng rng(4);
  Tensor logits = Tensor::randn({3, 4}, rng);
  Tensor target = softmax_rows(Tensor::randn({3, 4}, rng));
  check_loss_gradient(logits, [&](const Tensor& l) {
    return soft_target_cross_entropy(l, target);
  });
}

TEST(Accuracy, CountsArgmaxMatches) {
  Tensor logits({3, 2}, {0.9f, 0.1f, 0.2f, 0.8f, 0.6f, 0.4f});
  EXPECT_FLOAT_EQ(accuracy(logits, {0, 1, 0}), 1.0f);
  EXPECT_NEAR(accuracy(logits, {0, 0, 0}), 2.0f / 3.0f, 1e-6);
  EXPECT_FLOAT_EQ(accuracy(logits, {1, 0, 1}), 0.0f);
}

}  // namespace
}  // namespace fca::nn
