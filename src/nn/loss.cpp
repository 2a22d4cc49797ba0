#include "nn/loss.hpp"

#include <cmath>

#include "tensor/ops.hpp"
#include "utils/error.hpp"

namespace fca::nn {

LossResult softmax_cross_entropy(const Tensor& logits,
                                 const std::vector<int>& labels) {
  FCA_CHECK(logits.ndim() == 2);
  const int64_t b = logits.dim(0);
  const int64_t c = logits.dim(1);
  FCA_CHECK(static_cast<int64_t>(labels.size()) == b && b > 0);
  Tensor lsm = log_softmax_rows(logits);
  double loss = 0.0;
  Tensor grad(logits.shape());
  const float inv_b = 1.0f / static_cast<float>(b);
  for (int64_t i = 0; i < b; ++i) {
    const int y = labels[static_cast<size_t>(i)];
    FCA_CHECK(y >= 0 && y < c);
    loss -= lsm[i * c + y];
    for (int64_t j = 0; j < c; ++j) {
      grad[i * c + j] = std::exp(lsm[i * c + j]) * inv_b;
    }
    grad[i * c + y] -= inv_b;
  }
  return {static_cast<float>(loss / b), std::move(grad)};
}

LossResult soft_target_cross_entropy(const Tensor& logits,
                                     const Tensor& target_probs) {
  FCA_CHECK(logits.ndim() == 2 && logits.same_shape(target_probs));
  const int64_t b = logits.dim(0);
  const int64_t c = logits.dim(1);
  FCA_CHECK(b > 0);
  Tensor lsm = log_softmax_rows(logits);
  double loss = 0.0;
  Tensor grad(logits.shape());
  const float inv_b = 1.0f / static_cast<float>(b);
  for (int64_t i = 0; i < b; ++i) {
    double row_mass = 0.0;
    for (int64_t j = 0; j < c; ++j) {
      loss -= static_cast<double>(target_probs[i * c + j]) * lsm[i * c + j];
      row_mass += target_probs[i * c + j];
    }
    // grad = (softmax(logits) * mass - target) / B; mass is 1 for proper
    // distributions but keeping it exact makes the loss differentiable even
    // for unnormalized targets.
    for (int64_t j = 0; j < c; ++j) {
      grad[i * c + j] =
          (std::exp(lsm[i * c + j]) * static_cast<float>(row_mass) -
           target_probs[i * c + j]) *
          inv_b;
    }
  }
  return {static_cast<float>(loss / b), std::move(grad)};
}

float accuracy(const Tensor& logits, const std::vector<int>& labels) {
  FCA_CHECK(logits.ndim() == 2 &&
            static_cast<int64_t>(labels.size()) == logits.dim(0));
  if (labels.empty()) return 0.0f;
  const std::vector<int> pred = argmax_rows(logits);
  int64_t correct = 0;
  for (size_t i = 0; i < labels.size(); ++i) {
    if (pred[i] == labels[i]) ++correct;
  }
  return static_cast<float>(correct) / static_cast<float>(labels.size());
}

}  // namespace fca::nn
