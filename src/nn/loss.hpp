// Plain-tensor losses with analytic gradients.
//
// These cover the conventional supervised paths (baseline local training,
// FedAvg, FedProx, KT-pFL distillation) where the gradient w.r.t. logits has
// a closed form and taping would be overhead. The FedClassAvg objective,
// which mixes SupCon + CE + proximal terms through shared features, uses the
// fca::ag heads instead.
#pragma once

#include <vector>

#include "tensor/tensor.hpp"

namespace fca::nn {

struct LossResult {
  float value = 0.0f;  // mean loss over the batch
  Tensor grad;         // d(loss)/d(logits), same shape as logits
};

/// Mean softmax cross-entropy of logits [B, C] vs integer labels.
/// grad = (softmax(logits) - onehot) / B.
LossResult softmax_cross_entropy(const Tensor& logits,
                                 const std::vector<int>& labels);

/// Mean soft-target cross-entropy: -sum(target * log_softmax(logits)) / B.
/// Used for knowledge distillation; `target_probs` rows must sum to 1.
LossResult soft_target_cross_entropy(const Tensor& logits,
                                     const Tensor& target_probs);

/// Fraction of rows whose argmax equals the label.
float accuracy(const Tensor& logits, const std::vector<int>& labels);

}  // namespace fca::nn
