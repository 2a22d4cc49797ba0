// Shared helpers for the test suite: finite-difference gradient checking of
// nn::Module backward passes and of fca::ag loss heads, plus the reductions
// only tests need.
#pragma once

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <functional>

#include "nn/module.hpp"
#include "tensor/ops.hpp"
#include "utils/rng.hpp"

namespace fca::test {

/// Sum of a[i] * b[i] over equally shaped tensors, accumulated in double.
inline float dot(const Tensor& a, const Tensor& b) {
  EXPECT_TRUE(a.same_shape(b));
  double s = 0.0;
  for (int64_t i = 0; i < a.numel(); ++i) {
    s += static_cast<double>(a[i]) * b[i];
  }
  return static_cast<float>(s);
}

inline float max_value(const Tensor& a) {
  return *std::max_element(a.data(), a.data() + a.numel());
}

inline float min_value(const Tensor& a) {
  return *std::min_element(a.data(), a.data() + a.numel());
}

/// Scalar objective used to probe backward passes: weighted sum of the
/// module output with fixed random weights (gives a dense output gradient).
struct ProbeLoss {
  Tensor weights;
  explicit ProbeLoss(const Shape& out_shape, uint64_t seed = 7) {
    Rng rng(seed);
    weights = Tensor::rand(out_shape, rng, -1.0f, 1.0f);
  }
  float value(const Tensor& out) const { return dot(out, weights); }
  Tensor grad() const { return weights.clone(); }
};

/// Checks d(probe)/d(input) of a module against central finite differences.
/// `train` forward passes must be deterministic for this to be valid (no
/// dropout randomness, BatchNorm is fine because it is a pure function of
/// the batch).
inline void check_input_gradient(nn::Module& module, const Tensor& input,
                                 float eps = 1e-2f, float tol = 2e-2f) {
  Tensor out = module.forward(input, /*train=*/true);
  ProbeLoss probe(out.shape());
  Tensor grad_in = module.backward(probe.grad());
  ASSERT_TRUE(grad_in.same_shape(input));

  Tensor x = input.clone();
  for (int64_t i = 0; i < x.numel(); ++i) {
    const float orig = x[i];
    x[i] = orig + eps;
    const float up = probe.value(module.forward(x, true));
    x[i] = orig - eps;
    const float down = probe.value(module.forward(x, true));
    x[i] = orig;
    const float numeric = (up - down) / (2.0f * eps);
    EXPECT_NEAR(grad_in[i], numeric, tol + tol * std::abs(numeric))
        << "input gradient mismatch at flat index " << i;
  }
  // Leave the module caches consistent with the original input.
  module.forward(input, true);
}

/// Checks every parameter gradient of a module against finite differences.
inline void check_param_gradients(nn::Module& module, const Tensor& input,
                                  float eps = 1e-2f, float tol = 2e-2f) {
  for (nn::Param* p : module.parameters()) p->zero_grad();
  Tensor out = module.forward(input, true);
  ProbeLoss probe(out.shape());
  module.backward(probe.grad());

  for (nn::Param* p : module.parameters()) {
    for (int64_t i = 0; i < p->value.numel(); ++i) {
      const float orig = p->value[i];
      p->value[i] = orig + eps;
      const float up = probe.value(module.forward(input, true));
      p->value[i] = orig - eps;
      const float down = probe.value(module.forward(input, true));
      p->value[i] = orig;
      const float numeric = (up - down) / (2.0f * eps);
      EXPECT_NEAR(p->grad[i], numeric, tol + tol * std::abs(numeric))
          << "param '" << p->name << "' gradient mismatch at index " << i;
    }
  }
  module.forward(input, true);
}

}  // namespace fca::test
