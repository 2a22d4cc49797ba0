#include "nn/activation.hpp"

#include "tensor/ops.hpp"
#include "utils/error.hpp"

namespace fca::nn {

Tensor ReLU::forward(const Tensor& x, bool train) {
  if (train) cached_input_ = x;
  return relu(x);
}

Tensor ReLU::backward(const Tensor& grad_out) {
  FCA_CHECK_MSG(!cached_input_.empty(),
                "ReLU::backward without a training forward");
  FCA_CHECK(grad_out.same_shape(cached_input_));
  Tensor grad_in = relu_backward(cached_input_, grad_out);
  cached_input_ = Tensor();
  return grad_in;
}

Tensor LeakyReLU::forward(const Tensor& x, bool train) {
  if (train) cached_input_ = x;
  return leaky_relu(x, slope_);
}

Tensor LeakyReLU::backward(const Tensor& grad_out) {
  FCA_CHECK_MSG(!cached_input_.empty(),
                "LeakyReLU::backward without a training forward");
  FCA_CHECK(grad_out.same_shape(cached_input_));
  return leaky_relu_backward(cached_input_, grad_out, slope_);
}

Dropout::Dropout(float p, Rng rng) : p_(p), rng_(rng) {
  FCA_CHECK_MSG(p >= 0.0f && p < 1.0f, "dropout p must be in [0, 1)");
}

Tensor Dropout::forward(const Tensor& x, bool train) {
  if (!train || p_ == 0.0f) {
    cached_mask_ = Tensor();
    return x;
  }
  cached_mask_ = Tensor(x.shape());
  const float keep_scale = 1.0f / (1.0f - p_);
  for (int64_t i = 0; i < cached_mask_.numel(); ++i) {
    cached_mask_[i] = rng_.bernoulli(p_) ? 0.0f : keep_scale;
  }
  return mul(x, cached_mask_);
}

Tensor Dropout::backward(const Tensor& grad_out) {
  if (cached_mask_.empty()) return grad_out;  // eval-mode or p == 0 forward
  return mul(grad_out, cached_mask_);
}

}  // namespace fca::nn
