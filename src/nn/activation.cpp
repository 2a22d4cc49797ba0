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

}  // namespace fca::nn
