#include "nn/linear.hpp"

#include "nn/init.hpp"
#include "tensor/gemm.hpp"
#include "tensor/ops.hpp"
#include "utils/error.hpp"

namespace fca::nn {

Linear::Linear(int64_t in_features, int64_t out_features, Rng& rng, bool bias)
    : in_(in_features), out_(out_features), has_bias_(bias) {
  FCA_CHECK(in_features > 0 && out_features > 0);
  weight_ = Param("weight", kaiming_uniform({out_, in_}, in_, rng));
  if (has_bias_) bias_ = Param("bias", Tensor({out_}));
}

Tensor Linear::forward(const Tensor& x, bool train) {
  FCA_CHECK_MSG(x.ndim() == 2 && x.dim(1) == in_,
                "Linear expects [B, " << in_ << "], got "
                                      << shape_to_string(x.shape()));
  if (train) cached_input_ = x;
  MacCounter::add(x.dim(0) * in_ * out_);
  // y = x W^T with the bias fused into the GEMM write-back (the bias is per
  // output feature, i.e. per column of y).
  Tensor y = Tensor::uninit({x.dim(0), out_});
  GemmEpilogue epi;
  if (has_bias_) {
    epi.bias = bias_.value.data();
    epi.bias_kind = GemmEpilogue::Bias::kPerCol;
  }
  sgemm_ex(false, true, x.dim(0), out_, in_, 1.0f, x.data(), in_,
           weight_.value.data(), in_, 0.0f, y.data(), out_, epi);
  return y;
}

Tensor Linear::backward(const Tensor& grad_out) {
  FCA_CHECK_MSG(!cached_input_.empty(),
                "Linear::backward without a training forward");
  FCA_CHECK(grad_out.ndim() == 2 && grad_out.dim(1) == out_ &&
            grad_out.dim(0) == cached_input_.dim(0));
  // dW += g^T x ; db += colsum(g) ; dx = g W
  Tensor dw = matmul(grad_out, cached_input_, true, false);
  cached_input_ = Tensor();
  add_(weight_.grad, dw);
  if (has_bias_) add_(bias_.grad, sum_rows(grad_out));
  return matmul(grad_out, weight_.value, false, false);
}

void Linear::collect_params(std::vector<Param*>& out) {
  out.push_back(&weight_);
  if (has_bias_) out.push_back(&bias_);
}

}  // namespace fca::nn
