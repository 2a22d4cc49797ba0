// 2-D convolution (NCHW) lowered to GEMM, with grouped / depthwise support
// (groups == in_channels == out_channels). Stride-1 convs lower through
// zero-bordered input planes, one contiguous window per lowered row; strided
// convs unfold through im2col/col2im (DESIGN.md §9).
#pragma once

#include "nn/module.hpp"
#include "tensor/im2col.hpp"

namespace fca {
class Rng;
}

namespace fca::nn {

class Conv2d : public Module {
 public:
  /// Square kernel/stride/padding. `groups` splits channels into
  /// independent convolution groups (in_channels and out_channels must both
  /// be divisible by it); groups == in_channels == out_channels is a
  /// depthwise convolution.
  Conv2d(int64_t in_channels, int64_t out_channels, int64_t kernel,
         int64_t stride, int64_t padding, Rng& rng, bool bias = true,
         int64_t groups = 1);

  Tensor forward(const Tensor& x, bool train) override;
  Tensor backward(const Tensor& grad_out) override;
  void collect_params(std::vector<Param*>& out) override;
  std::string name() const override { return "Conv2d"; }

  int64_t in_channels() const { return in_c_; }
  int64_t out_channels() const { return out_c_; }
  int64_t groups() const { return groups_; }
  Param& weight() { return weight_; }

 private:
  /// Geometry of one group's convolution.
  ConvGeom group_geom(int64_t h, int64_t w) const;

  int64_t in_c_, out_c_, kernel_, stride_, padding_, groups_;
  bool has_bias_;
  Param weight_;  // [out_c, (in_c / groups) * k * k]
  Param bias_;    // [out_c]
  Tensor cached_input_;
};

}  // namespace fca::nn
