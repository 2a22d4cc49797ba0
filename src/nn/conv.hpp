// 2-D convolution (NCHW) with grouped / depthwise support (groups ==
// in_channels == out_channels). Dense and grouped convs run their forward,
// wgrad and dgrad GEMMs through sgemm_rows over zero-bordered, phase-split
// input planes: at every stride each row of im2col's lowered matrix is one
// contiguous window of one phase plane, which the GEMM reads in place
// through a row pointer, so no lowered matrix is built. Depthwise convs
// with 2x2 to 4x4 kernels skip the GEMMs and run direct kernels over the
// same planes, reproducing the GEMM path's per-element operation sequences
// (DESIGN.md §9).
#pragma once

#include <cstdint>

#include "nn/module.hpp"

namespace fca {
class Rng;

/// Geometry of one convolution group: input planes, kernel, stride, padding.
struct ConvGeom {
  int64_t channels, height, width;
  int64_t kernel_h, kernel_w;
  int64_t stride_h, stride_w;
  int64_t pad_h, pad_w;

  int64_t out_h() const {
    return (height + 2 * pad_h - kernel_h) / stride_h + 1;
  }
  int64_t out_w() const {
    return (width + 2 * pad_w - kernel_w) / stride_w + 1;
  }
  /// Rows of im2col's lowered matrix (the depth of the forward GEMM):
  /// channels * kernel_h * kernel_w.
  int64_t col_rows() const { return channels * kernel_h * kernel_w; }
  /// Output positions per channel: out_h * out_w.
  int64_t col_cols() const { return out_h() * out_w(); }
};
}  // namespace fca

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
  /// Depthwise with a 2x2 to 4x4 kernel: runs the direct kernels.
  bool direct_depthwise() const;

  int64_t in_c_, out_c_, kernel_, stride_, padding_, groups_;
  bool has_bias_;
  Param weight_;  // [out_c, (in_c / groups) * k * k]
  Param bias_;    // [out_c]
  Tensor cached_input_;
};

}  // namespace fca::nn
