// Spatial pooling layers (NCHW).
#pragma once

#include <cstdint>
#include <vector>

#include "nn/module.hpp"

namespace fca::nn {

/// Max pooling over clipped windows: taps outside the input are skipped, so
/// padding never wins. Each window's first in-bounds tap (row-major) seeds
/// the maximum and only a strictly greater tap replaces it, which fixes the
/// value and argmax for NaN, -inf, -0 and ties. The forward pass scans the
/// windows of many output columns at once over -inf-bordered, stride-phase
/// copies of each plane (DESIGN.md §9).
class MaxPool2d : public Module {
 public:
  MaxPool2d(int64_t kernel, int64_t stride, int64_t padding = 0);
  Tensor forward(const Tensor& x, bool train) override;
  Tensor backward(const Tensor& grad_out) override;
  std::string name() const override { return "MaxPool2d"; }

 private:
  int64_t kernel_, stride_, padding_;
  Shape cached_in_shape_;
  std::vector<int32_t> cached_argmax_;  // input index within its plane
  std::vector<int32_t> lane_scratch_;   // forward's per-lane index scratch
};

/// Collapses each channel's spatial extent to its mean: [B,C,H,W] -> [B,C].
class GlobalAvgPool : public Module {
 public:
  Tensor forward(const Tensor& x, bool train) override;
  Tensor backward(const Tensor& grad_out) override;
  std::string name() const override { return "GlobalAvgPool"; }

 private:
  Shape cached_in_shape_;
};

/// [B, C, H, W] -> [B, C*H*W].
class Flatten : public Module {
 public:
  Tensor forward(const Tensor& x, bool train) override;
  Tensor backward(const Tensor& grad_out) override;
  std::string name() const override { return "Flatten"; }

 private:
  Shape cached_in_shape_;
};

}  // namespace fca::nn
