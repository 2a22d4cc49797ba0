// Batch normalization over NCHW activations. The per-channel sums run in
// one pinned lane order and the elementwise passes without contraction, so
// every ISA clone and build gives the same bytes (DESIGN.md §9).
#pragma once

#include "nn/module.hpp"

namespace fca::nn {

class BatchNorm2d : public Module {
 public:
  explicit BatchNorm2d(int64_t channels, float eps = 1e-5f,
                       float momentum = 0.1f);

  /// train: normalizes with batch statistics and updates running stats.
  /// eval: normalizes with running statistics.
  Tensor forward(const Tensor& x, bool train) override;
  Tensor backward(const Tensor& grad_out) override;
  void collect_params(std::vector<Param*>& out) override;
  void collect_buffers(std::vector<BufferRef>& out,
                       const std::string& prefix) override;
  std::string name() const override { return "BatchNorm2d"; }

  Tensor& running_mean() { return running_mean_; }
  Tensor& running_var() { return running_var_; }

 private:
  int64_t channels_;
  float eps_, momentum_;
  Param gamma_;  // [C] scale
  Param beta_;   // [C] shift
  Tensor running_mean_, running_var_;  // [C]
  // backward cache (training forward only)
  Tensor cached_xhat_;     // [B, C, H, W]
  Tensor cached_inv_std_;  // [C]
};

}  // namespace fca::nn
