// Composite modules: Sequential, Residual, parallel branch concat, channel
// shuffle. These are the structural building blocks the model zoo uses to
// assemble ResNet / ShuffleNetV2 / GoogLeNet style backbones.
#pragma once

#include <vector>

#include "nn/module.hpp"

namespace fca::nn {

/// Runs children in order; backward in reverse order.
class Sequential : public Module {
 public:
  /// Builder-style append.
  Sequential& add(ModulePtr m);

  Tensor forward(const Tensor& x, bool train) override;
  Tensor backward(const Tensor& grad_out) override;
  void collect_params(std::vector<Param*>& out) override;
  void collect_buffers(std::vector<BufferRef>& out,
                       const std::string& prefix) override;
  std::string name() const override { return "Sequential"; }

  size_t size() const { return children_.size(); }
  Module& child(size_t i) { return *children_.at(i); }

 private:
  std::vector<ModulePtr> children_;
};

/// y = body(x) + shortcut(x). A null shortcut is the identity (requires the
/// body to preserve shape). The post-sum ReLU that ResNet uses is added
/// separately by the model builder.
class Residual : public Module {
 public:
  Residual(ModulePtr body, ModulePtr shortcut /* nullable */);

  Tensor forward(const Tensor& x, bool train) override;
  Tensor backward(const Tensor& grad_out) override;
  void collect_params(std::vector<Param*>& out) override;
  void collect_buffers(std::vector<BufferRef>& out,
                       const std::string& prefix) override;
  std::string name() const override { return "Residual"; }

 private:
  ModulePtr body_;
  ModulePtr shortcut_;
};

/// Runs every branch on the same input and concatenates outputs along the
/// channel dim (the GoogLeNet inception pattern).
class BranchConcat : public Module {
 public:
  explicit BranchConcat(std::vector<ModulePtr> branches);

  Tensor forward(const Tensor& x, bool train) override;
  Tensor backward(const Tensor& grad_out) override;
  void collect_params(std::vector<Param*>& out) override;
  void collect_buffers(std::vector<BufferRef>& out,
                       const std::string& prefix) override;
  std::string name() const override { return "BranchConcat"; }

 private:
  std::vector<ModulePtr> branches_;
  std::vector<int64_t> branch_channels_;  // from last forward
};

/// ShuffleNet channel shuffle: [B, g*n, H, W] viewed as (g, n) and
/// transposed to (n, g). Parameter-free; backward applies the inverse
/// permutation.
class ChannelShuffle : public Module {
 public:
  explicit ChannelShuffle(int64_t groups);

  Tensor forward(const Tensor& x, bool train) override;
  Tensor backward(const Tensor& grad_out) override;
  std::string name() const override { return "ChannelShuffle"; }

 private:
  int64_t groups_;
  Shape cached_shape_;  // forward input (and output) shape
};

}  // namespace fca::nn
