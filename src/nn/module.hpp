// Neural-network module system with explicit backpropagation.
//
// Modules own their parameters (Param = value + gradient), cache whatever
// the last forward pass needs for its backward pass, and propagate gradients
// with backward(grad_out) -> grad_in. This explicit scheme is used for the
// convolutional backbones, where it is faster and far lighter than taping;
// the loss heads on top of the extracted features use fca::ag instead.
//
// Conventions:
//  * Activations are NCHW ([batch, channels, height, width]) or [batch, dim].
//  * forward(x, train) must be called before backward(g); backward consumes
//    the cached state of exactly that forward call. Every module a backbone
//    uses frees its cached activations when backward returns, so between
//    steps it holds only its parameters, their gradients and its buffers,
//    and a second backward throws until a new training forward.
//  * Parameter gradients are *accumulated*; call Optimizer::zero_grad()
//    (or Param::zero_grad) between steps.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "tensor/tensor.hpp"

namespace fca {
class Rng;
}

namespace fca::nn {

/// A learnable tensor with its gradient accumulator.
struct Param {
  std::string name;
  Tensor value;
  Tensor grad;

  Param() = default;
  Param(std::string n, Tensor v)
      : name(std::move(n)), value(std::move(v)), grad(value.shape()) {}

  void zero_grad() { grad.fill(0.0f); }
  int64_t numel() const { return value.numel(); }
};

/// Named non-learnable state (e.g. BatchNorm running statistics) that must
/// be serialized with the model.
struct BufferRef {
  std::string name;
  Tensor* tensor;
};

class Module {
 public:
  virtual ~Module() = default;

  /// Computes the output; `train` selects training behaviour (BatchNorm batch
  /// stats) and enables caching for backward().
  virtual Tensor forward(const Tensor& x, bool train) = 0;

  /// Backpropagates `grad_out` (shape of the last forward output) through
  /// the module: accumulates parameter gradients, returns gradient w.r.t.
  /// the last forward input.
  virtual Tensor backward(const Tensor& grad_out) = 0;

  /// Appends raw pointers to this module's parameters (including children).
  virtual void collect_params(std::vector<Param*>& out) { (void)out; }
  /// Appends named buffers (including children), prefixing names.
  virtual void collect_buffers(std::vector<BufferRef>& out,
                               const std::string& prefix) {
    (void)out;
    (void)prefix;
  }

  virtual std::string name() const = 0;

  /// Convenience: all parameters of this subtree.
  std::vector<Param*> parameters();
  /// Total learnable element count.
  int64_t parameter_count();
};

using ModulePtr = std::unique_ptr<Module>;

/// Counts the multiply-adds of the Conv2d and Linear forward passes that
/// this thread runs while the counter is alive. For static cost estimates
/// (models::forward_macs); nested counters count into the innermost.
class MacCounter {
 public:
  MacCounter();
  ~MacCounter();
  MacCounter(const MacCounter&) = delete;
  MacCounter& operator=(const MacCounter&) = delete;

  int64_t count() const { return count_; }
  /// Adds to this thread's innermost live counter, if any.
  static void add(int64_t macs);

 private:
  int64_t count_ = 0;
  MacCounter* outer_;
};

// -- NCHW channel helpers (used by ShuffleNet / GoogLeNet style blocks) ----
/// Slices channels [from, to) of a [B, C, H, W] tensor.
Tensor slice_channels(const Tensor& x, int64_t from, int64_t to);
/// Concatenates [B, Ci, H, W] tensors along the channel dim.
Tensor concat_channels(const std::vector<Tensor>& parts);

}  // namespace fca::nn
