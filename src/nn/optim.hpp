// First-order optimizers over nn::Param sets.
#pragma once

#include <vector>

#include "nn/module.hpp"

namespace fca::nn {

class Optimizer {
 public:
  Optimizer(std::vector<Param*> params, float lr)
      : params_(std::move(params)), lr_(lr), initial_lr_(lr) {}
  virtual ~Optimizer() = default;

  /// Applies one update using the gradients currently accumulated in the
  /// parameters.
  virtual void step() = 0;
  /// Clears every parameter gradient.
  void zero_grad();
  /// Returns the optimizer to its freshly constructed state in place: the
  /// slot tensors read as zeros (their storage, and so every
  /// state_tensors() pointer, stays the same), the scalar state restarts
  /// and the learning rate goes back to its constructor value.
  virtual void reset() { lr_ = initial_lr_; }

  // -- checkpoint support ----------------------------------------------------
  /// Mutable views of the optimizer's slot tensors (momentum buffers, moment
  /// estimates, ...) in a stable order; empty for stateless optimizers.
  /// Copying these out and back restores the optimizer exactly.
  virtual std::vector<Tensor*> state_tensors() { return {}; }
  /// Non-tensor state (e.g. Adam's step counter) in a stable order.
  virtual std::vector<int64_t> scalar_state() const { return {}; }
  /// Restores state captured with scalar_state().
  virtual void restore_scalar_state(const std::vector<int64_t>& state);

  const std::vector<Param*>& params() const { return params_; }
  void set_lr(float lr) { lr_ = lr; }
  float lr() const { return lr_; }

 protected:
  std::vector<Param*> params_;
  float lr_;

 private:
  float initial_lr_;
};

/// SGD with optional momentum, Nesterov, and decoupled L2 weight decay.
class SGD : public Optimizer {
 public:
  SGD(std::vector<Param*> params, float lr, float momentum = 0.0f,
      float weight_decay = 0.0f, bool nesterov = false);
  void step() override;
  void reset() override;
  std::vector<Tensor*> state_tensors() override;

 private:
  float momentum_, weight_decay_;
  bool nesterov_;
  std::vector<Tensor> velocity_;
};

/// Adam (Kingma & Ba) with bias correction; the paper's local client update
/// uses Adam with the Table-1 learning rates. The per-element update is a
/// cloned, vectorized kernel (DESIGN.md §9) whose bytes equal the scalar
/// expression order on every clone. reset() writes no slot: the next step
/// reads literal zeros in their place, and state_tensors() writes them
/// first if it comes before that step (DESIGN.md §13).
class Adam : public Optimizer {
 public:
  Adam(std::vector<Param*> params, float lr, float beta1 = 0.9f,
       float beta2 = 0.999f, float eps = 1e-8f, float weight_decay = 0.0f);
  void step() override;
  void reset() override;
  std::vector<Tensor*> state_tensors() override;
  std::vector<int64_t> scalar_state() const override;
  void restore_scalar_state(const std::vector<int64_t>& state) override;

 private:
  float beta1_, beta2_, eps_, weight_decay_;
  int64_t t_ = 0;
  std::vector<Tensor> m_, v_;
  /// Set by reset(): m_ and v_ stand for zeros they do not hold yet.
  bool slots_owed_zeros_ = false;
};

}  // namespace fca::nn
