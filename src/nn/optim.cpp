#include "nn/optim.hpp"

#include <cmath>

#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "tensor/kernel.hpp"
#include "tensor/ops.hpp"
#include "utils/error.hpp"

namespace fca::nn {

void Optimizer::zero_grad() {
  for (Param* p : params_) p->zero_grad();
}

void Optimizer::restore_scalar_state(const std::vector<int64_t>& state) {
  FCA_CHECK_MSG(state.empty(), "optimizer has no scalar state to restore");
}

SGD::SGD(std::vector<Param*> params, float lr, float momentum,
         float weight_decay, bool nesterov)
    : Optimizer(std::move(params), lr),
      momentum_(momentum),
      weight_decay_(weight_decay),
      nesterov_(nesterov) {
  FCA_CHECK(lr > 0.0f && momentum >= 0.0f && weight_decay >= 0.0f);
  FCA_CHECK_MSG(!nesterov || momentum > 0.0f,
                "Nesterov momentum requires momentum > 0");
  velocity_.reserve(params_.size());
  for (const Param* p : params_) velocity_.emplace_back(p->value.shape());
}

namespace {

/// Step-time histogram, resolved once; null while metrics are disabled so
/// the hot path stays a single relaxed load.
obs::Histogram* step_histogram() {
  if (!obs::metrics_enabled()) return nullptr;
  static obs::Histogram* h =
      &obs::MetricsRegistry::instance().histogram("nn.optim.step_seconds");
  return h;
}

/// One parameter's Adam update over `n` elements, in the scalar expression
/// order: g = grad (+ wd * value), m = b1 * m + (1 - b1) * g,
/// v = b2 * v + ((1 - b2) * g) * g, value -= (lr * (m / bc1)) /
/// (sqrt(v / bc2) + eps). With kZeroSlots the old m and v are the literal
/// 0.0f, not read: the bytes of a step from zero-filled slots, which the
/// slots need not hold. Built without contraction, so the FMA clones give
/// the baseline clone's bytes; the sqrt vectorizes because optim.cpp is
/// compiled with -fno-math-errno (src/CMakeLists.txt).
template <bool kZeroSlots>
FCA_MICROKERNEL_CLONES __attribute__((optimize("fp-contract=off")))
void adam_update(float* __restrict value, const float* __restrict grad,
                 float* __restrict m, float* __restrict v, int64_t n,
                 float b1, float b2, float lr, float bc1, float bc2,
                 float eps, float wd) {
  const float c1 = 1.0f - b1;
  const float c2 = 1.0f - b2;
  if (wd > 0.0f) {
#pragma omp simd
    for (int64_t j = 0; j < n; ++j) {
      const float g = grad[j] + wd * value[j];
      m[j] = b1 * (kZeroSlots ? 0.0f : m[j]) + c1 * g;
      v[j] = b2 * (kZeroSlots ? 0.0f : v[j]) + c2 * g * g;
      value[j] -= lr * (m[j] / bc1) / (std::sqrt(v[j] / bc2) + eps);
    }
  } else {
#pragma omp simd
    for (int64_t j = 0; j < n; ++j) {
      const float g = grad[j];
      m[j] = b1 * (kZeroSlots ? 0.0f : m[j]) + c1 * g;
      v[j] = b2 * (kZeroSlots ? 0.0f : v[j]) + c2 * g * g;
      value[j] -= lr * (m[j] / bc1) / (std::sqrt(v[j] / bc2) + eps);
    }
  }
}

}  // namespace

void SGD::step() {
  obs::ProfileSpan span("kernel", "optim.step",
                        static_cast<int64_t>(params_.size()));
  obs::ScopedTimer timer(step_histogram());
  for (size_t i = 0; i < params_.size(); ++i) {
    Param& p = *params_[i];
    Tensor g = p.grad.clone();
    if (weight_decay_ > 0.0f) axpy_(g, weight_decay_, p.value);
    if (momentum_ > 0.0f) {
      Tensor& v = velocity_[i];
      mul_scalar_(v, momentum_);
      add_(v, g);
      if (nesterov_) {
        axpy_(g, momentum_, v);
      } else {
        g = v.clone();
      }
    }
    axpy_(p.value, -lr_, g);
  }
}

void SGD::reset() {
  Optimizer::reset();
  for (Tensor& v : velocity_) v.fill(0.0f);
}

std::vector<Tensor*> SGD::state_tensors() {
  std::vector<Tensor*> out;
  out.reserve(velocity_.size());
  for (Tensor& v : velocity_) out.push_back(&v);
  return out;
}

Adam::Adam(std::vector<Param*> params, float lr, float beta1, float beta2,
           float eps, float weight_decay)
    : Optimizer(std::move(params), lr),
      beta1_(beta1),
      beta2_(beta2),
      eps_(eps),
      weight_decay_(weight_decay) {
  FCA_CHECK(lr > 0.0f && beta1 >= 0.0f && beta1 < 1.0f && beta2 >= 0.0f &&
            beta2 < 1.0f && eps > 0.0f && weight_decay >= 0.0f);
  m_.reserve(params_.size());
  v_.reserve(params_.size());
  for (const Param* p : params_) {
    m_.emplace_back(p->value.shape());
    v_.emplace_back(p->value.shape());
  }
}

void Adam::step() {
  obs::ProfileSpan span("kernel", "optim.step",
                        static_cast<int64_t>(params_.size()));
  obs::ScopedTimer timer(step_histogram());
  for (const Param* p : params_) FCA_CHECK(p->grad.same_shape(p->value));
  ++t_;
  const float bc1 = 1.0f - std::pow(beta1_, static_cast<float>(t_));
  const float bc2 = 1.0f - std::pow(beta2_, static_cast<float>(t_));
  const auto update = slots_owed_zeros_ ? adam_update<true>
                                        : adam_update<false>;
  for (size_t i = 0; i < params_.size(); ++i) {
    Param& p = *params_[i];
    update(p.value.data(), p.grad.data(), m_[i].data(), v_[i].data(),
           p.value.numel(), beta1_, beta2_, lr_, bc1, bc2, eps_,
           weight_decay_);
  }
  slots_owed_zeros_ = false;
}

void Adam::reset() {
  Optimizer::reset();
  t_ = 0;
  slots_owed_zeros_ = true;
}

std::vector<Tensor*> Adam::state_tensors() {
  // The caller may read the slots or write through the pointers, so the
  // zeros a reset skipped are written now.
  if (slots_owed_zeros_) {
    for (Tensor& m : m_) m.fill(0.0f);
    for (Tensor& v : v_) v.fill(0.0f);
    slots_owed_zeros_ = false;
  }
  std::vector<Tensor*> out;
  out.reserve(m_.size() + v_.size());
  for (Tensor& m : m_) out.push_back(&m);
  for (Tensor& v : v_) out.push_back(&v);
  return out;
}

std::vector<int64_t> Adam::scalar_state() const { return {t_}; }

void Adam::restore_scalar_state(const std::vector<int64_t>& state) {
  FCA_CHECK_MSG(state.size() == 1 && state[0] >= 0,
                "bad Adam scalar state");
  t_ = state[0];
}

}  // namespace fca::nn
