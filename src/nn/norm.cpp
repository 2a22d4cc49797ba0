#include "nn/norm.hpp"

#include <algorithm>
#include <cmath>
#include <cstring>

#include "tensor/kernel.hpp"
#include "utils/error.hpp"

namespace fca::nn {
namespace {

// The per-channel sums run on GCC vector types in one pinned order
// (DESIGN.md §9), so every clone and every build gives the same bytes: per
// image, four double lanes take positions p mod 4 below hw & ~3 in
// ascending p, the hw mod 4 tail adds into lane 0, and the running sum then
// adds lanes 0, 1, 2, 3, image after image. Each product of two floats is
// exact in double, so contracting it into its add cannot move a sum.
typedef float Float4 __attribute__((vector_size(16)));
typedef double Lanes __attribute__((vector_size(32)));
constexpr int64_t kChains = 4;  // images summed side by side

/// Adds the N images' sums of a and of a·b (planes `stride` floats apart)
/// to sa and sab in ascending image order. The images are independent
/// chains until that fold.
template <int64_t N>
__attribute__((always_inline)) inline void sum_images(
    const float* a, const float* b, int64_t stride, int64_t hw, double& sa,
    double& sab) {
  Lanes la[N], lab[N];
  for (int64_t c = 0; c < N; ++c) la[c] = lab[c] = Lanes{};
  const int64_t body = hw & ~int64_t{3};
  for (int64_t p = 0; p < body; p += 4) {
    for (int64_t c = 0; c < N; ++c) {
      Float4 va, vb;
      std::memcpy(&va, a + c * stride + p, sizeof(va));
      std::memcpy(&vb, b + c * stride + p, sizeof(vb));
      const Lanes da = __builtin_convertvector(va, Lanes);
      la[c] += da;
      lab[c] += da * __builtin_convertvector(vb, Lanes);
    }
  }
  for (int64_t c = 0; c < N; ++c) {
    for (int64_t p = body; p < hw; ++p) {
      const double x = a[c * stride + p];
      la[c][0] += x;
      lab[c][0] += x * b[c * stride + p];
    }
    for (int l = 0; l < 4; ++l) {
      sa += la[c][l];
      sab += lab[c][l];
    }
  }
}

/// One channel's sums over `images` planes of `hw` floats, `stride` apart:
/// out[0] = Σa, out[1] = Σa·b, in double.
FCA_MICROKERNEL_CLONES
void channel_sums(const float* a, const float* b, int64_t stride,
                  int64_t images, int64_t hw, double* out) {
  double sa = 0.0, sab = 0.0;
  int64_t i = 0;
  for (; i + kChains <= images; i += kChains) {
    sum_images<kChains>(a + i * stride, b + i * stride, stride, hw, sa, sab);
  }
  for (; i < images; ++i) {
    sum_images<1>(a + i * stride, b + i * stride, stride, hw, sa, sab);
  }
  out[0] = sa;
  out[1] = sab;
}

// The elementwise passes round every product before its add
// (fp-contract=off), as the baseline clone computes them, so the FMA clones
// give its bytes.

/// Training forward of one channel: xh = (x - mu) * inv, out = g * xh + bt.
FCA_MICROKERNEL_CLONES __attribute__((optimize("fp-contract=off")))
void normalize_train(const float* x, float* xh, float* out, int64_t stride,
                     int64_t images, int64_t hw, float mu, float inv, float g,
                     float bt) {
  for (int64_t i = 0; i < images; ++i) {
    const float* xi = x + i * stride;
    float* hi = xh + i * stride;
    float* oi = out + i * stride;
#pragma omp simd
    for (int64_t p = 0; p < hw; ++p) {
      const float v = (xi[p] - mu) * inv;
      hi[p] = v;
      oi[p] = g * v + bt;
    }
  }
}

/// Eval forward of one channel: out = g * (x - mu) * inv + bt.
FCA_MICROKERNEL_CLONES __attribute__((optimize("fp-contract=off")))
void normalize_eval(const float* x, float* out, int64_t stride,
                    int64_t images, int64_t hw, float mu, float inv, float g,
                    float bt) {
  for (int64_t i = 0; i < images; ++i) {
    const float* xi = x + i * stride;
    float* oi = out + i * stride;
#pragma omp simd
    for (int64_t p = 0; p < hw; ++p) oi[p] = g * (xi[p] - mu) * inv + bt;
  }
}

/// Backward of one channel, in double:
/// gi = scale * (go - mean_g - xh * mean_gx).
FCA_MICROKERNEL_CLONES __attribute__((optimize("fp-contract=off")))
void normalize_backward(const float* go, const float* xh, float* gi,
                        int64_t stride, int64_t images, int64_t hw,
                        double mean_g, double mean_gx, double scale) {
  for (int64_t i = 0; i < images; ++i) {
    const float* g = go + i * stride;
    const float* h = xh + i * stride;
    float* o = gi + i * stride;
#pragma omp simd
    for (int64_t p = 0; p < hw; ++p) {
      o[p] = static_cast<float>(scale * (g[p] - mean_g - h[p] * mean_gx));
    }
  }
}

}  // namespace

BatchNorm2d::BatchNorm2d(int64_t channels, float eps, float momentum)
    : channels_(channels),
      eps_(eps),
      momentum_(momentum),
      gamma_("gamma", Tensor::ones({channels})),
      beta_("beta", Tensor({channels})),
      running_mean_({channels}),
      running_var_(Tensor::ones({channels})) {
  FCA_CHECK(channels > 0 && eps > 0.0f);
}

Tensor BatchNorm2d::forward(const Tensor& x, bool train) {
  FCA_CHECK_MSG(x.ndim() == 4 && x.dim(1) == channels_,
                "BatchNorm2d expects [B, " << channels_ << ", H, W], got "
                                           << shape_to_string(x.shape()));
  const int64_t b = x.dim(0), c = channels_, h = x.dim(2), w = x.dim(3);
  const int64_t hw = h * w;
  const int64_t n = b * hw;  // elements per channel
  const int64_t stride = c * hw;  // between one channel's planes
  Tensor out = Tensor::uninit(x.shape());

  if (!train) {
    for (int64_t ch = 0; ch < c; ++ch) {
      const float inv = 1.0f / std::sqrt(running_var_[ch] + eps_);
      normalize_eval(x.data() + ch * hw, out.data() + ch * hw, stride, b, hw,
                     running_mean_[ch], inv, gamma_.value[ch],
                     beta_.value[ch]);
    }
    return out;
  }

  FCA_CHECK_MSG(n > 1, "BatchNorm2d training needs more than one value per "
                       "channel");
  cached_xhat_ = Tensor::uninit(x.shape());
  cached_inv_std_ = Tensor::uninit({c});
  for (int64_t ch = 0; ch < c; ++ch) {
    const float* xc = x.data() + ch * hw;
    double sums[2];  // Σx, Σx²
    channel_sums(xc, xc, stride, b, hw, sums);
    const double mu = sums[0] / n;
    // Biased, as PyTorch.
    const double var = std::max(0.0, sums[1] / n - mu * mu);
    const auto inv = static_cast<float>(1.0 / std::sqrt(var + eps_));
    cached_inv_std_[ch] = inv;
    normalize_train(xc, cached_xhat_.data() + ch * hw, out.data() + ch * hw,
                    stride, b, hw, static_cast<float>(mu), inv,
                    gamma_.value[ch], beta_.value[ch]);
    // PyTorch tracks the *unbiased* variance in running stats.
    const double unbiased = n > 1 ? var * n / (n - 1) : var;
    running_mean_[ch] = (1.0f - momentum_) * running_mean_[ch] +
                        momentum_ * static_cast<float>(mu);
    running_var_[ch] = (1.0f - momentum_) * running_var_[ch] +
                       momentum_ * static_cast<float>(unbiased);
  }
  return out;
}

Tensor BatchNorm2d::backward(const Tensor& grad_out) {
  FCA_CHECK_MSG(!cached_xhat_.empty(),
                "BatchNorm2d::backward without a training forward");
  FCA_CHECK(grad_out.same_shape(cached_xhat_));
  const int64_t b = grad_out.dim(0), c = channels_, h = grad_out.dim(2),
                w = grad_out.dim(3);
  const int64_t hw = h * w;
  const int64_t n = b * hw;
  const int64_t stride = c * hw;
  Tensor grad_in = Tensor::uninit(grad_out.shape());
  for (int64_t ch = 0; ch < c; ++ch) {
    const float* go = grad_out.data() + ch * hw;
    const float* xh = cached_xhat_.data() + ch * hw;
    double sums[2];  // Σg, Σg·x̂
    channel_sums(go, xh, stride, b, hw, sums);
    gamma_.grad[ch] += static_cast<float>(sums[1]);
    beta_.grad[ch] += static_cast<float>(sums[0]);
    const double scale = static_cast<double>(gamma_.value[ch]) *
                         cached_inv_std_[ch];
    normalize_backward(go, xh, grad_in.data() + ch * hw, stride, b, hw,
                       sums[0] / n, sums[1] / n, scale);
  }
  cached_xhat_ = Tensor();
  return grad_in;
}

void BatchNorm2d::collect_params(std::vector<Param*>& out) {
  out.push_back(&gamma_);
  out.push_back(&beta_);
}

void BatchNorm2d::collect_buffers(std::vector<BufferRef>& out,
                                  const std::string& prefix) {
  out.push_back({prefix + "running_mean", &running_mean_});
  out.push_back({prefix + "running_var", &running_var_});
}

}  // namespace fca::nn
