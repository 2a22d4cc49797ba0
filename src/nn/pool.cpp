#include "nn/pool.hpp"

#include <algorithm>

#include "utils/error.hpp"

namespace fca::nn {
namespace {

int64_t pooled_extent(int64_t in, int64_t kernel, int64_t stride,
                      int64_t padding) {
  return (in + 2 * padding - kernel) / stride + 1;
}

}  // namespace

MaxPool2d::MaxPool2d(int64_t kernel, int64_t stride, int64_t padding)
    : kernel_(kernel), stride_(stride), padding_(padding) {
  FCA_CHECK(kernel > 0 && stride > 0 && padding >= 0 && padding < kernel);
}

Tensor MaxPool2d::forward(const Tensor& x, bool train) {
  FCA_CHECK(x.ndim() == 4);
  const int64_t b = x.dim(0), c = x.dim(1), h = x.dim(2), w = x.dim(3);
  const int64_t oh = pooled_extent(h, kernel_, stride_, padding_);
  const int64_t ow = pooled_extent(w, kernel_, stride_, padding_);
  FCA_CHECK_MSG(oh > 0 && ow > 0, "MaxPool2d output empty for "
                                      << shape_to_string(x.shape()));
  Tensor out = Tensor::uninit({b, c, oh, ow});
  if (train) {
    cached_in_shape_ = x.shape();
    cached_argmax_.assign(static_cast<size_t>(b * c * oh * ow), -1);
  }
  const int64_t k = kernel_, s = stride_, p = padding_;
  for (int64_t i = 0; i < b * c; ++i) {
    const float* xi = x.data() + i * h * w;
    float* oi = out.data() + i * oh * ow;
    for (int64_t y = 0; y < oh; ++y) {
      // Each window's in-bounds taps form the rectangle [ky0, ky1) x
      // [kx0, kx1), clipped once per window instead of checked per tap;
      // padding < kernel keeps it non-empty. Interior windows get the full
      // kernel.
      const int64_t top = y * s - p;
      const int64_t ky0 = std::max<int64_t>(0, -top);
      const int64_t ky1 = std::min(k, h - top);
      for (int64_t xo = 0; xo < ow; ++xo) {
        const int64_t left = xo * s - p;
        const int64_t kx0 = std::max<int64_t>(0, -left);
        const int64_t kx1 = std::min(k, w - left);
        // The first in-bounds tap (ky-then-kx order) seeds the maximum, so a
        // window whose taps are all NaN or -inf still records a real index
        // for backward; only a strictly greater tap replaces it. Selects,
        // not branches: the comparisons are data-dependent.
        int64_t best_idx = (top + ky0) * w + left + kx0;
        float best = xi[best_idx];
        for (int64_t ky = ky0; ky < ky1; ++ky) {
          const int64_t row = (top + ky) * w + left;
          for (int64_t kx = kx0; kx < kx1; ++kx) {
            const float v = xi[row + kx];
            const bool greater = v > best;
            best = greater ? v : best;
            best_idx = greater ? row + kx : best_idx;
          }
        }
        oi[y * ow + xo] = best;
        if (train) {
          cached_argmax_[static_cast<size_t>(i * oh * ow + y * ow + xo)] =
              best_idx;
        }
      }
    }
  }
  return out;
}

Tensor MaxPool2d::backward(const Tensor& grad_out) {
  FCA_CHECK_MSG(!cached_argmax_.empty(),
                "MaxPool2d::backward without a training forward");
  const int64_t b = cached_in_shape_[0], c = cached_in_shape_[1],
                h = cached_in_shape_[2], w = cached_in_shape_[3];
  const int64_t oh = pooled_extent(h, kernel_, stride_, padding_);
  const int64_t ow = pooled_extent(w, kernel_, stride_, padding_);
  FCA_CHECK_MSG(grad_out.shape() == (Shape{b, c, oh, ow}),
                "MaxPool2d::backward expects grad_out "
                    << shape_to_string({b, c, oh, ow}) << ", got "
                    << shape_to_string(grad_out.shape()));
  Tensor grad_in(cached_in_shape_);
  for (int64_t i = 0; i < b * c; ++i) {
    float* gi = grad_in.data() + i * h * w;
    const float* go = grad_out.data() + i * oh * ow;
    for (int64_t p = 0; p < oh * ow; ++p) {
      const int64_t idx = cached_argmax_[static_cast<size_t>(i * oh * ow + p)];
      gi[idx] += go[p];
    }
  }
  return grad_in;
}

AvgPool2d::AvgPool2d(int64_t kernel, int64_t stride, int64_t padding)
    : kernel_(kernel), stride_(stride), padding_(padding) {
  FCA_CHECK(kernel > 0 && stride > 0 && padding >= 0 && padding < kernel);
}

Tensor AvgPool2d::forward(const Tensor& x, bool train) {
  FCA_CHECK(x.ndim() == 4);
  const int64_t b = x.dim(0), c = x.dim(1), h = x.dim(2), w = x.dim(3);
  const int64_t oh = pooled_extent(h, kernel_, stride_, padding_);
  const int64_t ow = pooled_extent(w, kernel_, stride_, padding_);
  FCA_CHECK(oh > 0 && ow > 0);
  if (train) cached_in_shape_ = x.shape();
  Tensor out = Tensor::uninit({b, c, oh, ow});
  // Padding taps count toward the divisor (count_include_pad, the PyTorch
  // default), so the divisor is always kernel^2.
  const float inv = 1.0f / static_cast<float>(kernel_ * kernel_);
  for (int64_t i = 0; i < b * c; ++i) {
    const float* xi = x.data() + i * h * w;
    float* oi = out.data() + i * oh * ow;
    for (int64_t y = 0; y < oh; ++y) {
      for (int64_t xo = 0; xo < ow; ++xo) {
        double s = 0.0;
        for (int64_t ky = 0; ky < kernel_; ++ky) {
          const int64_t iy = y * stride_ - padding_ + ky;
          if (iy < 0 || iy >= h) continue;
          for (int64_t kx = 0; kx < kernel_; ++kx) {
            const int64_t ix = xo * stride_ - padding_ + kx;
            if (ix >= 0 && ix < w) s += xi[iy * w + ix];
          }
        }
        oi[y * ow + xo] = static_cast<float>(s) * inv;
      }
    }
  }
  return out;
}

Tensor AvgPool2d::backward(const Tensor& grad_out) {
  FCA_CHECK_MSG(!cached_in_shape_.empty(),
                "AvgPool2d::backward without a training forward");
  const int64_t b = cached_in_shape_[0], c = cached_in_shape_[1],
                h = cached_in_shape_[2], w = cached_in_shape_[3];
  const int64_t oh = pooled_extent(h, kernel_, stride_, padding_);
  const int64_t ow = pooled_extent(w, kernel_, stride_, padding_);
  FCA_CHECK_MSG(grad_out.shape() == (Shape{b, c, oh, ow}),
                "AvgPool2d::backward expects grad_out "
                    << shape_to_string({b, c, oh, ow}) << ", got "
                    << shape_to_string(grad_out.shape()));
  Tensor grad_in(cached_in_shape_);
  const float inv = 1.0f / static_cast<float>(kernel_ * kernel_);
  for (int64_t i = 0; i < b * c; ++i) {
    float* gi = grad_in.data() + i * h * w;
    const float* go = grad_out.data() + i * oh * ow;
    for (int64_t y = 0; y < oh; ++y) {
      for (int64_t xo = 0; xo < ow; ++xo) {
        const float g = go[y * ow + xo] * inv;
        for (int64_t ky = 0; ky < kernel_; ++ky) {
          const int64_t iy = y * stride_ - padding_ + ky;
          if (iy < 0 || iy >= h) continue;
          for (int64_t kx = 0; kx < kernel_; ++kx) {
            const int64_t ix = xo * stride_ - padding_ + kx;
            if (ix >= 0 && ix < w) gi[iy * w + ix] += g;
          }
        }
      }
    }
  }
  return grad_in;
}

Tensor GlobalAvgPool::forward(const Tensor& x, bool train) {
  FCA_CHECK(x.ndim() == 4);
  const int64_t b = x.dim(0), c = x.dim(1), hw = x.dim(2) * x.dim(3);
  if (train) cached_in_shape_ = x.shape();
  Tensor out = Tensor::uninit({b, c});
  const float inv = 1.0f / static_cast<float>(hw);
  for (int64_t i = 0; i < b * c; ++i) {
    const float* xi = x.data() + i * hw;
    double s = 0.0;
    for (int64_t p = 0; p < hw; ++p) s += xi[p];
    out[i] = static_cast<float>(s) * inv;
  }
  return out;
}

Tensor GlobalAvgPool::backward(const Tensor& grad_out) {
  FCA_CHECK_MSG(!cached_in_shape_.empty(),
                "GlobalAvgPool::backward without a training forward");
  const int64_t b = cached_in_shape_[0], c = cached_in_shape_[1],
                hw = cached_in_shape_[2] * cached_in_shape_[3];
  FCA_CHECK_MSG(grad_out.shape() == (Shape{b, c}),
                "GlobalAvgPool::backward expects grad_out "
                    << shape_to_string({b, c}) << ", got "
                    << shape_to_string(grad_out.shape()));
  Tensor grad_in = Tensor::uninit(cached_in_shape_);
  const float inv = 1.0f / static_cast<float>(hw);
  for (int64_t i = 0; i < grad_out.numel(); ++i) {
    const float g = grad_out[i] * inv;
    float* gi = grad_in.data() + i * hw;
    for (int64_t p = 0; p < hw; ++p) gi[p] = g;
  }
  return grad_in;
}

Tensor Flatten::forward(const Tensor& x, bool train) {
  FCA_CHECK(x.ndim() >= 2);
  if (train) cached_in_shape_ = x.shape();
  return x.reshape({x.dim(0), -1});
}

Tensor Flatten::backward(const Tensor& grad_out) {
  FCA_CHECK_MSG(!cached_in_shape_.empty(),
                "Flatten::backward without a training forward");
  return grad_out.reshape(cached_in_shape_);
}

}  // namespace fca::nn
