#include "nn/pool.hpp"

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <limits>

#include "nn/phase_planes.hpp"
#include "tensor/kernel.hpp"
#include "tensor/workspace.hpp"
#include "utils/error.hpp"

namespace fca::nn {
namespace {

int64_t pooled_extent(int64_t in, int64_t kernel, int64_t stride,
                      int64_t padding) {
  return (in + 2 * padding - kernel) / stride + 1;
}

// MaxPool2d's block scan runs on GCC vector types: each block holds two
// 16-lane vectors in flight, one zmm each in the AVX-512 clone, two ymm in
// the AVX2 clone and four xmm in the baseline. The array-and-pragma form of
// the same loop does not reliably if-convert its two selects.
typedef float PoolVec __attribute__((vector_size(64)));
typedef int32_t PoolIdx __attribute__((vector_size(64)));
constexpr int64_t kVecLanes = 16;
constexpr int64_t kPoolLanes = 2 * kVecLanes;  // outputs per block

// Unaligned loads. By reference: returning a 64-byte vector by value from
// a function built for the baseline target changes its ABI.
template <class V, class T>
inline void load(V& v, const T* p) {
  std::memcpy(&v, p, sizeof(v));
}

/// Running maximum of kPoolLanes wide outputs. Lane l is seeded with
/// ph[seed[l]], its first in-bounds tap; tap t then reads win[off[t] + l]
/// and replaces the maximum only when strictly greater.
FCA_MICROKERNEL_CLONES
void max_block(int64_t taps, const int64_t* off, const float* win,
               const float* ph, const int32_t* seed, float* best_out) {
  float first[kPoolLanes];
  for (int64_t l = 0; l < kPoolLanes; ++l) first[l] = ph[seed[l]];
  PoolVec b0, b1, v0, v1;
  load(b0, first);
  load(b1, first + kVecLanes);
  for (int64_t t = 0; t < taps; ++t) {
    load(v0, win + off[t]);
    load(v1, win + off[t] + kVecLanes);
    b0 = v0 > b0 ? v0 : b0;
    b1 = v1 > b1 ? v1 : b1;
  }
  std::memcpy(best_out, &b0, sizeof(b0));
  std::memcpy(best_out + kVecLanes, &b1, sizeof(b1));
}

/// max_block that also records each lane's argmax: seed_arg[l] for the
/// seed, origin[l] + cand[t] for a replacing tap t.
FCA_MICROKERNEL_CLONES
void max_block_arg(int64_t taps, const int64_t* off, const int32_t* cand,
                   const float* win, const float* ph, const int32_t* seed,
                   const int32_t* seed_arg, const int32_t* origin,
                   float* best_out, int32_t* arg_out) {
  float first[kPoolLanes];
  for (int64_t l = 0; l < kPoolLanes; ++l) first[l] = ph[seed[l]];
  PoolVec b0, b1, v0, v1;
  load(b0, first);
  load(b1, first + kVecLanes);
  PoolIdx o0, o1, a0, a1;
  load(o0, origin);
  load(o1, origin + kVecLanes);
  load(a0, seed_arg);
  load(a1, seed_arg + kVecLanes);
  for (int64_t t = 0; t < taps; ++t) {
    load(v0, win + off[t]);
    load(v1, win + off[t] + kVecLanes);
    const PoolIdx m0 = v0 > b0, m1 = v1 > b1;
    b0 = m0 ? v0 : b0;
    b1 = m1 ? v1 : b1;
    a0 = m0 ? o0 + cand[t] : a0;
    a1 = m1 ? o1 + cand[t] : a1;
  }
  std::memcpy(best_out, &b0, sizeof(b0));
  std::memcpy(best_out + kVecLanes, &b1, sizeof(b1));
  std::memcpy(arg_out, &a0, sizeof(a0));
  std::memcpy(arg_out + kVecLanes, &a1, sizeof(a1));
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
  FCA_CHECK_MSG(h * w <= INT32_MAX, "MaxPool2d plane too large for "
                                        << shape_to_string(x.shape()));
  Tensor out = Tensor::uninit({b, c, oh, ow});
  if (train) {
    cached_in_shape_ = x.shape();
    cached_argmax_.resize(static_cast<size_t>(b * c * oh * ow));
  }
  const int64_t k = kernel_, s = stride_, p = padding_;
  // Windows run over phase planes as in Conv2d's lowering
  // (nn/phase_planes.hpp): with output rows widened to wq, tap (ky, kx) of
  // every output is one contiguous window. Padding reads -inf, which never
  // replaces a maximum, and each lane is seeded with its window's first
  // in-bounds tap, so clipped windows need no other care.
  const PhasePlanes pp(h, w, k, s, p);
  const int64_t n = pp.n, wq = pp.wq;
  const int64_t n_lanes = (n + kPoolLanes - 1) / kPoolLanes * kPoolLanes;
  const int64_t taps = k * k;
  std::vector<int64_t> off(static_cast<size_t>(taps));
  std::vector<int32_t> cand(static_cast<size_t>(taps));
  for (int64_t ky = 0; ky < k; ++ky) {
    for (int64_t kx = 0; kx < k; ++kx) {
      off[ky * k + kx] = pp.window(0, ky, kx);
      cand[ky * k + kx] = static_cast<int32_t>(ky * w + kx);
    }
  }
  // Per lane d = y*wq + x: the phase index of its first in-bounds tap, and
  // for training its window origin (y*s - p)*w + x*s - p, that tap's input
  // index and the argmax the scan produces. Lanes past the last output row
  // only pad the last block.
  lane_scratch_.resize(static_cast<size_t>((train ? 4 : 1) * n_lanes));
  int32_t* seed = lane_scratch_.data();
  int32_t* origin = seed + n_lanes;
  int32_t* seed_arg = origin + n_lanes;
  int32_t* arg = seed_arg + n_lanes;
  for (int64_t d = 0, y = 0; d < n_lanes; ++y) {
    const int64_t ky0 = std::max<int64_t>(0, p - y * s);
    for (int64_t xq = 0; xq < wq && d < n_lanes; ++xq, ++d) {
      const int64_t t0 = ky0 * k + std::max<int64_t>(0, p - xq * s);
      seed[d] = static_cast<int32_t>(d + off[t0]);
      if (!train) continue;
      origin[d] = static_cast<int32_t>((y * s - p) * w + xq * s - p);
      seed_arg[d] = origin[d] + cand[t0];
    }
  }
  Workspace::Frame frame(Workspace::tls());
  // The block scan reads up to kPoolLanes floats past the last window.
  const int64_t ph_size = pp.channel_size() + kPoolLanes;
  float* ph = frame.alloc(ph_size);
  std::fill_n(ph, ph_size, -std::numeric_limits<float>::infinity());
  float* best = frame.alloc(n_lanes);
  for (int64_t i = 0; i < b * c; ++i) {
    const float* xi = x.data() + i * h * w;
    // Interiors only: the -inf borders stay from the fill above.
    pp.gather(xi, 1, ph);
    for (int64_t d = 0; d < n; d += kPoolLanes) {
      if (train) {
        max_block_arg(taps, off.data(), cand.data(), ph + d, ph, seed + d,
                      seed_arg + d, origin + d, best + d, arg + d);
      } else {
        max_block(taps, off.data(), ph + d, ph, seed + d, best + d);
      }
    }
    // Drop the gap lanes: wq - ow after each output row.
    float* oi = out.data() + i * oh * ow;
    int32_t* ai = train ? cached_argmax_.data() + i * oh * ow : nullptr;
    const int64_t rows = wq == ow ? 1 : oh, row = wq == ow ? n : ow;
    for (int64_t y = 0; y < rows; ++y) {
      std::memcpy(oi + y * ow, best + y * wq,
                  static_cast<size_t>(row) * sizeof(float));
      if (train) {
        std::memcpy(ai + y * ow, arg + y * wq,
                    static_cast<size_t>(row) * sizeof(int32_t));
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
    const int32_t* ai = cached_argmax_.data() + i * oh * ow;
    for (int64_t p = 0; p < oh * ow; ++p) gi[ai[p]] += go[p];
  }
  // Swapped, not cleared, so the capacity goes too.
  std::vector<int32_t>().swap(cached_argmax_);
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
