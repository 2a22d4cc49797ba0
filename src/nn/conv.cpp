#include "nn/conv.hpp"

#include <algorithm>
#include <cstring>

#include "nn/init.hpp"
#include "obs/trace.hpp"
#include "tensor/gemm.hpp"
#include "tensor/ops.hpp"
#include "tensor/workspace.hpp"
#include "utils/error.hpp"
#include "utils/threadpool.hpp"

namespace fca::nn {
namespace {

/// Lowers one group's convolution to GEMM operands and folds the input
/// gradient back (DESIGN.md §9). Every (image, group) a lane processes
/// shares the same geometry, so one lowering and its scratch — all from the
/// lane's Workspace frame — serve the whole lane.
///
/// Strided convs unfold through im2col/col2im: the lowered matrix is
/// [col_rows, oh*ow] and the forward GEMM writes the output planes directly.
///
/// Stride-1 convs lower through zero-bordered planes instead. In a padded
/// plane of width wp = w + 2p, tap (ky, kx) of output (y, x) is element
/// (y + ky)*wp + x + kx, so once every output row is widened to wp columns,
/// lowered row (c, ky, kx) is the one contiguous window of
/// n = (oh-1)*wp + ow floats at c*hp*wp + ky*wp + kx: a single memcpy per
/// row. The k-1 gap columns after each output row are computed and dropped
/// on write-out; in backward grad_out carries zeros there, so they add
/// nothing to any gradient sum. A 1x1 kernel has no gap columns (wp == ow)
/// and its planes are already the lowered matrix.
class GroupLowering {
 public:
  GroupLowering(const ConvGeom& g, int64_t ocg, Workspace::Frame& frame,
                bool backward)
      : g_(g),
        ocg_(ocg),
        wide_(g.stride_h == 1),
        gaps_(wide_ && g.kernel_h > 1),
        hp_(g.height + 2 * g.pad_h),
        wp_(g.width + 2 * g.pad_w),
        oh_(g.out_h()),
        ow_(g.out_w()),
        n_(wide_ ? (oh_ - 1) * wp_ + ow_ : oh_ * ow_),
        ld_(gaps_ ? (n_ + 7) / 8 * 8 : n_) {
    const int64_t planes = g.channels * hp_ * wp_;
    const bool padded = wide_ && g.pad_h > 0;
    if (!wide_ || gaps_) col_ = frame.alloc(g.col_rows() * ld_);
    if (gaps_) {
      // lower() writes n columns per row, so the row tails stay zero.
      for (int64_t r = 0; r < g.col_rows(); ++r) {
        std::fill(col_ + r * ld_ + n_, col_ + (r + 1) * ld_, 0.0f);
      }
    }
    if (padded) {
      // lower() writes interiors only, so the borders stay zero.
      padded_ = frame.alloc(planes);
      std::fill_n(padded_, planes, 0.0f);
    }
    if (!backward) {
      if (gaps_) out_wide_ = frame.alloc(ocg * ld_);
      return;
    }
    dcol_ = frame.alloc(g.col_rows() * ld_);
    if (gaps_) {
      // widen() writes the live columns only, so the gaps and row tails stay
      // zero.
      go_wide_ = frame.alloc(ocg * ld_);
      std::fill_n(go_wide_, ocg * ld_, 0.0f);
    }
    if (padded) grad_padded_ = frame.alloc(planes);
  }

  /// Live columns of the lowered matrix: wgrad's depth.
  int64_t n() const { return n_; }
  /// Row stride of the lowered matrix and the wide buffers, and the width
  /// the forward and dgrad GEMMs compute: n rounded up to a multiple of 8
  /// when rows are widened, so those GEMMs run whole vectors (the extra
  /// columns are zero in and dropped out).
  int64_t ld() const { return ld_; }

  /// The [col_rows, ld] lowered matrix of one group's planes.
  const float* lower(const float* im) {
    if (!wide_) {
      im2col(im, g_, col_);
      return col_;
    }
    const float* planes = im;
    if (padded_ != nullptr) {
      for (int64_t c = 0; c < g_.channels; ++c) {
        for (int64_t y = 0; y < g_.height; ++y) {
          std::memcpy(padded_ + (c * hp_ + y + g_.pad_h) * wp_ + g_.pad_w,
                      im + (c * g_.height + y) * g_.width,
                      static_cast<size_t>(g_.width) * sizeof(float));
        }
      }
      planes = padded_;
    }
    if (!gaps_) return planes;
    float* row = col_;
    for (int64_t c = 0; c < g_.channels; ++c) {
      for (int64_t ky = 0; ky < g_.kernel_h; ++ky) {
        for (int64_t kx = 0; kx < g_.kernel_w; ++kx, row += ld_) {
          std::memcpy(row, planes + (c * hp_ + ky) * wp_ + kx,
                      static_cast<size_t>(n_) * sizeof(float));
        }
      }
    }
    return col_;
  }

  /// Where the forward GEMM writes its [ocg, ld] result for
  /// the output planes `out`.
  float* gemm_out(float* out) { return out_wide_ != nullptr ? out_wide_ : out; }

  /// Moves a gemm_out() result into `out`, dropping the gap columns.
  void crop_out(float* out) const {
    if (out_wide_ == nullptr) return;
    for (int64_t o = 0; o < ocg_; ++o) {
      for (int64_t y = 0; y < oh_; ++y) {
        std::memcpy(out + (o * oh_ + y) * ow_, out_wide_ + o * ld_ + y * wp_,
                    static_cast<size_t>(ow_) * sizeof(float));
      }
    }
  }

  /// One group's grad_out planes as the [ocg, ld] operand
  /// that lines up with lower()'s columns.
  const float* widen(const float* go) {
    if (go_wide_ == nullptr) return go;
    for (int64_t o = 0; o < ocg_; ++o) {
      for (int64_t y = 0; y < oh_; ++y) {
        std::memcpy(go_wide_ + o * ld_ + y * wp_, go + (o * oh_ + y) * ow_,
                    static_cast<size_t>(ow_) * sizeof(float));
      }
    }
    return go_wide_;
  }

  /// [col_rows, ld] buffer for the dgrad GEMM.
  float* dcol() { return dcol_; }

  /// Accumulates dcol() into one group's zero-initialized input-gradient
  /// planes: the adjoint of lower(). Each image element receives its taps
  /// in the same ascending (c, ky, kx) order col2im uses.
  void fold(float* grad_in) {
    if (!wide_) {
      col2im(dcol_, g_, grad_in);
      return;
    }
    float* acc = grad_padded_ != nullptr ? grad_padded_ : grad_in;
    if (grad_padded_ != nullptr) {
      std::fill_n(grad_padded_, g_.channels * hp_ * wp_, 0.0f);
    }
    const float* src = dcol_;
    for (int64_t c = 0; c < g_.channels; ++c) {
      for (int64_t ky = 0; ky < g_.kernel_h; ++ky) {
        for (int64_t kx = 0; kx < g_.kernel_w; ++kx, src += ld_) {
          float* dst = acc + (c * hp_ + ky) * wp_ + kx;
#pragma omp simd
          for (int64_t j = 0; j < n_; ++j) dst[j] += src[j];
        }
      }
    }
    if (grad_padded_ == nullptr) return;
    for (int64_t c = 0; c < g_.channels; ++c) {
      for (int64_t y = 0; y < g_.height; ++y) {
        std::memcpy(grad_in + (c * g_.height + y) * g_.width,
                    grad_padded_ + (c * hp_ + y + g_.pad_h) * wp_ + g_.pad_w,
                    static_cast<size_t>(g_.width) * sizeof(float));
      }
    }
  }

 private:
  const ConvGeom g_;
  const int64_t ocg_;
  const bool wide_;  // stride 1: lowered through padded planes
  const bool gaps_;  // wide rows carry k-1 gap columns (k > 1)
  const int64_t hp_, wp_, oh_, ow_, n_, ld_;
  float* col_ = nullptr;          // lowered matrix, unless the planes are it
  float* padded_ = nullptr;       // zero-bordered input planes (pad > 0)
  float* out_wide_ = nullptr;     // forward GEMM output with gap columns
  float* go_wide_ = nullptr;      // grad_out with zeroed gap columns
  float* dcol_ = nullptr;         // dgrad GEMM output
  float* grad_padded_ = nullptr;  // input-gradient accumulator (pad > 0)
};

}  // namespace

Conv2d::Conv2d(int64_t in_channels, int64_t out_channels, int64_t kernel,
               int64_t stride, int64_t padding, Rng& rng, bool bias,
               int64_t groups)
    : in_c_(in_channels),
      out_c_(out_channels),
      kernel_(kernel),
      stride_(stride),
      padding_(padding),
      groups_(groups),
      has_bias_(bias) {
  FCA_CHECK(in_channels > 0 && out_channels > 0 && kernel > 0 && stride > 0 &&
            padding >= 0 && groups > 0);
  FCA_CHECK_MSG(in_channels % groups == 0 && out_channels % groups == 0,
                "channels (" << in_channels << ", " << out_channels
                             << ") not divisible by groups " << groups);
  const int64_t fan_in = (in_c_ / groups_) * kernel_ * kernel_;
  weight_ = Param("weight", kaiming_uniform({out_c_, fan_in}, fan_in, rng));
  if (has_bias_) bias_ = Param("bias", Tensor({out_c_}));
}

ConvGeom Conv2d::group_geom(int64_t h, int64_t w) const {
  return ConvGeom{in_c_ / groups_, h,       w,        kernel_, kernel_,
                  stride_,         stride_, padding_, padding_};
}

Tensor Conv2d::forward(const Tensor& x, bool train) {
  FCA_CHECK_MSG(x.ndim() == 4 && x.dim(1) == in_c_,
                "Conv2d expects [B, " << in_c_ << ", H, W], got "
                                      << shape_to_string(x.shape()));
  const int64_t b = x.dim(0);
  const ConvGeom g = group_geom(x.dim(2), x.dim(3));
  const int64_t oh = g.out_h(), ow = g.out_w();
  FCA_CHECK_MSG(oh > 0 && ow > 0, "Conv2d output would be empty for input "
                                      << shape_to_string(x.shape()));
  obs::ProfileSpan span("kernel", "conv2d.fwd", b * out_c_ * oh * ow);
  if (train) cached_input_ = x;

  const int64_t icg = in_c_ / groups_;   // in channels per group
  const int64_t ocg = out_c_ / groups_;  // out channels per group
  const int64_t col_rows = g.col_rows();
  const int64_t in_img = in_c_ * g.height * g.width;
  const int64_t out_img = out_c_ * oh * ow;

  Tensor out = Tensor::uninit({b, out_c_, oh, ow});
  parallel_for_range(
      0, b,
      [&](int64_t lo, int64_t hi) {
        // Lowering scratch comes from the lane's workspace arena: pool
        // workers are long-lived, so after warm-up this allocates nothing.
        Workspace::Frame frame(Workspace::tls());
        GroupLowering low(g, ocg, frame, /*backward=*/false);
        const int64_t ld = low.ld();
        for (int64_t i = lo; i < hi; ++i) {
          for (int64_t grp = 0; grp < groups_; ++grp) {
            const float* cols = low.lower(x.data() + i * in_img +
                                          grp * icg * g.height * g.width);
            float* o = out.data() + i * out_img + grp * ocg * oh * ow;
            // out_group = W_group [ocg, icg*k*k] * cols [icg*k*k, ld], with
            // the per-channel bias fused into the GEMM write-back.
            GemmEpilogue epi;
            if (has_bias_) {
              epi.bias = bias_.value.data() + grp * ocg;
              epi.bias_kind = GemmEpilogue::Bias::kPerRow;
            }
            sgemm_ex(false, false, ocg, ld, col_rows, 1.0f,
                     weight_.value.data() + grp * ocg * col_rows, col_rows,
                     cols, ld, 0.0f, low.gemm_out(o), ld, epi);
            low.crop_out(o);
          }
        }
      },
      /*grain=*/1);
  return out;
}

Tensor Conv2d::backward(const Tensor& grad_out) {
  FCA_CHECK_MSG(!cached_input_.empty(),
                "Conv2d::backward without a training forward");
  obs::ProfileSpan span("kernel", "conv2d.bwd", grad_out.numel());
  const Tensor& x = cached_input_;
  const int64_t b = x.dim(0);
  const ConvGeom g = group_geom(x.dim(2), x.dim(3));
  const int64_t oh = g.out_h(), ow = g.out_w();
  FCA_CHECK(grad_out.ndim() == 4 && grad_out.dim(0) == b &&
            grad_out.dim(1) == out_c_ && grad_out.dim(2) == oh &&
            grad_out.dim(3) == ow);

  const int64_t icg = in_c_ / groups_;
  const int64_t ocg = out_c_ / groups_;
  const int64_t col_rows = g.col_rows();
  const int64_t in_img = in_c_ * g.height * g.width;
  const int64_t out_img = out_c_ * oh * ow;

  Tensor grad_in(x.shape());
  // Backward mirrors forward's batch parallelism, but dW/db are shared
  // accumulators, so the batch is split into fixed-size chunks (a function
  // of the batch only, never of the thread count): each chunk writes its
  // disjoint grad_in slice directly and accumulates weight/bias partials
  // into its own arena slot; the partials are then reduced in ascending
  // chunk order on the calling thread. Any pool size — including serial —
  // produces bit-identical gradients. The lowered matrix is recomputed per
  // sample instead of being cached across the whole batch, which keeps peak
  // memory O(chunks * weights + one image's columns) rather than O(batch).
  constexpr int64_t kChunk = 8;
  const int64_t chunks = (b + kChunk - 1) / kChunk;
  const int64_t w_numel = weight_.grad.numel();
  Workspace::Frame frame(Workspace::tls());
  float* dw_parts = frame.alloc(chunks * w_numel);
  float* db_parts = has_bias_ ? frame.alloc(chunks * out_c_) : nullptr;
  std::fill_n(dw_parts, chunks * w_numel, 0.0f);
  if (has_bias_) std::fill_n(db_parts, chunks * out_c_, 0.0f);
  parallel_for_range(
      0, chunks,
      [&](int64_t chunk_lo, int64_t chunk_hi) {
        Workspace::Frame lane_frame(Workspace::tls());
        GroupLowering low(g, ocg, lane_frame, /*backward=*/true);
        const int64_t n = low.n(), ld = low.ld();
        for (int64_t ci = chunk_lo; ci < chunk_hi; ++ci) {
          float* dw = dw_parts + ci * w_numel;
          const int64_t i_end = std::min(b, (ci + 1) * kChunk);
          for (int64_t i = ci * kChunk; i < i_end; ++i) {
            for (int64_t grp = 0; grp < groups_; ++grp) {
              const int64_t in_off =
                  i * in_img + grp * icg * g.height * g.width;
              const float* cols = low.lower(x.data() + in_off);
              const float* go = low.widen(grad_out.data() + i * out_img +
                                          grp * ocg * oh * ow);
              // dW_group += g_out [ocg, n] * cols^T [n, icg*k*k]
              sgemm(false, true, ocg, col_rows, n, 1.0f, go, ld, cols, ld,
                    1.0f, dw + grp * ocg * col_rows, col_rows);
              // dcol = W_group^T [icg*k*k, ocg] * g_out [ocg, ld]
              sgemm(true, false, col_rows, ld, ocg, 1.0f,
                    weight_.value.data() + grp * ocg * col_rows, col_rows, go,
                    ld, 0.0f, low.dcol(), ld);
              low.fold(grad_in.data() + in_off);
            }
            if (has_bias_) {
              float* db = db_parts + ci * out_c_;
              const float* go = grad_out.data() + i * out_img;
              for (int64_t oc = 0; oc < out_c_; ++oc) {
                double s = 0.0;
                for (int64_t p = 0; p < oh * ow; ++p) s += go[oc * oh * ow + p];
                db[oc] += static_cast<float>(s);
              }
            }
          }
        }
      },
      /*grain=*/1);
  float* wg = weight_.grad.data();
  for (int64_t ci = 0; ci < chunks; ++ci) {
    const float* dw = dw_parts + ci * w_numel;
#pragma omp simd
    for (int64_t j = 0; j < w_numel; ++j) wg[j] += dw[j];
  }
  if (has_bias_) {
    float* bg = bias_.grad.data();
    for (int64_t ci = 0; ci < chunks; ++ci) {
      const float* db = db_parts + ci * out_c_;
      for (int64_t j = 0; j < out_c_; ++j) bg[j] += db[j];
    }
  }
  return grad_in;
}

void Conv2d::collect_params(std::vector<Param*>& out) {
  out.push_back(&weight_);
  if (has_bias_) out.push_back(&bias_);
}

}  // namespace fca::nn
