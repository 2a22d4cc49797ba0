#include "nn/conv.hpp"

#include <algorithm>
#include <cstring>
#include <vector>

#include "nn/init.hpp"
#include "nn/phase_planes.hpp"
#include "obs/trace.hpp"
#include "tensor/gemm.hpp"
#include "tensor/workspace.hpp"
#include "utils/error.hpp"
#include "utils/threadpool.hpp"

namespace fca::nn {
namespace {

/// One group's input planes, zero-bordered and split into stride phases
/// (nn/phase_planes.hpp), and the GEMM operands read from them (DESIGN.md
/// §9). Every (image, group) a lane processes shares the same geometry, so
/// one lowering and its scratch — all from the lane's Workspace frame —
/// serve the whole lane.
///
/// Row r = (c, ky, kx) of the GEMM's B operand is the window of n wide
/// output positions of its phase plane, read in place through a row
/// pointer: no lowered matrix is built. The gap columns after each output
/// row are computed and dropped on write-out; in backward grad_out carries
/// zeros there, so they add nothing to any gradient sum. A 1x1 kernel has
/// no gap columns and its rows are its phase planes (its input planes, at
/// stride 1 without padding).
class GroupLowering {
 public:
  /// `direct`: the depthwise kernels read the planes themselves, so there is
  /// no dgrad GEMM output.
  GroupLowering(const ConvGeom& g, int64_t ocg, Workspace::Frame& frame,
                bool backward, bool direct)
      : g_(g),
        ocg_(ocg),
        pp_(g.height, g.width, g.kernel_h, g.stride_h, g.pad_h),
        ld_(pp_.wq != pp_.ow ? (pp_.n + 7) / 8 * 8 : pp_.n),
        windows_(static_cast<size_t>(g.col_rows())),
        rows_(frame.alloc_rows(g.col_rows())) {
    int64_t r = 0;
    for (int64_t c = 0; c < g.channels; ++c) {
      for (int64_t ky = 0; ky < g.kernel_h; ++ky) {
        for (int64_t kx = 0; kx < g.kernel_w; ++kx) {
          windows_[r++] = pp_.window(c, ky, kx);
        }
      }
    }
    const bool gaps = pp_.wq != pp_.ow;
    const int64_t phases = g.channels * pp_.channel_size();
    if (pp_.s > 1 || pp_.p > 0) {
      // planes() writes interiors only, so the borders stay zero.
      phases_ = frame.alloc(phases);
      std::fill_n(phases_, phases, 0.0f);
    }
    if (!backward) {
      if (gaps) out_wide_ = frame.alloc(ocg * pp_.n);
      return;
    }
    if (!direct) {
      dcol_ = frame.alloc(g.col_rows() * ld_);
      go_rows_ = frame.alloc_rows(ocg);
    }
    if (gaps) {
      // widen() writes the live columns only, so the gaps stay zero.
      go_wide_ = frame.alloc(ocg * ld_);
      std::fill_n(go_wide_, ocg * ld_, 0.0f);
    }
    if (phases_ != nullptr) grad_phases_ = frame.alloc(phases);
  }

  /// Wide output positions: the width of every window.
  int64_t n() const { return pp_.n; }
  /// Row stride of the backward wide buffers and the width the dgrad GEMM
  /// computes: n rounded up to a multiple of 8 when rows carry gaps, so the
  /// row update runs whole vectors (the extra columns are zero in and
  /// dropped out).
  int64_t ld() const { return ld_; }
  /// Width of a phase plane: the row stride of every window.
  int64_t wq() const { return pp_.wq; }

  /// Offset of row r = (c, ky, kx)'s window in the phase planes.
  int64_t window(int64_t r) const { return windows_[static_cast<size_t>(r)]; }

  /// One group's phase planes, built from its CHW input planes `im`.
  const float* planes(const float* im) {
    if (phases_ == nullptr) return im;
    pp_.gather(im, g_.channels, phases_);
    return phases_;
  }

  /// The [col_rows] row pointers of one group's B operand: each row's window
  /// in the phase planes built from `im`.
  const float* const* rows(const float* im) {
    const float* ph = planes(im);
    for (size_t r = 0; r < windows_.size(); ++r) rows_[r] = ph + windows_[r];
    return rows_;
  }

  /// Copies the live columns of one group's B operand, built from `im`, to
  /// `dst`: row r's oh*ow output positions at dst + r*ld, without the gap
  /// columns. Plain element loops: a memcpy per 2- or 4-float output row
  /// made the 2x2 and 4x4 layers 5-20% slower.
  void gather_live(const float* im, float* dst, int64_t ld) {
    const float* ph = planes(im);
    for (size_t r = 0; r < windows_.size(); ++r) {
      const float* src = ph + windows_[r];
      float* d = dst + static_cast<int64_t>(r) * ld;
      for (int64_t y = 0; y < pp_.oh; ++y) {
        for (int64_t x = 0; x < pp_.ow; ++x) {
          d[y * pp_.ow + x] = src[y * pp_.wq + x];
        }
      }
    }
  }

  /// Where the forward pass writes its [ocg, n] result for the output planes
  /// `out`.
  float* gemm_out(float* out) { return out_wide_ != nullptr ? out_wide_ : out; }

  /// Moves a gemm_out() result into `out`, dropping the gap columns.
  void crop_out(float* out) const {
    if (out_wide_ == nullptr) return;
    for (int64_t o = 0; o < ocg_; ++o) {
      for (int64_t y = 0; y < pp_.oh; ++y) {
        std::memcpy(out + (o * pp_.oh + y) * pp_.ow,
                    out_wide_ + o * pp_.n + y * pp_.wq,
                    static_cast<size_t>(pp_.ow) * sizeof(float));
      }
    }
  }

  /// One group's grad_out planes as the [ocg, ld] wide rows that line up
  /// with the windows' columns.
  const float* widen(const float* go) {
    if (go_wide_ == nullptr) return go;
    for (int64_t o = 0; o < ocg_; ++o) {
      for (int64_t y = 0; y < pp_.oh; ++y) {
        std::memcpy(go_wide_ + o * ld_ + y * pp_.wq,
                    go + (o * pp_.oh + y) * pp_.ow,
                    static_cast<size_t>(pp_.ow) * sizeof(float));
      }
    }
    return go_wide_;
  }

  /// The rows of a widen() result, the dgrad GEMM's B operand.
  const float* const* wide_rows(const float* go) {
    for (int64_t o = 0; o < ocg_; ++o) go_rows_[o] = go + o * ld_;
    return go_rows_;
  }

  /// [col_rows, ld] buffer for the dgrad GEMM.
  float* dcol() { return dcol_; }

  /// Zeroed accumulator planes, laid out like planes(), for one group's
  /// zero-initialized input gradient `grad_in`: the gradient planes
  /// themselves when there is one unpadded phase.
  float* grad_planes(float* grad_in) {
    if (grad_phases_ == nullptr) return grad_in;
    std::fill_n(grad_phases_, g_.channels * pp_.channel_size(), 0.0f);
    return grad_phases_;
  }

  /// Moves grad_planes()' interiors into `grad_in`: the adjoint of planes().
  /// Input elements no phase reads (stride > kernel) keep their zero.
  void unphase(float* grad_in) const {
    if (grad_phases_ == nullptr) return;
    pp_.scatter(grad_phases_, g_.channels, grad_in);
  }

  /// Accumulates dcol() into one group's zero-initialized input-gradient
  /// planes: the adjoint of reading the windows. Each image element
  /// receives its taps in ascending (c, ky, kx) order, the order col2im
  /// uses.
  void fold(float* grad_in) {
    float* acc = grad_planes(grad_in);
    for (int64_t r = 0; r < g_.col_rows(); ++r) {
      float* dst = acc + window(r);
      const float* src = dcol_ + r * ld_;
#pragma omp simd
      for (int64_t j = 0; j < pp_.n; ++j) dst[j] += src[j];
    }
    unphase(grad_in);
  }

 private:
  const ConvGeom g_;
  const int64_t ocg_;
  const PhasePlanes pp_;
  const int64_t ld_;
  std::vector<int64_t> windows_;      // window offset of each B row
  const float** rows_;                // B row pointers, rebuilt per group
  const float** go_rows_ = nullptr;   // wide grad_out row pointers (dgrad)
  float* phases_ = nullptr;           // phase planes, unless the input is them
  float* out_wide_ = nullptr;         // forward output with gap columns
  float* go_wide_ = nullptr;          // grad_out with zeroed gap columns
  float* dcol_ = nullptr;             // dgrad GEMM output
  float* grad_phases_ = nullptr;      // input-gradient phase accumulator
};

// Direct depthwise kernels. Each reproduces, per output element, the
// operation sequence of the GEMM call it replaces (DESIGN.md §9); they are
// cloned like the GEMM micro-kernels so that each ISA clone contracts
// multiply-adds exactly where the clone it replaces does.

/// dgrad: acc_rows[t][j] += round(w[t] * go[j]) for each tap t in ascending
/// order. The GEMM path rounds its rank-1 product into dcol and the fold adds
/// it, so the product must not be contracted into the add.
FCA_MICROKERNEL_CLONES __attribute__((optimize("fp-contract=off")))
void depthwise_dgrad(int64_t n, int64_t taps, const float* w, const float* go,
                     float* const* acc_rows) {
  for (int64_t t = 0; t < taps; ++t) {
    float* dst = acc_rows[t];
    const float wt = w[t];
#pragma omp simd
    for (int64_t j = 0; j < n; ++j) dst[j] += wt * go[j];
  }
}

/// wgrad over taps 3x3 and 4x4: the wgrad GEMM's 16-wide streaming tile,
/// one accumulator per tap over the whole depth in ascending order, then
/// added to the chunk partial dw.
template <int64_t T>
__attribute__((always_inline)) inline void wgrad_one_acc(
    int64_t oh, int64_t ow, int64_t ws, const float* go,
    const float* const* win, float* dw) {
  float acc[T] = {};
  for (int64_t y = 0; y < oh; ++y) {
    const float* g = go + y * ow;
    const int64_t row = y * ws;
    for (int64_t x = 0; x < ow; ++x) {
      const float gv = g[x];
      for (int64_t t = 0; t < T; ++t) acc[t] += gv * win[t][row + x];
    }
  }
  for (int64_t t = 0; t < T; ++t) dw[t] += acc[t];
}

/// wgrad over 2x2 taps: the wgrad GEMM's paired-depth 8-wide tile. Terms at
/// even and odd depth index d = y*ds + x go to separate accumulators, which
/// are summed; an odd depth's last term is added after that, and the result
/// goes into the chunk partial dw.
template <int64_t T>
__attribute__((always_inline)) inline void wgrad_pair_acc(
    int64_t oh, int64_t ow, int64_t ws, int64_t ds, const float* go,
    const float* const* win, float* dw) {
  float even[T] = {}, odd[T] = {};
  const int64_t depth = (oh - 1) * ds + ow;
  const int64_t tail = depth % 2 == 1 ? depth - 1 : -1;
  for (int64_t y = 0; y < oh; ++y) {
    for (int64_t x = 0; x < ow; ++x) {
      const int64_t d = y * ds + x;
      if (d == tail) continue;
      float* acc = d % 2 == 0 ? even : odd;
      const float gv = go[y * ow + x];
      for (int64_t t = 0; t < T; ++t) acc[t] += gv * win[t][y * ws + x];
    }
  }
  float out[T];
  for (int64_t t = 0; t < T; ++t) out[t] = even[t] + odd[t];
  if (tail >= 0) {
    const float gv = go[oh * ow - 1];
    const int64_t at = (oh - 1) * ws + ow - 1;
    for (int64_t t = 0; t < T; ++t) out[t] += gv * win[t][at];
  }
  for (int64_t t = 0; t < T; ++t) dw[t] += out[t];
}

/// wgrad of one channel: dw[t] += sum over live output positions (y, x) of
/// go[y*ow + x] * win[t][y*ws + x]. `ds` is the depth stride the GEMM path
/// summed over (the wide row at stride 1, ow otherwise); it fixes the
/// paired-depth parity. The gap terms that path added are zero and are
/// skipped. Each tap's sum is a serial chain (the taps run side by side), so
/// vectorization is off: the vectorizer would turn each chain into an
/// in-order reduction of rounded products, dropping the contraction the
/// GEMM tile applies.
FCA_MICROKERNEL_CLONES __attribute__((optimize("no-tree-vectorize")))
void depthwise_wgrad(int64_t taps, int64_t oh, int64_t ow, int64_t ws,
                     int64_t ds, const float* go, const float* const* win,
                     float* dw) {
  switch (taps) {  // 2x2, 3x3 or 4x4
    case 4: wgrad_pair_acc<4>(oh, ow, ws, ds, go, win, dw); break;
    case 9: wgrad_one_acc<9>(oh, ow, ws, go, win, dw); break;
    default: wgrad_one_acc<16>(oh, ow, ws, go, win, dw); break;
  }
}

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

bool Conv2d::direct_depthwise() const {
  // A 1x1 depthwise conv is a per-channel scale; its GEMM calls take the
  // dot-product path, so it stays on them.
  return groups_ == in_c_ && in_c_ == out_c_ && kernel_ > 1 &&
         kernel_ * kernel_ <= kGemmRowUpdateMaxK;
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
  MacCounter::add(b * out_c_ * oh * ow * col_rows);
  const int64_t in_img = in_c_ * g.height * g.width;
  const int64_t grp_in = icg * g.height * g.width;
  const int64_t plane = oh * ow;
  const int64_t out_img = out_c_ * plane;
  const bool direct = direct_depthwise();
  // Images whose live output columns share one GEMM: taken when at least
  // two planes fit one streamed register strip (DESIGN.md §9).
  const int64_t per_gemm = direct ? 1 : gemm_stream_width() / plane;
  // The per-channel bias is fused into the write-back.
  auto epilogue = [&](int64_t grp) {
    GemmEpilogue epi;
    if (has_bias_) {
      epi.bias = bias_.value.data() + grp * ocg;
      epi.bias_kind = GemmEpilogue::Bias::kPerRow;
    }
    return epi;
  };

  Tensor out = Tensor::uninit({b, out_c_, oh, ow});
  parallel_for_range(
      0, b,
      [&](int64_t lo, int64_t hi) {
        // Lowering scratch comes from the lane's workspace arena: pool
        // workers are long-lived, so after warm-up this allocates nothing.
        Workspace::Frame frame(Workspace::tls());
        GroupLowering low(g, ocg, frame, /*backward=*/false, direct);
        if (per_gemm >= 2) {
          // One image's GEMM would fill a few columns of a zero-padded
          // strip. Instead the live columns of up to per_gemm images go
          // into one [col_rows, imgs*plane] panel and one GEMM. Every
          // output element runs the same sequence at any column, so the
          // bytes match the per-image calls.
          const int64_t ld = per_gemm * plane;
          float* panel = frame.alloc(col_rows * ld);
          const float** panel_rows = frame.alloc_rows(col_rows);
          for (int64_t r = 0; r < col_rows; ++r) panel_rows[r] = panel + r * ld;
          float* block = frame.alloc(ocg * ld);
          for (int64_t i0 = lo; i0 < hi; i0 += per_gemm) {
            const int64_t imgs = std::min(per_gemm, hi - i0);
            const int64_t cols = imgs * plane;
            for (int64_t grp = 0; grp < groups_; ++grp) {
              for (int64_t j = 0; j < imgs; ++j) {
                low.gather_live(x.data() + (i0 + j) * in_img + grp * grp_in,
                                panel + j * plane, ld);
              }
              sgemm_rows(false, false, ocg, cols, col_rows, 1.0f,
                         weight_.value.data() + grp * ocg * col_rows,
                         col_rows, panel_rows, 0.0f, block, cols,
                         epilogue(grp));
              for (int64_t j = 0; j < imgs; ++j) {
                float* o = out.data() + (i0 + j) * out_img + grp * ocg * plane;
                for (int64_t oc = 0; oc < ocg; ++oc) {
                  const float* src = block + oc * cols + j * plane;
                  float* dst = o + oc * plane;
                  for (int64_t q = 0; q < plane; ++q) dst[q] = src[q];
                }
              }
            }
          }
          return;
        }
        const int64_t n = low.n();
        for (int64_t i = lo; i < hi; ++i) {
          for (int64_t grp = 0; grp < groups_; ++grp) {
            const float* im = x.data() + i * in_img + grp * grp_in;
            float* o = out.data() + i * out_img + grp * ocg * plane;
            const float* w = weight_.value.data() + grp * ocg * col_rows;
            const GemmEpilogue epi = epilogue(grp);
            if (direct) {
              // The depthwise GEMM is an m = 1 call with k = taps, which the
              // packed kernel serves with this row update and epilogue.
              float* dst = low.gemm_out(o);
              sgemm_row_update(n, col_rows, w, low.rows(im), 0.0f, dst);
              apply_gemm_epilogue(1, n, dst, n, epi);
            } else {
              // out_group = W_group [ocg, icg*k*k] * B [icg*k*k, n], B's
              // rows read in place from the phase planes.
              sgemm_rows(false, false, ocg, n, col_rows, 1.0f, w, col_rows,
                         low.rows(im), 0.0f, low.gemm_out(o), n, epi);
            }
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
  const bool direct = direct_depthwise();

  Tensor grad_in(x.shape());
  // Backward mirrors forward's batch parallelism, but dW/db are shared
  // accumulators, so the batch is split into fixed-size chunks (a function
  // of the batch only, never of the thread count): each chunk writes its
  // disjoint grad_in slice directly and accumulates weight/bias partials
  // into its own arena slot; the partials are then reduced in ascending
  // chunk order on the calling thread. Any pool size — including serial —
  // produces bit-identical gradients. The phase planes are rebuilt per
  // sample instead of being cached across the whole batch, which keeps peak
  // memory O(chunks * weights + one image's planes) rather than O(batch).
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
        GroupLowering low(g, ocg, lane_frame, /*backward=*/true, direct);
        const int64_t n = low.n();
        for (int64_t ci = chunk_lo; ci < chunk_hi; ++ci) {
          float* dw = dw_parts + ci * w_numel;
          const int64_t i_end = std::min(b, (ci + 1) * kChunk);
          for (int64_t i = ci * kChunk; i < i_end; ++i) {
            for (int64_t grp = 0; grp < groups_; ++grp) {
              const int64_t in_off =
                  i * in_img + grp * icg * g.height * g.width;
              const float* go_planes =
                  grad_out.data() + i * out_img + grp * ocg * oh * ow;
              const float* w = weight_.value.data() + grp * ocg * col_rows;
              float* dw_grp = dw + grp * ocg * col_rows;
              if (direct) {
                // wgrad is the GEMM's dot product of grad_out with each
                // tap's window; dgrad adds each tap's rank-1 product into
                // the gradient planes, as the dgrad GEMM and fold did.
                const float* const* win = low.rows(x.data() + in_off);
                float* acc = low.grad_planes(grad_in.data() + in_off);
                float* acc_rows[kGemmRowUpdateMaxK];
                for (int64_t t = 0; t < col_rows; ++t) {
                  acc_rows[t] = acc + low.window(t);
                }
                depthwise_wgrad(col_rows, oh, ow, low.wq(),
                                stride_ == 1 ? low.wq() : ow, go_planes, win,
                                dw_grp);
                depthwise_dgrad(n, col_rows, w, low.widen(go_planes),
                                acc_rows);
                low.unphase(grad_in.data() + in_off);
                continue;
              }
              const float* go = low.widen(go_planes);
              const int64_t ld = low.ld();
              // dW_group += g_out [ocg, n] * B^T [n, icg*k*k]: B's rows are
              // the windows, each n floats long.
              sgemm_rows(false, true, ocg, col_rows, n, 1.0f, go, ld,
                         low.rows(x.data() + in_off), 1.0f, dw_grp, col_rows);
              // dcol = W_group^T [icg*k*k, ocg] * g_out [ocg, ld]
              sgemm_rows(true, false, col_rows, ld, ocg, 1.0f, w, col_rows,
                         low.wide_rows(go), 0.0f, low.dcol(), ld);
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
  cached_input_ = Tensor();
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
