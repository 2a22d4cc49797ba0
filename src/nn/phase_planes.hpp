// Stride-phase planes (DESIGN.md §9): the input layout that Conv2d's
// lowering and MaxPool2d's window scan share.
#pragma once

#include <algorithm>
#include <cstdint>
#include <cstring>

namespace fca::nn {

/// Where the taps of a k x k window with stride s and padding p over h x w
/// planes live once the planes are padded and split by stride. Phase (a, b)
/// of a channel holds padded element (u*s + a, v*s + b) at (u, v) of an
/// hq x wq grid (hq = ceil((h + 2p) / s), wq = ceil((w + 2p) / s)), so tap
/// (ky, kx) of output (y, x) is element (y + ky/s, x + kx/s) of phase
/// (ky mod s, kx mod s). With every output row widened to wq columns, one
/// tap of all outputs is one contiguous window of n = (oh-1)*wq + ow
/// elements; the wq - ow gap columns after each output row are computed and
/// dropped. At stride 1 there is one phase, the padded plane itself. Only
/// phases a, b < min(s, k) are ever read, so only those are stored: a
/// channel's phases one after another, then the next channel's.
struct PhasePlanes {
  PhasePlanes(int64_t h, int64_t w, int64_t k, int64_t s, int64_t p)
      : h(h),
        w(w),
        s(s),
        p(p),
        sp(std::min(s, k)),
        hq((h + 2 * p + s - 1) / s),
        wq((w + 2 * p + s - 1) / s),
        oh((h + 2 * p - k) / s + 1),
        ow((w + 2 * p - k) / s + 1),
        n((oh - 1) * wq + ow) {}

  /// Floats of one channel's phases.
  int64_t channel_size() const { return sp * sp * hq * wq; }

  /// Offset of channel c's window for tap (ky, kx).
  int64_t window(int64_t c, int64_t ky, int64_t kx) const {
    return (c * sp * sp + (ky % s) * sp + kx % s) * hq * wq + (ky / s) * wq +
           kx / s;
  }

  /// Copies the elements of `channels` CHW planes `im` to their phase
  /// positions in `ph`; the padding positions keep what they hold.
  void gather(const float* im, int64_t channels, float* ph) const {
    each_row(channels, [&](int64_t at, int64_t in, int64_t count) {
      if (s == 1) {
        std::memcpy(ph + at, im + in,
                    static_cast<size_t>(count) * sizeof(float));
      } else {
        for (int64_t i = 0; i < count; ++i) ph[at + i] = im[in + i * s];
      }
    });
  }

  /// The adjoint move: each input element's phase position back into `im`.
  /// Input elements no phase holds (s > k) are not written.
  void scatter(const float* ph, int64_t channels, float* im) const {
    each_row(channels, [&](int64_t at, int64_t in, int64_t count) {
      for (int64_t i = 0; i < count; ++i) im[in + i * s] = ph[at + i];
    });
  }

  int64_t h, w, s, p;
  int64_t sp;      // phases per axis: min(s, k)
  int64_t hq, wq;  // phase grid
  int64_t oh, ow;  // output extent
  int64_t n;       // wide output positions

 private:
  /// Calls f(phase offset, input offset, count) for every run of input
  /// elements in a phase row: phase element at + i holds input element
  /// in + i*s.
  template <class F>
  void each_row(int64_t channels, F&& f) const {
    for (int64_t c = 0; c < channels; ++c) {
      for (int64_t a = 0; a < sp; ++a) {
        for (int64_t b = 0; b < sp; ++b) {
          // Phase columns v with 0 <= v*s + b - p < w.
          const int64_t v0 = p > b ? (p - b + s - 1) / s : 0;
          const int64_t last = w - 1 + p - b;
          const int64_t v1 = last < 0 ? 0 : std::min(wq, last / s + 1);
          if (v1 <= v0) continue;
          const int64_t base = (c * sp * sp + a * sp + b) * hq * wq;
          for (int64_t u = 0; u < hq; ++u) {
            const int64_t iy = u * s + a - p;
            if (iy < 0 || iy >= h) continue;
            f(base + u * wq + v0, (c * h + iy) * w + v0 * s + b - p, v1 - v0);
          }
        }
      }
    }
  }
};

}  // namespace fca::nn
