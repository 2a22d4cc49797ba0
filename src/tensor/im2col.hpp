// im2col / col2im for NCHW convolution lowering.
//
// A strided Conv2d forward is lowered to a GEMM: the input image is unfolded
// into a [C*KH*KW, OH*OW] column matrix per sample, multiplied by the
// [OC, C*KH*KW] weight matrix. col2im is the adjoint used by the backward
// pass. Stride-1 convs lower through padded planes instead (nn/conv.cpp);
// tests/test_im2col.cpp pins that lowering byte-for-byte to this one.
#pragma once

#include <cstdint>

namespace fca {

struct ConvGeom {
  int64_t channels, height, width;
  int64_t kernel_h, kernel_w;
  int64_t stride_h, stride_w;
  int64_t pad_h, pad_w;

  int64_t out_h() const {
    return (height + 2 * pad_h - kernel_h) / stride_h + 1;
  }
  int64_t out_w() const {
    return (width + 2 * pad_w - kernel_w) / stride_w + 1;
  }
  /// Rows of the column matrix: channels * kernel_h * kernel_w.
  int64_t col_rows() const { return channels * kernel_h * kernel_w; }
  /// Columns of the column matrix: out_h * out_w.
  int64_t col_cols() const { return out_h() * out_w(); }
};

/// Unfolds one CHW image `im` into `col` with layout [col_rows, col_cols].
/// Out-of-image taps read zero (implicit padding). The horizontal bounds
/// checks are hoisted out of the inner loop: interior spans are memcpy'd at
/// stride 1 and copied branch-free at larger strides.
void im2col(const float* im, const ConvGeom& g, float* col);

/// Adjoint of im2col: accumulates `col` back into `im` (im must be
/// zero-initialized by the caller if accumulation from scratch is wanted).
/// Vectorized like im2col (hoisted horizontal bounds, contiguous accumulate
/// at stride 1, strided scatter-add tail); byte-equal to col2im_reference
/// because the per-element accumulation order is preserved.
void col2im(const float* col, const ConvGeom& g, float* im);

/// Scalar per-element-bounds-checked col2im kept as the byte-equality oracle
/// for the vectorized version (tests/test_im2col.cpp).
void col2im_reference(const float* col, const ConvGeom& g, float* im);

/// Direct (non-lowered) convolution of one image; correctness oracle for
/// tests and baseline for the conv ablation bench. weight layout
/// [oc, c, kh, kw]; out layout [oc, out_h, out_w].
void conv2d_direct(const float* im, const float* weight, int64_t out_channels,
                   const ConvGeom& g, float* out);

}  // namespace fca
