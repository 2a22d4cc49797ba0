// Lowering oracles and the Conv2d lowering tier (DESIGN.md §9).
//
// im2col / col2im unfold a CHW image into the [C*KH*KW, OH*OW] column matrix
// of a GEMM-lowered convolution and fold it back. nn::Conv2d no longer uses
// them: it lowers through zero-bordered phase planes, and runs depthwise
// convs directly. They live here as the reference that lowering is
// memcmp'd against, next to the scalar col2im_reference and the direct
// (double-accumulating) convolution that check them in turn.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "nn/conv.hpp"
#include "tensor/gemm.hpp"
#include "tensor/tensor.hpp"
#include "tensor/workspace.hpp"
#include "utils/rng.hpp"
#include "utils/threadpool.hpp"

namespace fca {
namespace {

/// [x0, x1): output columns whose input tap ix = x*stride - pad + kw lands
/// inside [0, width). Everything outside is implicit zero padding.
inline void valid_x_range(int64_t ow, int64_t width, int64_t stride,
                          int64_t pad, int64_t kw, int64_t* x0, int64_t* x1) {
  // First x with ix >= 0: ceil((pad - kw) / stride), clamped into [0, ow].
  int64_t lo = pad - kw;
  lo = lo <= 0 ? 0 : (lo + stride - 1) / stride;
  // Last x with ix <= width - 1 is floor((width - 1 + pad - kw) / stride).
  const int64_t hi_num = width - 1 + pad - kw;
  int64_t hi = hi_num < 0 ? 0 : hi_num / stride + 1;  // exclusive
  *x0 = std::min(lo, ow);
  *x1 = std::max(std::min(hi, ow), *x0);
}

/// Unfolds one CHW image `im` into `col` with layout [col_rows, col_cols].
/// Out-of-image taps read zero (implicit padding).
void im2col(const float* im, const ConvGeom& g, float* col) {
  const int64_t oh = g.out_h();
  const int64_t ow = g.out_w();
  int64_t row = 0;
  for (int64_t c = 0; c < g.channels; ++c) {
    const float* imc = im + c * g.height * g.width;
    for (int64_t kh = 0; kh < g.kernel_h; ++kh) {
      for (int64_t kw = 0; kw < g.kernel_w; ++kw, ++row) {
        float* dst = col + row * oh * ow;
        // The in-image x span is the same for every output row; computing
        // it once hoists all horizontal bounds checks out of the copy loop,
        // which becomes a memcpy at stride 1 and a branch-free strided
        // gather otherwise.
        int64_t x0, x1;
        valid_x_range(ow, g.width, g.stride_w, g.pad_w, kw, &x0, &x1);
        for (int64_t y = 0; y < oh; ++y) {
          float* out = dst + y * ow;
          const int64_t iy = y * g.stride_h - g.pad_h + kh;
          if (iy < 0 || iy >= g.height) {
            std::memset(out, 0, static_cast<size_t>(ow) * sizeof(float));
            continue;
          }
          if (x0 > 0) {
            std::memset(out, 0, static_cast<size_t>(x0) * sizeof(float));
          }
          const float* src = imc + iy * g.width;
          if (g.stride_w == 1) {
            const int64_t off = x0 * g.stride_w - g.pad_w + kw;
            std::memcpy(out + x0, src + off,
                        static_cast<size_t>(x1 - x0) * sizeof(float));
          } else {
            int64_t ix = x0 * g.stride_w - g.pad_w + kw;
            for (int64_t x = x0; x < x1; ++x, ix += g.stride_w) {
              out[x] = src[ix];
            }
          }
          if (x1 < ow) {
            std::memset(out + x1, 0,
                        static_cast<size_t>(ow - x1) * sizeof(float));
          }
        }
      }
    }
  }
}

/// Adjoint of im2col: accumulates `col` back into `im`, with hoisted
/// horizontal bounds like im2col.
void col2im(const float* col, const ConvGeom& g, float* im) {
  const int64_t oh = g.out_h();
  const int64_t ow = g.out_w();
  int64_t row = 0;
  for (int64_t c = 0; c < g.channels; ++c) {
    float* imc = im + c * g.height * g.width;
    for (int64_t kh = 0; kh < g.kernel_h; ++kh) {
      for (int64_t kw = 0; kw < g.kernel_w; ++kw, ++row) {
        const float* src_row = col + row * oh * ow;
        // Same hoisting as im2col: the valid x span is y-invariant, so the
        // horizontal bounds checks leave the inner loop entirely. Within one
        // (c, kh, kw, y) row the map x -> ix is a bijection, so the per-image-
        // element accumulation order matches the scalar reference exactly and
        // the result stays byte-equal (overlapping windows only meet across
        // kh/kw iterations, whose order is unchanged).
        int64_t x0, x1;
        valid_x_range(ow, g.width, g.stride_w, g.pad_w, kw, &x0, &x1);
        for (int64_t y = 0; y < oh; ++y) {
          const int64_t iy = y * g.stride_h - g.pad_h + kh;
          if (iy < 0 || iy >= g.height) continue;
          const float* src = src_row + y * ow;
          float* dst_row = imc + iy * g.width;
          if (g.stride_w == 1) {
            float* dst = dst_row + (x0 - g.pad_w + kw);
            const float* s = src + x0;
            const int64_t n = x1 - x0;
#pragma omp simd
            for (int64_t i = 0; i < n; ++i) dst[i] += s[i];
          } else {
            int64_t ix = x0 * g.stride_w - g.pad_w + kw;
            for (int64_t x = x0; x < x1; ++x, ix += g.stride_w) {
              dst_row[ix] += src[x];
            }
          }
        }
      }
    }
  }
}

/// Scalar per-element-bounds-checked col2im: the oracle for col2im.
void col2im_reference(const float* col, const ConvGeom& g, float* im) {
  const int64_t oh = g.out_h();
  const int64_t ow = g.out_w();
  int64_t row = 0;
  for (int64_t c = 0; c < g.channels; ++c) {
    float* imc = im + c * g.height * g.width;
    for (int64_t kh = 0; kh < g.kernel_h; ++kh) {
      for (int64_t kw = 0; kw < g.kernel_w; ++kw, ++row) {
        const float* src = col + row * oh * ow;
        for (int64_t y = 0; y < oh; ++y) {
          const int64_t iy = y * g.stride_h - g.pad_h + kh;
          if (iy < 0 || iy >= g.height) continue;
          for (int64_t x = 0; x < ow; ++x) {
            const int64_t ix = x * g.stride_w - g.pad_w + kw;
            if (ix >= 0 && ix < g.width) {
              imc[iy * g.width + ix] += src[y * ow + x];
            }
          }
        }
      }
    }
  }
}

/// Direct convolution of one image, accumulated in double. weight layout
/// [oc, c, kh, kw]; out layout [oc, out_h, out_w].
void conv2d_direct(const float* im, const float* weight, int64_t out_channels,
                   const ConvGeom& g, float* out) {
  const int64_t oh = g.out_h();
  const int64_t ow = g.out_w();
  for (int64_t oc = 0; oc < out_channels; ++oc) {
    for (int64_t y = 0; y < oh; ++y) {
      for (int64_t x = 0; x < ow; ++x) {
        double acc = 0.0;
        for (int64_t c = 0; c < g.channels; ++c) {
          for (int64_t kh = 0; kh < g.kernel_h; ++kh) {
            const int64_t iy = y * g.stride_h - g.pad_h + kh;
            if (iy < 0 || iy >= g.height) continue;
            for (int64_t kw = 0; kw < g.kernel_w; ++kw) {
              const int64_t ix = x * g.stride_w - g.pad_w + kw;
              if (ix < 0 || ix >= g.width) continue;
              acc += static_cast<double>(
                         im[(c * g.height + iy) * g.width + ix]) *
                     weight[((oc * g.channels + c) * g.kernel_h + kh) *
                                g.kernel_w +
                            kw];
            }
          }
        }
        out[(oc * oh + y) * ow + x] = static_cast<float>(acc);
      }
    }
  }
}

std::vector<float> random_vec(size_t n, Rng& rng) {
  std::vector<float> v(n);
  for (auto& x : v) x = static_cast<float>(rng.uniform(-1.0, 1.0));
  return v;
}

TEST(ConvGeom, OutputDimensions) {
  ConvGeom g{3, 16, 16, 3, 3, 1, 1, 1, 1};
  EXPECT_EQ(g.out_h(), 16);
  EXPECT_EQ(g.out_w(), 16);
  EXPECT_EQ(g.col_rows(), 27);
  EXPECT_EQ(g.col_cols(), 256);
  ConvGeom s{3, 16, 16, 3, 3, 2, 2, 1, 1};
  EXPECT_EQ(s.out_h(), 8);
  ConvGeom nopad{1, 5, 5, 3, 3, 1, 1, 0, 0};
  EXPECT_EQ(nopad.out_h(), 3);
}

TEST(Im2col, IdentityKernelCopiesImage) {
  // 1x1 kernel, stride 1, no padding: col matrix equals the image.
  ConvGeom g{2, 3, 3, 1, 1, 1, 1, 0, 0};
  Rng rng(1);
  std::vector<float> im = random_vec(2 * 9, rng);
  std::vector<float> col(static_cast<size_t>(g.col_rows() * g.col_cols()));
  im2col(im.data(), g, col.data());
  for (size_t i = 0; i < im.size(); ++i) EXPECT_EQ(col[i], im[i]);
}

TEST(Im2col, PaddingReadsZero) {
  ConvGeom g{1, 2, 2, 3, 3, 1, 1, 1, 1};
  std::vector<float> im{1, 2, 3, 4};
  std::vector<float> col(static_cast<size_t>(g.col_rows() * g.col_cols()));
  im2col(im.data(), g, col.data());
  // First row of the col matrix corresponds to kernel tap (0,0); at output
  // (0,0) this tap reads input (-1,-1) = padding = 0.
  EXPECT_EQ(col[0], 0.0f);
}

TEST(Im2col, Col2imIsAdjoint) {
  // <im2col(x), y> == <x, col2im(y)> for all x, y — the defining property
  // of the transpose, which is exactly what backward relies on.
  ConvGeom g{3, 7, 6, 3, 3, 2, 2, 1, 1};
  Rng rng(2);
  const size_t im_size = static_cast<size_t>(3 * 7 * 6);
  const size_t col_size = static_cast<size_t>(g.col_rows() * g.col_cols());
  std::vector<float> x = random_vec(im_size, rng);
  std::vector<float> y = random_vec(col_size, rng);
  std::vector<float> col(col_size, 0.0f);
  im2col(x.data(), g, col.data());
  double lhs = 0.0;
  for (size_t i = 0; i < col_size; ++i) lhs += static_cast<double>(col[i]) * y[i];
  std::vector<float> back(im_size, 0.0f);
  col2im(y.data(), g, back.data());
  double rhs = 0.0;
  for (size_t i = 0; i < im_size; ++i) rhs += static_cast<double>(x[i]) * back[i];
  EXPECT_NEAR(lhs, rhs, 1e-3);
}

// ---------------------------------------------------------------------------
// col2im: the vectorized implementation (hoisted bounds, contiguous
// accumulate at stride 1, strided scatter-add tail) must be byte-equal to
// the retained scalar reference — the per-element accumulation order is part
// of the determinism contract, so even a benign reassociation is a failure.

struct Col2imCase {
  int64_t c, h, w, k, stride, pad;
};

class Col2imParityTest : public ::testing::TestWithParam<Col2imCase> {};

TEST_P(Col2imParityTest, VectorizedByteEqualToScalarReference) {
  const Col2imCase p = GetParam();
  ConvGeom g{p.c, p.h, p.w, p.k, p.k, p.stride, p.stride, p.pad, p.pad};
  ASSERT_GT(g.out_h(), 0);
  ASSERT_GT(g.out_w(), 0);
  Rng rng(31);
  const size_t col_size = static_cast<size_t>(g.col_rows() * g.col_cols());
  const size_t im_size = static_cast<size_t>(p.c * p.h * p.w);
  const std::vector<float> col = random_vec(col_size, rng);
  // Accumulate into a non-zero image: col2im adds, and the starting bytes
  // must flow through both implementations identically.
  const std::vector<float> start = random_vec(im_size, rng);
  std::vector<float> vec_im = start;
  std::vector<float> ref_im = start;
  col2im(col.data(), g, vec_im.data());
  col2im_reference(col.data(), g, ref_im.data());
  ASSERT_EQ(0, std::memcmp(vec_im.data(), ref_im.data(),
                           im_size * sizeof(float)))
      << "c=" << p.c << " h=" << p.h << " w=" << p.w << " k=" << p.k
      << " stride=" << p.stride << " pad=" << p.pad;
}

INSTANTIATE_TEST_SUITE_P(
    EdgeGeometries, Col2imParityTest,
    ::testing::Values(
        // 1x1 kernel: pure copy-accumulate, no overlap.
        Col2imCase{2, 5, 5, 1, 1, 0},
        // Overlapping windows (stride < kernel): every interior image
        // element accumulates k*k column entries across kh/kw iterations.
        Col2imCase{3, 8, 8, 3, 1, 1},
        Col2imCase{2, 9, 7, 5, 1, 2},
        // Strided scatter-add tail (stride > 1 skips the memcpy-style path).
        Col2imCase{3, 8, 8, 3, 2, 1},
        Col2imCase{1, 11, 11, 5, 3, 2},
        // Padding wider than the live span on one side; tiny images where
        // the valid x range is empty for some kernel taps.
        Col2imCase{1, 2, 2, 3, 1, 1},
        Col2imCase{1, 4, 2, 3, 1, 2},
        // Non-square, stride 2, 5x5 (the cnn2/alexnet backward geometry).
        Col2imCase{2, 12, 10, 5, 2, 2},
        // Single-pixel output column.
        Col2imCase{2, 3, 3, 3, 1, 0}));

TEST(Col2im, OverlappingAccumulationOrderIsAscendingKernelTap) {
  // One channel, 2x2 image, 2x2 kernel, stride 1, pad 1 -> 3x3 outputs; the
  // center image pixel receives one contribution per kernel tap. With col
  // filled so tap (kh, kw) contributes 10^(kh*2+kw), the result separates
  // the taps in decimal — and both implementations must agree exactly.
  ConvGeom g{1, 2, 2, 2, 2, 1, 1, 1, 1};
  const int64_t rows = g.col_rows(), cols = g.col_cols();
  ASSERT_EQ(rows, 4);
  ASSERT_EQ(cols, 9);
  std::vector<float> col(static_cast<size_t>(rows * cols), 0.0f);
  for (int64_t r = 0; r < rows; ++r) {
    for (int64_t x = 0; x < cols; ++x) {
      col[static_cast<size_t>(r * cols + x)] = std::pow(10.0f, r);
    }
  }
  std::vector<float> vec_im(4, 0.0f);
  std::vector<float> ref_im(4, 0.0f);
  col2im(col.data(), g, vec_im.data());
  col2im_reference(col.data(), g, ref_im.data());
  EXPECT_EQ(0, std::memcmp(vec_im.data(), ref_im.data(), 4 * sizeof(float)));
  // Image (0,0) is read by all four taps exactly once: 1 + 10 + 100 + 1000.
  EXPECT_EQ(vec_im[0], 1111.0f);
}

TEST(Col2im, AdjointHoldsForStridedAndPaddedGeometries) {
  // <im2col(x), y> == <x, col2im(y)> on the scatter-add tail geometry too.
  ConvGeom g{2, 9, 7, 5, 5, 3, 3, 2, 2};
  Rng rng(8);
  const size_t im_size = static_cast<size_t>(2 * 9 * 7);
  const size_t col_size = static_cast<size_t>(g.col_rows() * g.col_cols());
  std::vector<float> x = random_vec(im_size, rng);
  std::vector<float> y = random_vec(col_size, rng);
  std::vector<float> col(col_size, 0.0f);
  im2col(x.data(), g, col.data());
  double lhs = 0.0;
  for (size_t i = 0; i < col_size; ++i)
    lhs += static_cast<double>(col[i]) * y[i];
  std::vector<float> back(im_size, 0.0f);
  col2im(y.data(), g, back.data());
  double rhs = 0.0;
  for (size_t i = 0; i < im_size; ++i)
    rhs += static_cast<double>(x[i]) * back[i];
  EXPECT_NEAR(lhs, rhs, 1e-3);
}

struct ConvCase {
  int64_t c, h, w, oc, k, stride, pad;
};

class ConvLoweringTest : public ::testing::TestWithParam<ConvCase> {};

TEST_P(ConvLoweringTest, GemmLoweringMatchesDirectConvolution) {
  const ConvCase p = GetParam();
  ConvGeom g{p.c, p.h, p.w, p.k, p.k, p.stride, p.stride, p.pad, p.pad};
  Rng rng(99);
  std::vector<float> im = random_vec(static_cast<size_t>(p.c * p.h * p.w), rng);
  std::vector<float> weight =
      random_vec(static_cast<size_t>(p.oc * g.col_rows()), rng);

  std::vector<float> direct(
      static_cast<size_t>(p.oc * g.out_h() * g.out_w()), 0.0f);
  conv2d_direct(im.data(), weight.data(), p.oc, g, direct.data());

  std::vector<float> col(static_cast<size_t>(g.col_rows() * g.col_cols()));
  im2col(im.data(), g, col.data());
  std::vector<float> lowered(direct.size(), 0.0f);
  sgemm(false, false, p.oc, g.col_cols(), g.col_rows(), 1.0f, weight.data(),
        g.col_rows(), col.data(), g.col_cols(), 0.0f, lowered.data(),
        g.col_cols());

  for (size_t i = 0; i < direct.size(); ++i) {
    EXPECT_NEAR(lowered[i], direct[i], 1e-4f) << "at " << i;
  }
}

// nn::Conv2d lowers through phase planes at every stride; it must match the
// direct convolution too.
TEST_P(ConvLoweringTest, Conv2dModuleMatchesDirectConvolution) {
  const ConvCase p = GetParam();
  ConvGeom g{p.c, p.h, p.w, p.k, p.k, p.stride, p.stride, p.pad, p.pad};
  Rng rng(99);
  std::vector<float> im = random_vec(static_cast<size_t>(p.c * p.h * p.w), rng);
  std::vector<float> weight =
      random_vec(static_cast<size_t>(p.oc * g.col_rows()), rng);

  std::vector<float> direct(
      static_cast<size_t>(p.oc * g.out_h() * g.out_w()), 0.0f);
  conv2d_direct(im.data(), weight.data(), p.oc, g, direct.data());

  Rng init(1);
  nn::Conv2d conv(p.c, p.oc, p.k, p.stride, p.pad, init, /*bias=*/false);
  std::copy(weight.begin(), weight.end(), conv.weight().value.data());
  const Tensor out = conv.forward(Tensor({1, p.c, p.h, p.w}, im), false);
  ASSERT_EQ(out.numel(), static_cast<int64_t>(direct.size()));
  for (size_t i = 0; i < direct.size(); ++i) {
    EXPECT_NEAR(out[static_cast<int64_t>(i)], direct[i], 1e-4f) << "at " << i;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Geometries, ConvLoweringTest,
    ::testing::Values(ConvCase{1, 5, 5, 2, 3, 1, 1},
                      ConvCase{3, 8, 8, 4, 3, 1, 1},
                      ConvCase{3, 8, 8, 4, 3, 2, 1},
                      ConvCase{2, 9, 7, 3, 5, 1, 2},
                      ConvCase{4, 6, 6, 8, 1, 1, 0},
                      ConvCase{1, 4, 4, 1, 3, 2, 0},
                      ConvCase{2, 12, 12, 6, 3, 2, 1},
                      // Stride-1 shapes for the padded-plane lowering: an
                      // even kernel, padding wider than k/2, a 1x1 kernel
                      // with a zero border, a one-pixel input, and a wide
                      // depth past one 256-deep GEMM panel.
                      ConvCase{2, 7, 6, 3, 2, 1, 1},
                      ConvCase{2, 5, 6, 3, 3, 1, 2},
                      ConvCase{3, 4, 5, 2, 1, 1, 1},
                      ConvCase{2, 1, 1, 3, 3, 1, 1},
                      ConvCase{2, 16, 16, 32, 3, 1, 1}));

// ---------------------------------------------------------------------------
// Conv2d lowering tier: nn::Conv2d lowers dense and grouped convs through
// zero-bordered phase planes and runs depthwise convs through direct kernels
// (DESIGN.md §9). Its forward output, input gradient, weight gradient and
// bias gradient must be byte-equal to the im2col + sgemm + col2im lowering
// built here — the same GEMM calls on the [col_rows, oh*ow] column matrix,
// the same batch chunking and the same reductions. The weight gradient keeps
// byte identity only while the wgrad GEMM keeps its summation order over the
// deeper, gapped depth; every shape in the sweeps does (one accumulator sums
// the depth, or the gaps keep each term's pair-depth parity), and
// WideDepthCrossingKcPanel and StridedPairDepthParityMoves cover two that
// do not.

struct LoweringCase {
  int64_t c_in, c_out, groups, h, w, k, pad;
  bool bias;
  int64_t stride = 1;
};

/// Conv2d's direct depthwise kernels serve 2x2 to 4x4 taps.
bool direct_depthwise(const LoweringCase& p) {
  return p.groups == p.c_in && p.c_in == p.c_out && p.k > 1 &&
         p.k * p.k <= kGemmRowUpdateMaxK;
}

std::string describe(const LoweringCase& p) {
  std::ostringstream os;
  os << "c_in=" << p.c_in << " c_out=" << p.c_out << " groups=" << p.groups
     << " h=" << p.h << " w=" << p.w << " k=" << p.k << " pad=" << p.pad
     << " stride=" << p.stride << " bias=" << p.bias;
  return os.str();
}

struct ConvGrads {
  Tensor out, grad_in, grad_w, grad_b;
};

/// The im2col lowering of a Conv2d with the given parameters. Conv2d runs
/// 2x2 to 4x4 depthwise convs through direct kernels that reproduce the
/// packed GEMM's per-element sequences, so their reference runs the packed
/// kernel whatever FCA_GEMM_KERNEL selects.
ConvGrads im2col_conv(const LoweringCase& p, const Tensor& x,
                      const Tensor& weight, const Tensor& bias,
                      const Tensor& grad_out) {
  const ScopedGemmKernel kernel(direct_depthwise(p) ? GemmKernel::kPacked
                                                    : gemm_kernel());
  const int64_t b = x.dim(0);
  const int64_t icg = p.c_in / p.groups, ocg = p.c_out / p.groups;
  ConvGeom g{icg, p.h, p.w, p.k, p.k, p.stride, p.stride, p.pad, p.pad};
  const int64_t oh = g.out_h(), ow = g.out_w();
  const int64_t rows = g.col_rows(), cols = g.col_cols();
  const int64_t in_img = p.c_in * p.h * p.w, out_img = p.c_out * oh * ow;
  std::vector<float> col(static_cast<size_t>(rows * cols));
  std::vector<float> dcol(col.size());

  ConvGrads r;
  r.out = Tensor({b, p.c_out, oh, ow});
  for (int64_t i = 0; i < b; ++i) {
    for (int64_t grp = 0; grp < p.groups; ++grp) {
      im2col(x.data() + i * in_img + grp * icg * p.h * p.w, g, col.data());
      GemmEpilogue epi;
      if (p.bias) {
        epi.bias = bias.data() + grp * ocg;
        epi.bias_kind = GemmEpilogue::Bias::kPerRow;
      }
      sgemm_ex(false, false, ocg, cols, rows, 1.0f,
               weight.data() + grp * ocg * rows, rows, col.data(), cols, 0.0f,
               r.out.data() + i * out_img + grp * ocg * oh * ow, cols, epi);
    }
  }

  constexpr int64_t kChunk = 8;
  r.grad_in = Tensor(x.shape());
  r.grad_w = Tensor(weight.shape());
  r.grad_b = Tensor({p.c_out});
  for (int64_t i0 = 0; i0 < b; i0 += kChunk) {
    Tensor dw(weight.shape());
    std::vector<float> db(static_cast<size_t>(p.c_out), 0.0f);
    for (int64_t i = i0; i < std::min(b, i0 + kChunk); ++i) {
      for (int64_t grp = 0; grp < p.groups; ++grp) {
        const int64_t in_off = i * in_img + grp * icg * p.h * p.w;
        const float* go = grad_out.data() + i * out_img + grp * ocg * oh * ow;
        im2col(x.data() + in_off, g, col.data());
        sgemm(false, true, ocg, rows, cols, 1.0f, go, cols, col.data(), cols,
              1.0f, dw.data() + grp * ocg * rows, rows);
        sgemm(true, false, rows, cols, ocg, 1.0f,
              weight.data() + grp * ocg * rows, rows, go, cols, 0.0f,
              dcol.data(), cols);
        col2im(dcol.data(), g, r.grad_in.data() + in_off);
      }
      for (int64_t oc = 0; oc < (p.bias ? p.c_out : 0); ++oc) {
        double s = 0.0;
        for (int64_t q = 0; q < oh * ow; ++q) {
          s += grad_out[i * out_img + oc * oh * ow + q];
        }
        db[static_cast<size_t>(oc)] += static_cast<float>(s);
      }
    }
    for (int64_t j = 0; j < dw.numel(); ++j) r.grad_w[j] += dw[j];
    for (int64_t j = 0; j < p.c_out; ++j) {
      r.grad_b[j] += db[static_cast<size_t>(j)];
    }
  }
  return r;
}

/// The same convolution through nn::Conv2d.
ConvGrads module_conv(const LoweringCase& p, const Tensor& x,
                      const Tensor& weight, const Tensor& bias,
                      const Tensor& grad_out) {
  Rng init(1);
  nn::Conv2d conv(p.c_in, p.c_out, p.k, p.stride, p.pad, init, p.bias,
                  p.groups);
  std::vector<nn::Param*> params;
  conv.collect_params(params);
  params[0]->value = weight.clone();
  if (p.bias) params[1]->value = bias.clone();
  ConvGrads r;
  const Tensor eval_out = conv.forward(x, /*train=*/false);
  r.out = conv.forward(x, /*train=*/true);
  EXPECT_EQ(0, std::memcmp(eval_out.data(), r.out.data(),
                           static_cast<size_t>(r.out.numel()) * sizeof(float)))
      << "eval and train forward differ: " << describe(p);
  r.grad_in = conv.backward(grad_out);
  r.grad_w = params[0]->grad.clone();
  r.grad_b = p.bias ? params[1]->grad.clone() : Tensor({p.c_out});
  return r;
}

bool same_bytes(const Tensor& a, const Tensor& b) {
  return a.shape() == b.shape() &&
         std::memcmp(a.data(), b.data(),
                     static_cast<size_t>(a.numel()) * sizeof(float)) == 0;
}

struct LoweringInputs {
  Tensor x, weight, bias, grad_out;
};

LoweringInputs lowering_inputs(const LoweringCase& p, int64_t batch,
                               uint64_t seed) {
  Rng rng(seed);
  const int64_t oh = (p.h + 2 * p.pad - p.k) / p.stride + 1;
  const int64_t ow = (p.w + 2 * p.pad - p.k) / p.stride + 1;
  LoweringInputs in;
  in.x = Tensor::rand({batch, p.c_in, p.h, p.w}, rng, -1.0f, 1.0f);
  in.weight = Tensor::rand({p.c_out, p.c_in / p.groups * p.k * p.k}, rng,
                           -1.0f, 1.0f);
  in.bias = Tensor::rand({p.c_out}, rng, -1.0f, 1.0f);
  in.grad_out = Tensor::rand({batch, p.c_out, oh, ow}, rng, -1.0f, 1.0f);
  return in;
}

std::vector<LoweringCase> lowering_sweep() {
  std::vector<LoweringCase> cases;
  struct Channels {
    int64_t c_in, c_out, groups;
  };
  // 8/16/32/64 output channels per group (one input channel covers the 1x1
  // conv whose input gradient is a single dgrad row), a grouped conv and a
  // depthwise conv.
  const Channels channels[] = {{1, 8, 1},  {3, 16, 1}, {2, 32, 1},
                               {3, 64, 1}, {4, 16, 2}, {4, 4, 4}};
  for (int64_t k : {1, 3, 5}) {
    for (int64_t pad = 0; pad <= k / 2; ++pad) {
      // H != W, odd and even, and the smallest input with a 1x1 output
      // (H*W == 1 once pad == k/2).
      const int64_t m = k - 2 * pad;
      const int64_t sizes[][2] = {{7, 5}, {6, 9}, {m, m}};
      for (const auto& hw : sizes) {
        for (const Channels& ch : channels) {
          for (bool bias : {false, true}) {
            cases.push_back(LoweringCase{ch.c_in, ch.c_out, ch.groups, hw[0],
                                         hw[1], k, pad, bias});
          }
        }
      }
    }
  }
  return cases;
}

TEST(Conv2dLowering, StrideOneByteEqualToIm2colLowering) {
  const std::vector<LoweringCase> cases = lowering_sweep();
  ASSERT_EQ(cases.size(), 216u);
  uint64_t seed = 500;
  for (const LoweringCase& p : cases) {
    const LoweringInputs in = lowering_inputs(p, /*batch=*/2, seed++);
    const ConvGrads ref = im2col_conv(p, in.x, in.weight, in.bias, in.grad_out);
    const ConvGrads got =
        module_conv(p, in.x, in.weight, in.bias, in.grad_out);
    EXPECT_TRUE(same_bytes(got.out, ref.out)) << "forward: " << describe(p);
    EXPECT_TRUE(same_bytes(got.grad_in, ref.grad_in))
        << "grad_in: " << describe(p);
    EXPECT_TRUE(same_bytes(got.grad_w, ref.grad_w))
        << "weight grad: " << describe(p);
    EXPECT_TRUE(same_bytes(got.grad_b, ref.grad_b))
        << "bias grad: " << describe(p);
  }
}

TEST(Conv2dLowering, MultiChunkBatchByteEqualToIm2colLowering) {
  // Ten images split into two backward chunks, reduced in chunk order.
  const LoweringCase p{3, 16, 1, 6, 7, 3, 1, true};
  const LoweringInputs in = lowering_inputs(p, /*batch=*/10, 77);
  const ConvGrads ref = im2col_conv(p, in.x, in.weight, in.bias, in.grad_out);
  const ConvGrads got = module_conv(p, in.x, in.weight, in.bias, in.grad_out);
  EXPECT_TRUE(same_bytes(got.out, ref.out));
  EXPECT_TRUE(same_bytes(got.grad_in, ref.grad_in));
  EXPECT_TRUE(same_bytes(got.grad_w, ref.grad_w));
  EXPECT_TRUE(same_bytes(got.grad_b, ref.grad_b));
}

/// Holds a weight gradient to the reassociation bound 2(k+2)·eps·sum|terms|
/// of test_kernel_parity, k being the terms each element sums over the
/// batch.
void expect_weight_grad_within_bound(const LoweringCase& p,
                                     const LoweringInputs& in,
                                     const Tensor& got, const Tensor& ref) {
  const int64_t batch = in.x.dim(0);
  const int64_t icg = p.c_in / p.groups, ocg = p.c_out / p.groups;
  ConvGeom g{icg, p.h, p.w, p.k, p.k, p.stride, p.stride, p.pad, p.pad};
  const int64_t rows = g.col_rows(), cols = g.col_cols();
  std::vector<double> mag(static_cast<size_t>(p.c_out * rows), 0.0);
  std::vector<float> col(static_cast<size_t>(rows * cols));
  for (int64_t i = 0; i < batch; ++i) {
    for (int64_t grp = 0; grp < p.groups; ++grp) {
      im2col(in.x.data() + (i * p.c_in + grp * icg) * p.h * p.w, g,
             col.data());
      for (int64_t o = grp * ocg; o < (grp + 1) * ocg; ++o) {
        const float* go = in.grad_out.data() + (i * p.c_out + o) * cols;
        for (int64_t r = 0; r < rows; ++r) {
          for (int64_t q = 0; q < cols; ++q) {
            mag[static_cast<size_t>(o * rows + r)] +=
                std::abs(static_cast<double>(go[q]) *
                         col[static_cast<size_t>(r * cols + q)]);
          }
        }
      }
    }
  }
  constexpr double kFloatEps = 1.1920928955078125e-7;  // 2^-23
  const double terms = static_cast<double>(batch * (cols + 2) + 2);
  for (int64_t j = 0; j < ref.numel(); ++j) {
    const double bound =
        2.0 * terms * kFloatEps * mag[static_cast<size_t>(j)] + 1e-35;
    ASSERT_LE(std::abs(static_cast<double>(got[j]) - ref[j]), bound)
        << "weight grad at " << j << ": " << describe(p);
  }
}

TEST(Conv2dLowering, WideDepthCrossingKcPanel) {
  // 16x16, k=3, pad 1: oh*ow = 256 fits one 256-deep packed panel, but the
  // wide depth 15*18 + 16 = 286 does not, and with 32 output channels and
  // 18 lowered rows the wgrad GEMM takes the general packed path. The panel
  // boundary moves, so the weight gradient is held to the reassociation
  // bound; everything else is still byte-equal.
  const LoweringCase p{2, 32, 1, 16, 16, 3, 1, true};
  const LoweringInputs in = lowering_inputs(p, /*batch=*/2, 91);
  const ConvGrads ref = im2col_conv(p, in.x, in.weight, in.bias, in.grad_out);
  const ConvGrads got = module_conv(p, in.x, in.weight, in.bias, in.grad_out);
  EXPECT_TRUE(same_bytes(got.out, ref.out));
  EXPECT_TRUE(same_bytes(got.grad_in, ref.grad_in));
  EXPECT_TRUE(same_bytes(got.grad_b, ref.grad_b));
  expect_weight_grad_within_bound(p, in, got.grad_w, ref.grad_w);
}

/// Dense, grouped and depthwise convs at strides 2 and 3 over k in
/// {1, 2, 3, 4, 5}, every padding up to k/2, H != W and 1x1 outputs. The
/// dense and grouped channel counts keep the wgrad GEMM on one-accumulator
/// tiles (or, at k = 1, on a gap-free depth). A 5x5 depthwise conv stays on
/// the GEMM path, whose paired-depth wgrad tile the gaps reorder, so it is
/// left to the bound test below.
std::vector<LoweringCase> strided_sweep() {
  std::vector<LoweringCase> cases;
  struct Channels {
    int64_t c_in, c_out, groups;
  };
  const Channels channels[] = {{3, 16, 1}, {4, 32, 1}, {6, 32, 2}, {6, 6, 6}};
  for (int64_t stride : {2, 3}) {
    for (int64_t k : {1, 2, 3, 4, 5}) {
      for (int64_t pad = 0; pad <= k / 2; ++pad) {
        const int64_t m = std::max<int64_t>(1, k - 2 * pad);
        const int64_t sizes[][2] = {{7, 5}, {6, 9}, {m, m}};
        for (const auto& hw : sizes) {
          for (const Channels& ch : channels) {
            if (ch.groups == ch.c_in && k == 5) continue;
            for (bool bias : {false, true}) {
              cases.push_back(LoweringCase{ch.c_in, ch.c_out, ch.groups, hw[0],
                                           hw[1], k, pad, bias, stride});
            }
          }
        }
      }
    }
  }
  return cases;
}

void expect_byte_equal(const LoweringCase& p, const LoweringInputs& in) {
  const ConvGrads ref = im2col_conv(p, in.x, in.weight, in.bias, in.grad_out);
  const ConvGrads got = module_conv(p, in.x, in.weight, in.bias, in.grad_out);
  EXPECT_TRUE(same_bytes(got.out, ref.out)) << "forward: " << describe(p);
  EXPECT_TRUE(same_bytes(got.grad_in, ref.grad_in))
      << "grad_in: " << describe(p);
  EXPECT_TRUE(same_bytes(got.grad_w, ref.grad_w))
      << "weight grad: " << describe(p);
  EXPECT_TRUE(same_bytes(got.grad_b, ref.grad_b))
      << "bias grad: " << describe(p);
}

TEST(Conv2dLowering, StridedByteEqualToIm2colLowering) {
  const std::vector<LoweringCase> cases = strided_sweep();
  ASSERT_EQ(cases.size(), 492u);
  uint64_t seed = 900;
  for (const LoweringCase& p : cases) {
    expect_byte_equal(p, lowering_inputs(p, /*batch=*/2, seed++));
  }
}

TEST(Conv2dLowering, RowOperandShapesByteEqual) {
  // Shapes whose GEMMs read their row operands at the edges the sweeps do
  // not reach. Forward depth past one 256-deep panel: 32 -> 32 3x3 (288
  // rows, ResNet's stage 3) and 12 -> 16 5x5 (300 rows). 1x1 convs on
  // unpadded input, whose rows are the input planes themselves, at n =
  // 1, 4, 9, 17 and 33 positions: every column strip is partial, so a read
  // past a row leaves the input tensor. 8 to 64 output channels at batch
  // 10, which splits backward into two chunks.
  std::vector<std::pair<LoweringCase, int64_t>> cases = {
      {{32, 32, 1, 8, 8, 3, 1, true}, 2},
      {{32, 32, 1, 5, 7, 3, 1, false}, 2},
      {{12, 16, 1, 9, 9, 5, 2, true}, 2},
      {{12, 16, 1, 6, 5, 5, 2, false}, 2},
  };
  const int64_t hw[][2] = {{1, 1}, {2, 2}, {3, 3}, {1, 17}, {3, 11}};
  for (const auto& s : hw) {
    for (const int64_t c_in : {8, 24}) {
      cases.push_back({{c_in, 16, 1, s[0], s[1], 1, 0, true}, 2});
      cases.push_back({{c_in, 32, 1, s[0], s[1], 1, 0, false}, 2});
    }
  }
  for (const int64_t c_out : {8, 16, 32, 64}) {
    cases.push_back({{3, c_out, 1, 6, 7, 3, 1, true}, 10});
    cases.push_back({{c_out, c_out, 1, 5, 5, 3, 1, false}, 10});
  }
  uint64_t seed = 1400;
  for (const auto& [p, batch] : cases) {
    expect_byte_equal(p, lowering_inputs(p, batch, seed++));
  }
}

TEST(Conv2dLowering, EvenKernelDepthwiseAtStrideOne) {
  // The stride-1 sweep has odd kernels only. A 4x4 depthwise wgrad takes
  // the one-accumulator tile and stays byte-equal. A 2x2 one takes the
  // paired-depth tile over the wide depth, as the GEMM path did: the single
  // gap column per output row moves every other row's terms to the other
  // parity class, so its weight gradient is held to the bound.
  uint64_t seed = 1200;
  for (int64_t k : {2, 4}) {
    for (int64_t pad = 0; pad <= k / 2; ++pad) {
      const int64_t sizes[][2] = {{7, 5}, {6, 9}};
      for (const auto& hw : sizes) {
        for (bool bias : {false, true}) {
          const LoweringCase p{6, 6, 6, hw[0], hw[1], k, pad, bias};
          const LoweringInputs in = lowering_inputs(p, /*batch=*/2, seed++);
          if (k == 4) {
            expect_byte_equal(p, in);
            continue;
          }
          const ConvGrads ref =
              im2col_conv(p, in.x, in.weight, in.bias, in.grad_out);
          const ConvGrads got =
              module_conv(p, in.x, in.weight, in.bias, in.grad_out);
          EXPECT_TRUE(same_bytes(got.out, ref.out)) << describe(p);
          EXPECT_TRUE(same_bytes(got.grad_in, ref.grad_in)) << describe(p);
          EXPECT_TRUE(same_bytes(got.grad_b, ref.grad_b)) << describe(p);
          expect_weight_grad_within_bound(p, in, got.grad_w, ref.grad_w);
        }
      }
    }
  }
}

TEST(Conv2dLowering, ShuffleNetDepthwiseShapesByteEqual) {
  // ShuffleNet's depthwise 3x3 convs at batch 32 — four backward chunks —
  // at the three stage widths and resolutions, stride 1 and 2.
  const int64_t shapes[][2] = {{8, 16}, {16, 8}, {32, 4}};
  uint64_t seed = 1300;
  for (const auto& cs : shapes) {
    for (int64_t stride : {1, 2}) {
      for (bool bias : {false, true}) {
        const LoweringCase p{cs[0], cs[0], cs[0], cs[1], cs[1], 3, 1,
                             bias,  stride};
        expect_byte_equal(p, lowering_inputs(p, /*batch=*/32, seed++));
      }
    }
  }
}

TEST(Conv2dLowering, StridedPairDepthParityMoves) {
  // 3x3 stride 2 on 16x16 with 8 output channels: the wgrad GEMM takes the
  // paired-depth 8-wide tile, and the phase planes' one gap column per
  // output row shifts every other row's terms to the other parity class.
  // The weight gradient is held to the reassociation bound; forward, input
  // and bias gradients stay byte-equal.
  const LoweringCase p{3, 8, 1, 16, 16, 3, 1, true, 2};
  const LoweringInputs in = lowering_inputs(p, /*batch=*/2, 93);
  const ConvGrads ref = im2col_conv(p, in.x, in.weight, in.bias, in.grad_out);
  const ConvGrads got = module_conv(p, in.x, in.weight, in.bias, in.grad_out);
  EXPECT_TRUE(same_bytes(got.out, ref.out));
  EXPECT_TRUE(same_bytes(got.grad_in, ref.grad_in));
  EXPECT_TRUE(same_bytes(got.grad_b, ref.grad_b));
  expect_weight_grad_within_bound(p, in, got.grad_w, ref.grad_w);
}

/// Dense and grouped convs with 1x1 to 5x5 output planes, which Conv2d's
/// forward multiplies several images at a time once two or more planes fit
/// one streamed register strip (DESIGN.md §9). k = 3 takes the streamed
/// GEMM and k = 1 the row update.
std::vector<LoweringCase> small_plane_sweep() {
  std::vector<LoweringCase> cases;
  for (int64_t stride : {1, 2}) {
    for (int64_t k : {1, 3}) {
      for (int64_t groups : {1, 2}) {
        for (int64_t side = 1; side <= 5; ++side) {
          const int64_t hw = (side - 1) * stride + 1;  // pad k/2
          for (bool bias : {false, true}) {
            cases.push_back(LoweringCase{groups == 1 ? 3 : 4, 8, groups, hw,
                                         hw, k, k / 2, bias, stride});
          }
        }
      }
    }
  }
  return cases;
}

TEST(Conv2dLowering, BatchedSmallPlanesByteEqualToIm2colLowering) {
  // Every batch from 1 to 17, so each images-per-GEMM count meets every
  // tail. module_conv memcmps its eval forward against its train forward;
  // the pooled run splits the batch as the thread count does, the
  // one-lane run sees it whole.
  const std::vector<LoweringCase> cases = small_plane_sweep();
  ASSERT_EQ(cases.size(), 80u);
  uint64_t seed = 1600;
  for (const LoweringCase& p : cases) {
    for (int64_t batch = 1; batch <= 17; ++batch) {
      const LoweringInputs in = lowering_inputs(p, batch, seed++);
      const Tensor ref =
          im2col_conv(p, in.x, in.weight, in.bias, in.grad_out).out;
      const Tensor pooled =
          module_conv(p, in.x, in.weight, in.bias, in.grad_out).out;
      ThreadPool::SerialRegion one_lane;
      const Tensor serial =
          module_conv(p, in.x, in.weight, in.bias, in.grad_out).out;
      EXPECT_TRUE(same_bytes(pooled, ref))
          << "pooled: " << describe(p) << " batch=" << batch;
      EXPECT_TRUE(same_bytes(serial, ref))
          << "one lane: " << describe(p) << " batch=" << batch;
    }
  }
}

TEST(Conv2dLowering, BatchedForwardDoesNotGrowWorkspace) {
  // ResNet's last stage at 8x8 inputs: 2x2 output planes, 16 images.
  const LoweringCase p{64, 64, 1, 2, 2, 3, 1, true};
  const LoweringInputs in = lowering_inputs(p, /*batch=*/16, 1700);
  Rng init(1);
  nn::Conv2d conv(p.c_in, p.c_out, p.k, p.stride, p.pad, init, p.bias);
  ThreadPool::SerialRegion on_this_thread;  // every lane on this arena
  Workspace& ws = Workspace::tls();
  conv.forward(in.x, /*train=*/false);
  const size_t capacity_after_warmup = ws.capacity_floats();
  for (int rep = 0; rep < 10; ++rep) conv.forward(in.x, /*train=*/false);
  EXPECT_EQ(ws.capacity_floats(), capacity_after_warmup);
}

}  // namespace
}  // namespace fca
