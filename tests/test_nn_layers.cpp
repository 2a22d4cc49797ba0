#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>
#include <string>
#include <vector>

#include "nn/activation.hpp"
#include "nn/container.hpp"
#include "nn/conv.hpp"
#include "nn/init.hpp"
#include "nn/linear.hpp"
#include "nn/norm.hpp"
#include "nn/pool.hpp"
#include "tensor/kernel.hpp"
#include "tensor/ops.hpp"
#include "test_helpers.hpp"
#include "utils/error.hpp"

namespace fca::nn {
namespace {

using test::check_input_gradient;
using test::check_param_gradients;
using test::max_value;
using test::min_value;

TEST(Linear, ForwardShapeAndValue) {
  Rng rng(1);
  Linear lin(3, 2, rng);
  // Overwrite weights for a deterministic check.
  lin.weight().value = Tensor({2, 3}, {1, 0, 0, 0, 1, 0});
  lin.bias().value = Tensor({2}, {10, 20});
  Tensor x({1, 3}, {5, 6, 7});
  Tensor y = lin.forward(x, false);
  EXPECT_EQ(y.dim(1), 2);
  EXPECT_FLOAT_EQ(y[0], 15.0f);
  EXPECT_FLOAT_EQ(y[1], 26.0f);
}

TEST(Linear, GradientsMatchFiniteDifference) {
  Rng rng(2);
  Linear lin(4, 3, rng);
  Tensor x = Tensor::randn({5, 4}, rng);
  check_input_gradient(lin, x);
  check_param_gradients(lin, x);
}

TEST(Linear, GradientsMatchFiniteDifferenceWithPackedKernel) {
  // Same finite-difference check with the packed GEMM forced on: the fused
  // bias epilogue and arena-backed forward must leave gradients intact.
  ScopedGemmKernel packed(GemmKernel::kPacked);
  Rng rng(2);
  Linear lin(4, 3, rng);
  Tensor x = Tensor::randn({5, 4}, rng);
  check_input_gradient(lin, x);
  check_param_gradients(lin, x);
}

TEST(Linear, NoBiasVariant) {
  Rng rng(3);
  Linear lin(3, 2, rng, /*bias=*/false);
  EXPECT_EQ(lin.parameters().size(), 1u);
  Tensor x = Tensor::randn({2, 3}, rng);
  check_param_gradients(lin, x);
}

TEST(Linear, RejectsWrongInputShape) {
  Rng rng(4);
  Linear lin(3, 2, rng);
  EXPECT_THROW(lin.forward(Tensor({2, 4}), false), Error);
}

TEST(Conv2d, OutputShape) {
  Rng rng(5);
  Conv2d conv(3, 8, 3, 1, 1, rng);
  Tensor x = Tensor::randn({2, 3, 8, 8}, rng);
  Tensor y = conv.forward(x, false);
  EXPECT_EQ(y.shape(), (Shape{2, 8, 8, 8}));
  Conv2d strided(3, 4, 3, 2, 1, rng);
  EXPECT_EQ(strided.forward(x, false).shape(), (Shape{2, 4, 4, 4}));
}

TEST(Conv2d, GradientsMatchFiniteDifference) {
  Rng rng(6);
  Conv2d conv(2, 3, 3, 1, 1, rng);
  Tensor x = Tensor::randn({2, 2, 5, 5}, rng);
  check_input_gradient(conv, x);
  check_param_gradients(conv, x);
}

TEST(Conv2d, GradientsMatchFiniteDifferenceWithPackedKernel) {
  // Packed kernel forced on: fused per-channel bias plus the arena-backed
  // im2col buffers must not perturb any of the three gradients.
  ScopedGemmKernel packed(GemmKernel::kPacked);
  Rng rng(6);
  Conv2d conv(2, 3, 3, 1, 1, rng);
  Tensor x = Tensor::randn({2, 2, 5, 5}, rng);
  check_input_gradient(conv, x);
  check_param_gradients(conv, x);
}

TEST(Conv2d, StridedGradients) {
  Rng rng(7);
  Conv2d conv(2, 2, 3, 2, 1, rng);
  Tensor x = Tensor::randn({1, 2, 6, 6}, rng);
  check_input_gradient(conv, x);
  check_param_gradients(conv, x);
}

TEST(Conv2d, OneByOneKernelEqualsChannelMix) {
  Rng rng(8);
  Conv2d conv(2, 1, 1, 1, 0, rng, /*bias=*/false);
  conv.weight().value = Tensor({1, 2}, {2.0f, 3.0f});
  Tensor x({1, 2, 1, 1}, {5.0f, 7.0f});
  Tensor y = conv.forward(x, false);
  EXPECT_FLOAT_EQ(y[0], 31.0f);
}

TEST(Conv2d, GroupedEqualsPerGroupDense) {
  // groups=2 must equal two independent dense convs on channel halves.
  Rng rng(31);
  Conv2d grouped(4, 6, 3, 1, 1, rng, /*bias=*/false, /*groups=*/2);
  Rng rng2(32);
  Conv2d lo(2, 3, 3, 1, 1, rng2, false);
  Conv2d hi(2, 3, 3, 1, 1, rng2, false);
  // Share the grouped weights with the two dense convs.
  std::copy_n(grouped.weight().value.data(), 3 * 18,
              lo.weight().value.data());
  std::copy_n(grouped.weight().value.data() + 3 * 18, 3 * 18,
              hi.weight().value.data());
  Tensor x = Tensor::randn({2, 4, 5, 5}, rng);
  Tensor y = grouped.forward(x, false);
  Tensor ylo = lo.forward(slice_channels(x, 0, 2), false);
  Tensor yhi = hi.forward(slice_channels(x, 2, 4), false);
  EXPECT_TRUE(allclose(y, concat_channels({ylo, yhi}), 1e-5f));
}

TEST(Conv2d, DepthwiseActsPerChannel) {
  Rng rng(33);
  Conv2d dw(3, 3, 3, 1, 1, rng, /*bias=*/false, /*groups=*/3);
  Tensor x = Tensor::randn({1, 3, 4, 4}, rng);
  Tensor y = dw.forward(x, false);
  // Zeroing one input channel must zero exactly that output channel.
  Tensor x2 = x.clone();
  for (int64_t i = 0; i < 16; ++i) x2[16 + i] = 0.0f;  // channel 1
  Tensor y2 = dw.forward(x2, false);
  for (int64_t i = 0; i < 16; ++i) {
    EXPECT_FLOAT_EQ(y2[16 + i], 0.0f);
    EXPECT_FLOAT_EQ(y2[i], y[i]);            // channel 0 untouched
    EXPECT_FLOAT_EQ(y2[32 + i], y[32 + i]);  // channel 2 untouched
  }
}

TEST(Conv2d, GroupedGradientsMatchFiniteDifference) {
  Rng rng(34);
  Conv2d conv(4, 4, 3, 1, 1, rng, /*bias=*/true, /*groups=*/2);
  Tensor x = Tensor::randn({1, 4, 4, 4}, rng);
  check_input_gradient(conv, x);
  check_param_gradients(conv, x);
}

TEST(Conv2d, DepthwiseStridedGradients) {
  Rng rng(35);
  Conv2d conv(3, 3, 3, 2, 1, rng, /*bias=*/false, /*groups=*/3);
  Tensor x = Tensor::randn({2, 3, 6, 6}, rng);
  check_input_gradient(conv, x);
  check_param_gradients(conv, x);
}

// ---------------------------------------------------------------------------
// Packed-forced finite-difference tier (backward-kernel gate): with the
// packed GEMM pinned on, Conv2d::backward runs the transposed-operand packed
// paths (wgrad's (false,true) streaming kernels, dgrad's (true,false)
// rank-update) and the vectorized col2im. Each config below picks a geometry
// that stresses a different piece: stride>1 hits the strided scatter-add
// tail, padding the clipped window edges, groups>1 the per-group GEMM
// slicing, and the 5x5 kernel the overlapping-window accumulation.

TEST(Conv2d, StridedPaddedGradientsWithPackedKernel) {
  ScopedGemmKernel packed(GemmKernel::kPacked);
  Rng rng(61);
  Conv2d conv(2, 3, 3, 2, 1, rng);
  Tensor x = Tensor::randn({2, 2, 6, 6}, rng);
  check_input_gradient(conv, x);
  check_param_gradients(conv, x);
}

TEST(Conv2d, GroupedStridedGradientsWithPackedKernel) {
  ScopedGemmKernel packed(GemmKernel::kPacked);
  Rng rng(62);
  Conv2d conv(4, 6, 3, 2, 1, rng, /*bias=*/true, /*groups=*/2);
  Tensor x = Tensor::randn({1, 4, 6, 6}, rng);
  check_input_gradient(conv, x);
  check_param_gradients(conv, x);
}

TEST(Conv2d, DepthwiseGradientsWithPackedKernel) {
  ScopedGemmKernel packed(GemmKernel::kPacked);
  Rng rng(63);
  Conv2d conv(3, 3, 3, 1, 1, rng, /*bias=*/false, /*groups=*/3);
  Tensor x = Tensor::randn({2, 3, 5, 5}, rng);
  check_input_gradient(conv, x);
  check_param_gradients(conv, x);
}

TEST(Conv2d, FiveByFiveOverlapGradientsWithPackedKernel) {
  ScopedGemmKernel packed(GemmKernel::kPacked);
  Rng rng(64);
  Conv2d conv(2, 2, 5, 1, 2, rng);
  Tensor x = Tensor::randn({1, 2, 7, 7}, rng);
  check_input_gradient(conv, x);
  check_param_gradients(conv, x);
}

TEST(Linear, NoBiasGradientsWithPackedKernel) {
  ScopedGemmKernel packed(GemmKernel::kPacked);
  Rng rng(65);
  Linear lin(6, 4, rng, /*bias=*/false);
  Tensor x = Tensor::randn({5, 6}, rng);
  check_input_gradient(lin, x);
  check_param_gradients(lin, x);
}

TEST(Conv2d, GroupsMustDivideChannels) {
  Rng rng(36);
  EXPECT_THROW(Conv2d(3, 4, 3, 1, 1, rng, true, 2), Error);
  EXPECT_THROW(Conv2d(4, 3, 3, 1, 1, rng, true, 2), Error);
}

TEST(Conv2d, GroupedParameterCountShrinks) {
  Rng rng(37);
  Conv2d dense(8, 8, 3, 1, 1, rng, false);
  Conv2d depthwise(8, 8, 3, 1, 1, rng, false, 8);
  EXPECT_EQ(dense.weight().value.numel(), 8 * 8 * 9);
  EXPECT_EQ(depthwise.weight().value.numel(), 8 * 9);
}

TEST(BatchNorm2d, NormalizesTrainingBatch) {
  BatchNorm2d bn(2);
  Rng rng(9);
  Tensor x = Tensor::randn({4, 2, 3, 3}, rng, 5.0f, 2.0f);
  Tensor y = bn.forward(x, /*train=*/true);
  // Per-channel mean ~0, var ~1.
  for (int64_t ch = 0; ch < 2; ++ch) {
    double s = 0.0, ss = 0.0;
    for (int64_t i = 0; i < 4; ++i) {
      for (int64_t p = 0; p < 9; ++p) {
        const float v = y[(i * 2 + ch) * 9 + p];
        s += v;
        ss += static_cast<double>(v) * v;
      }
    }
    EXPECT_NEAR(s / 36.0, 0.0, 1e-4);
    EXPECT_NEAR(ss / 36.0, 1.0, 1e-2);
  }
}

TEST(BatchNorm2d, RunningStatsConvergeToDataMoments) {
  BatchNorm2d bn(1, 1e-5f, 0.5f);
  Rng rng(10);
  for (int step = 0; step < 30; ++step) {
    Tensor x = Tensor::randn({8, 1, 4, 4}, rng, 3.0f, 1.5f);
    bn.forward(x, true);
  }
  EXPECT_NEAR(bn.running_mean()[0], 3.0f, 0.3f);
  EXPECT_NEAR(bn.running_var()[0], 2.25f, 0.5f);
}

TEST(BatchNorm2d, EvalUsesRunningStats) {
  BatchNorm2d bn(1);
  bn.running_mean()[0] = 2.0f;
  bn.running_var()[0] = 4.0f;
  Tensor x({1, 1, 1, 2}, {2.0f, 4.0f});
  Tensor y = bn.forward(x, /*train=*/false);
  EXPECT_NEAR(y[0], 0.0f, 1e-4);
  EXPECT_NEAR(y[1], 1.0f, 1e-3);
}

TEST(BatchNorm2d, GradientsMatchFiniteDifference) {
  BatchNorm2d bn(2);
  Rng rng(11);
  Tensor x = Tensor::randn({3, 2, 2, 2}, rng);
  check_input_gradient(bn, x, 1e-2f, 4e-2f);
  check_param_gradients(bn, x, 1e-2f, 4e-2f);
}

/// One channel's Σa and Σa·b in BatchNorm2d's pinned order (DESIGN.md §9):
/// per image, lane p mod 4 takes position p below hw & ~3 in ascending p,
/// the tail adds into lane 0, and the running sum adds lanes 0-3, image
/// after image.
void bn_channel_sums_ref(const float* a, const float* b, int64_t stride,
                         int64_t images, int64_t hw, double& sa,
                         double& sab) {
  sa = sab = 0.0;
  const int64_t body = hw & ~int64_t{3};
  for (int64_t i = 0; i < images; ++i) {
    const float* ai = a + i * stride;
    const float* bi = b + i * stride;
    double la[4] = {}, lab[4] = {};
    for (int64_t p = 0; p < hw; ++p) {
      const int64_t lane = p < body ? p % 4 : 0;
      la[lane] += ai[p];
      lab[lane] += static_cast<double>(ai[p]) * bi[p];
    }
    for (int l = 0; l < 4; ++l) {
      sa += la[l];
      sab += lab[l];
    }
  }
}

/// Scalar BatchNorm2d: a training forward, its backward of `g`, then an eval
/// forward with the updated running stats, each element computed with the
/// layer's expression and rounding.
struct BnReference {
  Tensor out, grad_in, eval_out, gamma_grad, beta_grad, mean, var;
};

BnReference bn_reference(const Tensor& x, const Tensor& g, const Tensor& gamma,
                         const Tensor& beta, float eps, float momentum) {
  const int64_t b = x.dim(0), c = x.dim(1), hw = x.dim(2) * x.dim(3);
  const int64_t n = b * hw, stride = c * hw;
  BnReference r{Tensor(x.shape()), Tensor(x.shape()), Tensor(x.shape()),
                Tensor({c}),       Tensor({c}),       Tensor({c}),
                Tensor::ones({c})};
  Tensor xhat(x.shape());
  for (int64_t ch = 0; ch < c; ++ch) {
    double s, ss;
    bn_channel_sums_ref(x.data() + ch * hw, x.data() + ch * hw, stride, b, hw,
                        s, ss);
    const double mu = s / n;
    const double var = std::max(0.0, ss / n - mu * mu);
    const auto inv = static_cast<float>(1.0 / std::sqrt(var + eps));
    const auto muf = static_cast<float>(mu);
    for (int64_t i = 0; i < b; ++i) {
      for (int64_t p = 0; p < hw; ++p) {
        const int64_t at = i * stride + ch * hw + p;
        xhat[at] = (x[at] - muf) * inv;
        const float scaled = gamma[ch] * xhat[at];
        r.out[at] = scaled + beta[ch];
      }
    }
    const double unbiased = var * n / (n - 1);
    r.mean[ch] = (1.0f - momentum) * r.mean[ch] +
                 momentum * static_cast<float>(mu);
    r.var[ch] = (1.0f - momentum) * r.var[ch] +
                momentum * static_cast<float>(unbiased);

    double sg, sgx;
    bn_channel_sums_ref(g.data() + ch * hw, xhat.data() + ch * hw, stride, b,
                        hw, sg, sgx);
    r.gamma_grad[ch] = static_cast<float>(sgx);
    r.beta_grad[ch] = static_cast<float>(sg);
    const double mean_g = sg / n, mean_gx = sgx / n;
    const double scale = static_cast<double>(gamma[ch]) * inv;
    const float eval_inv = 1.0f / std::sqrt(r.var[ch] + eps);
    for (int64_t i = 0; i < b; ++i) {
      for (int64_t p = 0; p < hw; ++p) {
        const int64_t at = i * stride + ch * hw + p;
        const double gx = static_cast<double>(xhat[at]) * mean_gx;
        const double centered = (g[at] - mean_g) - gx;
        r.grad_in[at] = static_cast<float>(scale * centered);
        const float shifted = gamma[ch] * (x[at] - r.mean[ch]);
        const float normed = shifted * eval_inv;
        r.eval_out[at] = normed + beta[ch];
      }
    }
  }
  return r;
}

bool same_bytes(const Tensor& a, const Tensor& b) {
  return a.same_shape(b) &&
         std::memcmp(a.data(), b.data(),
                     static_cast<size_t>(a.numel()) * sizeof(float)) == 0;
}

TEST(BatchNorm2d, ByteEqualToPinnedOrderReference) {
  // Each channel holds pairs +H, -H with H up to 2^60 among values near 1:
  // the pairs cancel exactly, but which small values a partial sum absorbs
  // first depends on the order, so any other order moves the sums (and
  // beta's gradient) by whole units. Batches 1-32 cover full and partial
  // four-image chains, and planes 1x1-16x16 every hw mod 4 (hw < 4 has no
  // lane body at all).
  constexpr int64_t kChannels = 3;
  constexpr float kEps = 1e-5f, kMomentum = 0.1f;
  Rng rng(51);
  auto cancelling = [&rng](const Shape& shape) {
    Tensor t = Tensor::randn(shape, rng);
    const int64_t hw = shape[2] * shape[3];
    for (int64_t i = 0; i < t.numel(); ++i) {
      if (rng.uniform_int(8) != 0) continue;
      const auto image = static_cast<int64_t>(rng.uniform_int(
          static_cast<uint64_t>(shape[0])));
      const int64_t j = (image * kChannels + (i / hw) % kChannels) * hw +
                        static_cast<int64_t>(rng.uniform_int(
                            static_cast<uint64_t>(hw)));
      if (j == i) continue;
      const float big = std::ldexp(1.0f, 40 + static_cast<int>(
                                                 rng.uniform_int(21)));
      t[i] = big;
      t[j] = -big;
    }
    return t;
  };
  int cases = 0;
  for (int64_t b = 1; b <= 32; ++b) {
    for (int64_t h = 1; h <= 16; ++h) {
      for (int64_t w = 1; w <= 16; ++w) {
        if (b * h * w < 2) continue;  // training needs two values
        // Planes above 8 values run at every fourth batch size (by
        // b + h + w), so every batch and every plane size still appear.
        if ((b + h + w) % 4 != 0 && h * w > 8) continue;
        BatchNorm2d bn(kChannels, kEps, kMomentum);
        std::vector<Param*> params;
        bn.collect_params(params);
        params[0]->value = Tensor::randn({kChannels}, rng, 1.0f, 0.5f);
        params[1]->value = Tensor::randn({kChannels}, rng);
        const Tensor x = cancelling({b, kChannels, h, w});
        const Tensor g = cancelling({b, kChannels, h, w});
        const BnReference ref = bn_reference(x, g, params[0]->value,
                                             params[1]->value, kEps,
                                             kMomentum);
        const std::string at = "b=" + std::to_string(b) +
                               " h=" + std::to_string(h) +
                               " w=" + std::to_string(w);
        EXPECT_TRUE(same_bytes(bn.forward(x, /*train=*/true), ref.out)) << at;
        EXPECT_TRUE(same_bytes(bn.backward(g), ref.grad_in)) << at;
        EXPECT_TRUE(same_bytes(params[0]->grad, ref.gamma_grad)) << at;
        EXPECT_TRUE(same_bytes(params[1]->grad, ref.beta_grad)) << at;
        EXPECT_TRUE(same_bytes(bn.running_mean(), ref.mean)) << at;
        EXPECT_TRUE(same_bytes(bn.running_var(), ref.var)) << at;
        EXPECT_TRUE(same_bytes(bn.forward(x, /*train=*/false), ref.eval_out))
            << at;
        ++cases;
      }
    }
  }
  EXPECT_GT(cases, 1500);
}

TEST(MaxPool2d, ForwardPicksMaxima) {
  MaxPool2d pool(2, 2);
  Tensor x({1, 1, 2, 2}, {1, 5, 3, 2});
  Tensor y = pool.forward(x, false);
  EXPECT_EQ(y.numel(), 1);
  EXPECT_FLOAT_EQ(y[0], 5.0f);
}

TEST(MaxPool2d, BackwardRoutesToArgmax) {
  MaxPool2d pool(2, 2);
  Tensor x({1, 1, 2, 2}, {1, 5, 3, 2});
  pool.forward(x, true);
  Tensor g({1, 1, 1, 1}, {7.0f});
  Tensor gx = pool.backward(g);
  EXPECT_FLOAT_EQ(gx[0], 0.0f);
  EXPECT_FLOAT_EQ(gx[1], 7.0f);
  EXPECT_FLOAT_EQ(gx[2], 0.0f);
}

TEST(MaxPool2d, GradientsMatchFiniteDifference) {
  MaxPool2d pool(2, 2);
  Rng rng(12);
  Tensor x = Tensor::randn({2, 2, 4, 4}, rng);
  check_input_gradient(pool, x);
}

TEST(MaxPool2d, PaddedWindowGradients) {
  MaxPool2d pool(3, 1, 1);
  Rng rng(13);
  Tensor x = Tensor::randn({1, 1, 4, 4}, rng);
  check_input_gradient(pool, x);
}

// A window whose taps are all NaN (or all -inf) has no tap that beats an
// initial -inf. Its argmax must still be a real index: the first in-bounds
// tap. Plane 1 below is the degenerate one, so an index of -1 would make
// backward write into plane 0 (or before the buffer under ASan).
TEST(MaxPool2d, AllNanWindowRoutesToFirstTap) {
  const float nan = std::numeric_limits<float>::quiet_NaN();
  MaxPool2d pool(2, 2);
  Tensor x({1, 2, 2, 2}, {1, 5, 3, 2, nan, nan, nan, nan});
  Tensor y = pool.forward(x, true);
  EXPECT_FLOAT_EQ(y[0], 5.0f);
  EXPECT_TRUE(std::isnan(y[1]));
  Tensor gx = pool.backward(Tensor({1, 2, 1, 1}, {7.0f, 3.0f}));
  const std::vector<float> expected{0, 7, 0, 0, 3, 0, 0, 0};
  for (int64_t i = 0; i < gx.numel(); ++i) {
    EXPECT_FLOAT_EQ(gx[i], expected[static_cast<size_t>(i)]) << "at " << i;
  }
}

TEST(MaxPool2d, AllNegInfPaddedWindowRoutesToFirstTap) {
  const float ninf = -std::numeric_limits<float>::infinity();
  MaxPool2d pool(3, 1, 1);  // every window also holds padding taps
  Tensor x({1, 2, 2, 2}, {1, 5, 3, 2, ninf, ninf, ninf, ninf});
  Tensor y = pool.forward(x, true);
  for (int64_t i = 0; i < 4; ++i) EXPECT_FLOAT_EQ(y[i], 5.0f);
  for (int64_t i = 4; i < 8; ++i) EXPECT_EQ(y[i], ninf);
  Tensor gx = pool.backward(
      Tensor({1, 2, 2, 2}, {1, 1, 1, 1, 1, 2, 3, 4}));
  // Plane 0: all four windows pick the 5. Plane 1: all four pick (0, 0),
  // the first in-bounds tap of each window.
  const std::vector<float> expected{0, 4, 0, 0, 10, 0, 0, 0};
  for (int64_t i = 0; i < gx.numel(); ++i) {
    EXPECT_FLOAT_EQ(gx[i], expected[static_cast<size_t>(i)]) << "at " << i;
  }
}

// MaxPool2d scans interior windows without per-tap bounds checks. Pin it
// byte-for-byte — values and argmax routing — to the plain bounds-checked
// scan: the first in-bounds tap seeds each window, and only a strictly
// greater tap replaces it, so NaN never wins over a seeded value, -inf
// windows still route to a real tap, and ties keep the earliest tap.
struct PoolReference {
  std::vector<float> out;
  std::vector<int64_t> argmax;
};

PoolReference reference_max_pool(const Tensor& x, int64_t k, int64_t s,
                                  int64_t p) {
  const int64_t planes = x.dim(0) * x.dim(1), h = x.dim(2), w = x.dim(3);
  const int64_t oh = (h + 2 * p - k) / s + 1, ow = (w + 2 * p - k) / s + 1;
  PoolReference r;
  for (int64_t i = 0; i < planes; ++i) {
    const float* xi = x.data() + i * h * w;
    for (int64_t y = 0; y < oh; ++y) {
      for (int64_t xo = 0; xo < ow; ++xo) {
        float best = 0.0f;
        int64_t best_idx = -1;
        for (int64_t ky = 0; ky < k; ++ky) {
          for (int64_t kx = 0; kx < k; ++kx) {
            const int64_t iy = y * s - p + ky, ix = xo * s - p + kx;
            if (iy < 0 || iy >= h || ix < 0 || ix >= w) continue;
            if (best_idx < 0 || xi[iy * w + ix] > best) {
              best = xi[iy * w + ix];
              best_idx = iy * w + ix;
            }
          }
        }
        r.out.push_back(best);
        r.argmax.push_back(i * h * w + best_idx);
      }
    }
  }
  return r;
}

TEST(MaxPool2d, ByteEqualToBoundsCheckedScan) {
  const float nan = std::numeric_limits<float>::quiet_NaN();
  const float ninf = -std::numeric_limits<float>::infinity();
  struct Geometry {
    int64_t k, s, p;
  };
  const Geometry geometries[] = {
      {3, 1, 1}, {2, 2, 0}, {3, 2, 1}, {2, 1, 0}, {3, 3, 0}};
  const int64_t sizes[][2] = {{7, 7}, {8, 8}, {7, 6}, {6, 9}, {3, 3}};
  Rng rng(21);
  for (const Geometry& g : geometries) {
    for (const auto& hw : sizes) {
      // Few distinct values, so windows tie, plus NaN and -inf taps.
      Tensor x({2, 3, hw[0], hw[1]});
      for (int64_t i = 0; i < x.numel(); ++i) {
        const double r = rng.uniform(0.0, 1.0);
        x[i] = r < 0.1   ? nan
               : r < 0.2 ? ninf
                         : static_cast<float>(std::floor(rng.uniform(-2, 2)));
      }
      const PoolReference ref = reference_max_pool(x, g.k, g.s, g.p);
      const std::string tag = "k=" + std::to_string(g.k) +
                              " s=" + std::to_string(g.s) +
                              " p=" + std::to_string(g.p) +
                              " h=" + std::to_string(hw[0]) +
                              " w=" + std::to_string(hw[1]);
      MaxPool2d pool(g.k, g.s, g.p);
      const Tensor eval_out = pool.forward(x, /*train=*/false);
      const Tensor train_out = pool.forward(x, /*train=*/true);
      const size_t bytes = ref.out.size() * sizeof(float);
      ASSERT_EQ(eval_out.numel(), static_cast<int64_t>(ref.out.size())) << tag;
      EXPECT_EQ(0, std::memcmp(eval_out.data(), ref.out.data(), bytes)) << tag;
      EXPECT_EQ(0, std::memcmp(train_out.data(), ref.out.data(), bytes))
          << tag;
      // Powers of two that differ between neighbouring outputs, so each
      // grad_in element is an exact sum that names the outputs routed to it.
      Tensor grad_out(train_out.shape());
      std::vector<float> expected(static_cast<size_t>(x.numel()), 0.0f);
      for (int64_t j = 0; j < grad_out.numel(); ++j) {
        grad_out[j] = std::ldexp(1.0f, static_cast<int>(j % 16));
        expected[static_cast<size_t>(ref.argmax[static_cast<size_t>(j)])] +=
            grad_out[j];
      }
      const Tensor grad_in = pool.backward(grad_out);
      EXPECT_EQ(0, std::memcmp(grad_in.data(), expected.data(),
                               expected.size() * sizeof(float)))
          << tag;
    }
  }
}

// The forward pass scans kPoolLanes output columns at a time over -inf
// bordered phase planes and rescans the top/left clipped windows. Sweep the
// output widths around the block and vector sizes, every kernel/stride/
// padding combination the constructor accepts up to k = 5, and inputs full
// of NaN, -inf, -0, +0 and ties: values, eval-vs-train bytes and argmax
// routing must all match the bounds-checked scan.
TEST(MaxPool2d, VectorSweepByteEqualToScalarScan) {
  const float nan = std::numeric_limits<float>::quiet_NaN();
  const float ninf = -std::numeric_limits<float>::infinity();
  Rng rng(22);
  int cases = 0;
  for (int64_t k : {2, 3, 5}) {
    for (int64_t s = 1; s <= 3; ++s) {
      for (int64_t p = 0; p < k; ++p) {
        for (int64_t ow : {1, 3, 7, 8, 9, 15, 16, 17, 33}) {
          // The widest input with this output width, and three output rows.
          const int64_t w = (ow - 1) * s + k - 2 * p + s - 1;
          const int64_t h = 2 * s + k - 2 * p + s - 1;
          if (w < 1 || h < 1) continue;
          Tensor x({1, 2, h, w});
          for (int64_t i = 0; i < x.numel(); ++i) {
            const double r = rng.uniform(0.0, 1.0);
            x[i] = r < 0.08   ? nan
                   : r < 0.16 ? ninf
                   : r < 0.24 ? -0.0f
                   : r < 0.32 ? 0.0f
                              : static_cast<float>(
                                    std::floor(rng.uniform(-2, 2)));
          }
          const std::string tag =
              "k=" + std::to_string(k) + " s=" + std::to_string(s) +
              " p=" + std::to_string(p) + " h=" + std::to_string(h) +
              " w=" + std::to_string(w);
          const PoolReference ref = reference_max_pool(x, k, s, p);
          MaxPool2d pool(k, s, p);
          const Tensor eval_out = pool.forward(x, /*train=*/false);
          const Tensor train_out = pool.forward(x, /*train=*/true);
          ASSERT_EQ(train_out.dim(3), ow) << tag;
          ASSERT_EQ(eval_out.numel(), static_cast<int64_t>(ref.out.size()))
              << tag;
          const size_t bytes = ref.out.size() * sizeof(float);
          EXPECT_EQ(0, std::memcmp(eval_out.data(), train_out.data(), bytes))
              << tag;
          EXPECT_EQ(0, std::memcmp(train_out.data(), ref.out.data(), bytes))
              << tag;
          Tensor grad_out(train_out.shape());
          std::vector<float> expected(static_cast<size_t>(x.numel()), 0.0f);
          for (int64_t j = 0; j < grad_out.numel(); ++j) {
            grad_out[j] = std::ldexp(1.0f, static_cast<int>(j % 16));
            expected[static_cast<size_t>(
                ref.argmax[static_cast<size_t>(j)])] += grad_out[j];
          }
          const Tensor grad_in = pool.backward(grad_out);
          EXPECT_EQ(0, std::memcmp(grad_in.data(), expected.data(),
                                   expected.size() * sizeof(float)))
              << tag;
          ++cases;
        }
      }
    }
  }
  EXPECT_EQ(cases, 254);
}

/// Backward frees the training forward's cache: a second backward throws,
/// and a new training forward makes backward give the same bytes again.
void expect_backward_consumes_cache(Module& m, const Tensor& x) {
  Rng rng(42);
  const Tensor g = Tensor::randn(m.forward(x, /*train=*/true).shape(), rng);
  const Tensor first = m.backward(g);
  EXPECT_THROW(m.backward(g), Error);
  m.forward(x, /*train=*/false);  // an eval forward caches nothing
  EXPECT_THROW(m.backward(g), Error);
  m.forward(x, /*train=*/true);
  const Tensor again = m.backward(g);
  ASSERT_TRUE(again.same_shape(first));
  EXPECT_EQ(std::memcmp(again.data(), first.data(),
                        static_cast<size_t>(first.numel()) * sizeof(float)),
            0);
}

TEST(Conv2d, SecondBackwardNeedsATrainingForward) {
  Rng rng(43);
  Conv2d conv(4, 6, 3, 1, 1, rng);
  expect_backward_consumes_cache(conv, Tensor::randn({3, 4, 6, 6}, rng));
}

TEST(BatchNorm2d, SecondBackwardNeedsATrainingForward) {
  Rng rng(44);
  BatchNorm2d bn(4);
  expect_backward_consumes_cache(bn, Tensor::randn({3, 4, 5, 5}, rng));
}

TEST(ReLU, SecondBackwardNeedsATrainingForward) {
  Rng rng(45);
  ReLU relu;
  expect_backward_consumes_cache(relu, Tensor::randn({3, 4, 5, 5}, rng));
}

TEST(MaxPool2d, SecondBackwardNeedsATrainingForward) {
  Rng rng(46);
  MaxPool2d pool(3, 2, 1);
  expect_backward_consumes_cache(pool, Tensor::randn({3, 4, 7, 7}, rng));
}

TEST(Linear, SecondBackwardNeedsATrainingForward) {
  Rng rng(47);
  Linear lin(5, 3, rng);
  expect_backward_consumes_cache(lin, Tensor::randn({4, 5}, rng));
}

TEST(MaxPool2d, BackwardRejectsMisshapenGradOut) {
  MaxPool2d pool(2, 2);
  Rng rng(15);
  pool.forward(Tensor::randn({2, 3, 4, 4}, rng), true);
  // A larger grad_out would read past the cached argmax and scatter to
  // garbage indices; a smaller one would leave outputs unrouted.
  EXPECT_THROW(pool.backward(Tensor({2, 3, 3, 3})), Error);
  EXPECT_THROW(pool.backward(Tensor({2, 3, 2, 1})), Error);
  EXPECT_THROW(pool.backward(Tensor({2, 3, 4})), Error);
  EXPECT_NO_THROW(pool.backward(Tensor({2, 3, 2, 2})));
}

TEST(GlobalAvgPool, ForwardAndBackward) {
  GlobalAvgPool gap;
  Tensor x({1, 2, 2, 2}, {1, 2, 3, 4, 10, 10, 10, 10});
  Tensor y = gap.forward(x, true);
  EXPECT_EQ(y.shape(), (Shape{1, 2}));
  EXPECT_FLOAT_EQ(y[0], 2.5f);
  EXPECT_FLOAT_EQ(y[1], 10.0f);
  Tensor g({1, 2}, {4.0f, 8.0f});
  Tensor gx = gap.backward(g);
  EXPECT_FLOAT_EQ(gx[0], 1.0f);
  EXPECT_FLOAT_EQ(gx[4], 2.0f);
}

TEST(GlobalAvgPool, BackwardRejectsMisshapenGradOut) {
  GlobalAvgPool gap;
  Rng rng(17);
  gap.forward(Tensor::randn({2, 3, 2, 2}, rng), true);
  // grad_out.numel() * hw floats into a b*c*hw buffer would overrun it.
  EXPECT_THROW(gap.backward(Tensor({2, 4})), Error);
  EXPECT_THROW(gap.backward(Tensor({3, 3})), Error);
  EXPECT_THROW(gap.backward(Tensor({2, 3, 1, 1})), Error);
  EXPECT_NO_THROW(gap.backward(Tensor({2, 3})));
}

TEST(Flatten, RoundTripShapes) {
  Flatten flat;
  Rng rng(15);
  Tensor x = Tensor::randn({3, 2, 4, 4}, rng);
  Tensor y = flat.forward(x, true);
  EXPECT_EQ(y.shape(), (Shape{3, 32}));
  Tensor gx = flat.backward(y);
  EXPECT_EQ(gx.shape(), x.shape());
}

TEST(ReLU, ForwardAndGradient) {
  ReLU relu;
  Tensor x({4}, {-1, 0, 2, -3});
  Tensor y = relu.forward(x, true);
  EXPECT_FLOAT_EQ(y[0], 0.0f);
  EXPECT_FLOAT_EQ(y[2], 2.0f);
  Tensor g({4}, {1, 1, 1, 1});
  Tensor gx = relu.backward(g);
  EXPECT_FLOAT_EQ(gx[0], 0.0f);
  EXPECT_FLOAT_EQ(gx[2], 1.0f);
}

TEST(Init, KaimingUniformBounds) {
  Rng rng(17);
  Tensor w = kaiming_uniform({64, 100}, 100, rng);
  const float bound = std::sqrt(6.0f / 100.0f);
  EXPECT_LE(max_value(w), bound);
  EXPECT_GE(min_value(w), -bound);
  // Spread should cover a good part of the range.
  EXPECT_GT(max_value(w), bound * 0.8f);
}

TEST(MacCounter, CountsConvAndLinearForwardMultiplyAdds) {
  Rng rng(48);
  Conv2d conv(3, 4, 3, 1, 1, rng);
  Linear lin(5, 3, rng);
  MacCounter macs;
  conv.forward(Tensor::randn({2, 3, 5, 5}, rng), /*train=*/false);
  EXPECT_EQ(macs.count(), 2 * 4 * 5 * 5 * (3 * 3 * 3));
  {
    MacCounter inner;  // nested: counts into the innermost only
    lin.forward(Tensor::randn({4, 5}, rng), /*train=*/true);
    EXPECT_EQ(inner.count(), 4 * 5 * 3);
  }
  EXPECT_EQ(macs.count(), 2 * 4 * 5 * 5 * (3 * 3 * 3));
}

TEST(Module, ParameterCount) {
  Rng rng(20);
  Linear lin(10, 5, rng);
  EXPECT_EQ(lin.parameter_count(), 55);
}

}  // namespace
}  // namespace fca::nn
