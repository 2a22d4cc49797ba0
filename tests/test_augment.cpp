#include "data/augment.hpp"

#include <gtest/gtest.h>

#include "tensor/ops.hpp"
#include "test_helpers.hpp"

namespace fca::data {
namespace {

Tensor test_batch(Rng& rng) { return Tensor::randn({4, 2, 8, 8}, rng); }

TEST(Augmentor, PreservesShape) {
  Rng rng(1);
  Tensor x = test_batch(rng);
  Augmentor aug(AugmentSpec{});
  Tensor y = aug.augment(x, rng);
  EXPECT_EQ(y.shape(), x.shape());
}

TEST(Augmentor, DeterministicGivenRngState) {
  Rng rng(1);
  Tensor x = test_batch(rng);
  Augmentor aug(AugmentSpec{});
  Rng a(5), b(5);
  EXPECT_TRUE(allclose(aug.augment(x, a), aug.augment(x, b), 0.0f, 0.0f));
}

TEST(Augmentor, TwoViewsDiffer) {
  Rng rng(2);
  Tensor x = test_batch(rng);
  Augmentor aug(AugmentSpec{});
  Rng view_rng(9);
  auto [v1, v2] = aug.two_views(x, view_rng);
  EXPECT_GT(max_abs_diff(v1, v2), 0.01f);
}

TEST(Augmentor, DisabledSpecIsIdentity) {
  AugmentSpec spec;
  spec.shift_px = 0;
  spec.horizontal_flip = false;
  spec.noise_std = 0.0f;
  spec.brightness = 0.0f;
  spec.cutout_size = 0;
  Rng rng(3);
  Tensor x = test_batch(rng);
  Augmentor aug(spec);
  EXPECT_TRUE(allclose(aug.augment(x, rng), x, 0.0f, 0.0f));
}

TEST(Augmentor, CutoutZeroesASquare) {
  AugmentSpec spec;
  spec.shift_px = 0;
  spec.horizontal_flip = false;
  spec.noise_std = 0.0f;
  spec.brightness = 0.0f;
  spec.cutout_size = 3;
  spec.cutout_prob = 1.0f;
  Augmentor aug(spec);
  Tensor x = Tensor::ones({1, 1, 8, 8});
  Rng rng(4);
  Tensor y = aug.augment(x, rng);
  int64_t zeros = 0;
  for (int64_t i = 0; i < y.numel(); ++i) {
    if (y[i] == 0.0f) ++zeros;
  }
  EXPECT_EQ(zeros, 9);
}

TEST(Augmentor, BrightnessShiftsAllPixelsEqually) {
  AugmentSpec spec;
  spec.shift_px = 0;
  spec.horizontal_flip = false;
  spec.noise_std = 0.0f;
  spec.brightness = 0.5f;
  spec.cutout_size = 0;
  Augmentor aug(spec);
  Tensor x({1, 1, 2, 2});
  Rng rng(5);
  Tensor y = aug.augment(x, rng);
  // All pixels share one offset within [-0.5, 0.5].
  for (int64_t i = 1; i < 4; ++i) EXPECT_FLOAT_EQ(y[i], y[0]);
  EXPECT_LE(std::abs(y[0]), 0.5f);
}

TEST(Augmentor, FlipMirrorsColumns) {
  AugmentSpec spec;
  spec.shift_px = 0;
  spec.horizontal_flip = true;
  spec.noise_std = 0.0f;
  spec.brightness = 0.0f;
  spec.cutout_size = 0;
  Augmentor aug(spec);
  Tensor x({1, 1, 1, 4}, {1, 2, 3, 4});
  // Find an rng state that flips: try several until one flips.
  bool saw_flip = false, saw_identity = false;
  for (uint64_t seed = 0; seed < 32 && !(saw_flip && saw_identity); ++seed) {
    Rng rng(seed);
    Tensor y = aug.augment(x, rng);
    if (y[0] == 4.0f && y[3] == 1.0f) saw_flip = true;
    if (y[0] == 1.0f && y[3] == 4.0f) saw_identity = true;
  }
  EXPECT_TRUE(saw_flip);
  EXPECT_TRUE(saw_identity);
}

TEST(Augmentor, ShiftMovesContentWithZeroPad) {
  AugmentSpec spec;
  spec.shift_px = 2;
  spec.horizontal_flip = false;
  spec.noise_std = 0.0f;
  spec.brightness = 0.0f;
  spec.cutout_size = 0;
  Augmentor aug(spec);
  Tensor x = Tensor::ones({1, 1, 6, 6});
  // Over many draws, some outputs must contain zero-padding rows/cols.
  bool saw_padding = false;
  for (uint64_t seed = 0; seed < 16 && !saw_padding; ++seed) {
    Rng rng(seed);
    Tensor y = aug.augment(x, rng);
    if (test::min_value(y) == 0.0f) saw_padding = true;
  }
  EXPECT_TRUE(saw_padding);
}

}  // namespace
}  // namespace fca::data
