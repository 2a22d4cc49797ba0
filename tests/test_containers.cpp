#include "nn/container.hpp"

#include <gtest/gtest.h>

#include "nn/activation.hpp"
#include "nn/conv.hpp"
#include "nn/linear.hpp"
#include "nn/norm.hpp"
#include "tensor/ops.hpp"
#include "test_helpers.hpp"
#include "utils/error.hpp"

namespace fca::nn {
namespace {

using test::check_input_gradient;
using test::check_param_gradients;

TEST(Sequential, ChainsChildren) {
  Rng rng(1);
  Sequential seq;
  seq.add(std::make_unique<Linear>(4, 8, rng));
  seq.add(std::make_unique<ReLU>());
  seq.add(std::make_unique<Linear>(8, 2, rng));
  Tensor x = Tensor::randn({3, 4}, rng);
  Tensor y = seq.forward(x, false);
  EXPECT_EQ(y.shape(), (Shape{3, 2}));
  EXPECT_EQ(seq.size(), 3u);
  EXPECT_EQ(seq.parameters().size(), 4u);
}

TEST(Sequential, GradientsMatchFiniteDifference) {
  Rng rng(2);
  Sequential seq;
  seq.add(std::make_unique<Linear>(3, 5, rng));
  seq.add(std::make_unique<ReLU>());
  seq.add(std::make_unique<Linear>(5, 2, rng));
  Tensor x = Tensor::randn({4, 3}, rng);
  check_input_gradient(seq, x);
  check_param_gradients(seq, x);
}

TEST(Sequential, EmptyIsIdentity) {
  Sequential seq;
  Rng rng(3);
  Tensor x = Tensor::randn({2, 3}, rng);
  EXPECT_TRUE(allclose(seq.forward(x, true), x));
  EXPECT_TRUE(allclose(seq.backward(x), x));
}

TEST(Residual, IdentityShortcutAddsInput) {
  Rng rng(4);
  // Body: conv preserving shape.
  auto body = std::make_unique<Conv2d>(2, 2, 3, 1, 1, rng, false);
  body->weight().value.fill(0.0f);  // body output = 0 -> residual = input
  Residual res(std::move(body), nullptr);
  Tensor x = Tensor::randn({1, 2, 4, 4}, rng);
  EXPECT_TRUE(allclose(res.forward(x, false), x));
}

TEST(Residual, GradientsMatchFiniteDifference) {
  Rng rng(5);
  auto body = std::make_unique<Conv2d>(2, 2, 3, 1, 1, rng);
  Residual res(std::move(body), nullptr);
  Tensor x = Tensor::randn({1, 2, 4, 4}, rng);
  check_input_gradient(res, x);
  check_param_gradients(res, x);
}

TEST(Residual, ProjectionShortcutGradients) {
  Rng rng(6);
  auto body = std::make_unique<Conv2d>(2, 4, 3, 2, 1, rng);
  auto shortcut = std::make_unique<Conv2d>(2, 4, 1, 2, 0, rng);
  Residual res(std::move(body), std::move(shortcut));
  Tensor x = Tensor::randn({1, 2, 4, 4}, rng);
  Tensor y = res.forward(x, true);
  EXPECT_EQ(y.shape(), (Shape{1, 4, 2, 2}));
  check_input_gradient(res, x);
}

TEST(Residual, MismatchedBranchShapesThrow) {
  Rng rng(7);
  auto body = std::make_unique<Conv2d>(2, 4, 3, 1, 1, rng);  // changes C
  Residual res(std::move(body), nullptr);
  EXPECT_THROW(res.forward(Tensor({1, 2, 4, 4}), false), Error);
}

TEST(BranchConcat, ConcatenatesChannels) {
  Rng rng(8);
  std::vector<ModulePtr> branches;
  branches.push_back(std::make_unique<Conv2d>(2, 3, 1, 1, 0, rng));
  branches.push_back(std::make_unique<Conv2d>(2, 5, 1, 1, 0, rng));
  BranchConcat cat(std::move(branches));
  Tensor x = Tensor::randn({2, 2, 3, 3}, rng);
  Tensor y = cat.forward(x, false);
  EXPECT_EQ(y.shape(), (Shape{2, 8, 3, 3}));
}

TEST(BranchConcat, GradientsMatchFiniteDifference) {
  Rng rng(9);
  std::vector<ModulePtr> branches;
  branches.push_back(std::make_unique<Conv2d>(2, 2, 1, 1, 0, rng));
  branches.push_back(std::make_unique<Conv2d>(2, 3, 3, 1, 1, rng));
  BranchConcat cat(std::move(branches));
  Tensor x = Tensor::randn({1, 2, 3, 3}, rng);
  check_input_gradient(cat, x);
  check_param_gradients(cat, x);
}

TEST(ChannelShuffle, PermutesAsGroupTranspose) {
  ChannelShuffle shuffle(2);
  // 4 channels, groups=2: order (0,1,2,3) -> (0,2,1,3).
  Tensor x({1, 4, 1, 1}, {10, 11, 12, 13});
  Tensor y = shuffle.forward(x, false);
  EXPECT_FLOAT_EQ(y[0], 10.0f);
  EXPECT_FLOAT_EQ(y[1], 12.0f);
  EXPECT_FLOAT_EQ(y[2], 11.0f);
  EXPECT_FLOAT_EQ(y[3], 13.0f);
}

TEST(ChannelShuffle, BackwardIsInversePermutation) {
  ChannelShuffle shuffle(3);
  Rng rng(10);
  Tensor x = Tensor::randn({2, 6, 2, 2}, rng);
  Tensor y = shuffle.forward(x, true);
  // backward(forward(x)) with grad = y must reproduce x's layout relation:
  // applying backward to y recovers x.
  Tensor recovered = shuffle.backward(y);
  EXPECT_TRUE(allclose(recovered, x));
}

TEST(ChannelShuffle, RejectsIndivisibleChannels) {
  ChannelShuffle shuffle(3);
  EXPECT_THROW(shuffle.forward(Tensor({1, 4, 2, 2}), false), Error);
}

TEST(ChannelShuffle, BackwardRejectsMisshapenGradOut) {
  ChannelShuffle shuffle(3);
  Rng rng(11);
  EXPECT_THROW(shuffle.backward(Tensor({1, 6, 2, 2})), Error)
      << "backward without a training forward";
  shuffle.forward(Tensor::randn({2, 6, 2, 2}, rng), true);
  // 4 channels are not divisible by 3 groups: the inverse permutation would
  // leave channels of the uninitialized result unwritten.
  EXPECT_THROW(shuffle.backward(Tensor({2, 4, 2, 2})), Error);
  EXPECT_THROW(shuffle.backward(Tensor({2, 6, 2, 3})), Error);
  EXPECT_THROW(shuffle.backward(Tensor({1, 6, 2, 2})), Error);
  EXPECT_NO_THROW(shuffle.backward(Tensor({2, 6, 2, 2})));
}

TEST(ChannelHelpers, SliceAndConcatRoundTrip) {
  Rng rng(11);
  Tensor x = Tensor::randn({2, 6, 3, 3}, rng);
  Tensor a = slice_channels(x, 0, 2);
  Tensor b = slice_channels(x, 2, 6);
  EXPECT_EQ(a.shape(), (Shape{2, 2, 3, 3}));
  EXPECT_EQ(b.shape(), (Shape{2, 4, 3, 3}));
  Tensor rebuilt = concat_channels({a, b});
  EXPECT_TRUE(allclose(rebuilt, x));
}

TEST(ChannelHelpers, SliceBoundsChecked) {
  Tensor x({1, 4, 2, 2});
  EXPECT_THROW(slice_channels(x, 2, 5), Error);
  EXPECT_THROW(slice_channels(x, 3, 2), Error);
}

TEST(ChannelHelpers, ConcatRejectsSpatialMismatch) {
  Tensor a({1, 2, 3, 3});
  Tensor b({1, 2, 4, 4});
  EXPECT_THROW(concat_channels({a, b}), Error);
}

TEST(SequentialWithNorm, DeepStackGradients) {
  Rng rng(12);
  Sequential seq;
  seq.add(std::make_unique<Conv2d>(1, 2, 3, 1, 1, rng, false));
  seq.add(std::make_unique<BatchNorm2d>(2));
  seq.add(std::make_unique<ReLU>());
  seq.add(std::make_unique<Conv2d>(2, 2, 3, 2, 1, rng, false));
  Tensor x = Tensor::randn({3, 1, 4, 4}, rng);
  check_input_gradient(seq, x, 1e-2f, 5e-2f);
}

TEST(Sequential, CollectBuffersRecurses) {
  Rng rng(13);
  Sequential seq;
  seq.add(std::make_unique<BatchNorm2d>(2));
  seq.add(std::make_unique<BatchNorm2d>(3));
  std::vector<BufferRef> bufs;
  seq.collect_buffers(bufs, "m.");
  ASSERT_EQ(bufs.size(), 4u);
  EXPECT_EQ(bufs[0].name, "m.0.running_mean");
  EXPECT_EQ(bufs[3].name, "m.1.running_var");
}

}  // namespace
}  // namespace fca::nn
