#include "models/factory.hpp"

#include <gtest/gtest.h>

#include "nn/loss.hpp"
#include "tensor/ops.hpp"
#include "utils/error.hpp"

namespace fca::models {
namespace {

ModelConfig tiny_config(Arch arch) {
  ModelConfig mc;
  mc.arch = arch;
  mc.in_channels = 1;
  mc.image_size = 8;
  mc.feature_dim = 16;
  mc.num_classes = 4;
  mc.width = 8;
  return mc;
}

class ArchTest : public ::testing::TestWithParam<Arch> {};

TEST_P(ArchTest, BuildsAndProducesCorrectShapes) {
  Rng rng(1);
  auto model = build_model(tiny_config(GetParam()), rng);
  Tensor x = Tensor::randn({3, 1, 8, 8}, rng);
  Tensor feats = model->features(x, false);
  EXPECT_EQ(feats.shape(), (Shape{3, 16}));
  Tensor logits = model->forward(x, false);
  EXPECT_EQ(logits.shape(), (Shape{3, 4}));
  EXPECT_GT(model->parameter_count(), 0);
}

TEST_P(ArchTest, BackwardProducesNonzeroGradients) {
  Rng rng(2);
  auto model = build_model(tiny_config(GetParam()), rng);
  Tensor x = Tensor::randn({4, 1, 8, 8}, rng);
  Tensor logits = model->forward(x, /*train=*/true);
  nn::LossResult loss = nn::softmax_cross_entropy(logits, {0, 1, 2, 3});
  for (nn::Param* p : model->parameters()) p->zero_grad();
  model->backward(loss.grad);
  // Every layer must receive some gradient signal.
  int64_t nonzero_params = 0;
  for (nn::Param* p : model->parameters()) {
    if (sum_squares(p->grad) > 0.0f) ++nonzero_params;
  }
  const auto total = static_cast<int64_t>(model->parameters().size());
  EXPECT_GT(nonzero_params, total * 3 / 4)
      << "only " << nonzero_params << "/" << total
      << " params got gradient";
}

TEST_P(ArchTest, TrainingStepReducesLoss) {
  Rng rng(3);
  auto model = build_model(tiny_config(GetParam()), rng);
  Tensor x = Tensor::randn({8, 1, 8, 8}, rng);
  const std::vector<int> y{0, 1, 2, 3, 0, 1, 2, 3};
  // A few SGD steps on one batch must reduce the loss (overfit check).
  float first = 0.0f, last = 0.0f;
  for (int step = 0; step < 12; ++step) {
    Tensor logits = model->forward(x, true);
    nn::LossResult loss = nn::softmax_cross_entropy(logits, y);
    if (step == 0) first = loss.value;
    last = loss.value;
    for (nn::Param* p : model->parameters()) p->zero_grad();
    model->backward(loss.grad);
    for (nn::Param* p : model->parameters()) {
      axpy_(p->value, -0.05f, p->grad);
    }
  }
  EXPECT_LT(last, first * 0.9f)
      << arch_name(GetParam()) << ": " << first << " -> " << last;
}

TEST_P(ArchTest, DeterministicInitGivenSeed) {
  Rng a(7), b(7);
  auto m1 = build_model(tiny_config(GetParam()), a);
  auto m2 = build_model(tiny_config(GetParam()), b);
  const auto p1 = m1->parameters();
  const auto p2 = m2->parameters();
  ASSERT_EQ(p1.size(), p2.size());
  for (size_t i = 0; i < p1.size(); ++i) {
    EXPECT_TRUE(allclose(p1[i]->value, p2[i]->value, 0.0f, 0.0f));
  }
}

INSTANTIATE_TEST_SUITE_P(AllArchitectures, ArchTest,
                         ::testing::Values(Arch::kMiniResNet,
                                           Arch::kMiniShuffleNet,
                                           Arch::kMiniGoogLeNet,
                                           Arch::kMiniAlexNet, Arch::kCnn2),
                         [](const auto& info) {
                           return arch_name(info.param);
                         });

TEST(Factory, HeterogeneousAssignmentIsRoundRobin) {
  EXPECT_EQ(heterogeneous_arch_for_client(0), Arch::kMiniResNet);
  EXPECT_EQ(heterogeneous_arch_for_client(1), Arch::kMiniShuffleNet);
  EXPECT_EQ(heterogeneous_arch_for_client(2), Arch::kMiniGoogLeNet);
  EXPECT_EQ(heterogeneous_arch_for_client(3), Arch::kMiniAlexNet);
  EXPECT_EQ(heterogeneous_arch_for_client(4), Arch::kMiniResNet);
  EXPECT_EQ(heterogeneous_arch_for_client(19), Arch::kMiniAlexNet);
}

TEST(Factory, ClassifiersShareShapeAcrossArchitectures) {
  // The FedClassAvg requirement: every client's classifier has identical
  // dimensions regardless of backbone.
  Rng rng(4);
  for (Arch arch : {Arch::kMiniResNet, Arch::kMiniShuffleNet,
                    Arch::kMiniGoogLeNet, Arch::kMiniAlexNet}) {
    auto model = build_model(tiny_config(arch), rng);
    EXPECT_EQ(model->classifier().weight().value.shape(), (Shape{4, 16}));
    EXPECT_EQ(model->classifier().bias().value.shape(), (Shape{4}));
  }
}

TEST(Factory, ExtractorsDifferAcrossArchitectures) {
  Rng rng(5);
  auto resnet = build_model(tiny_config(Arch::kMiniResNet), rng);
  auto alexnet = build_model(tiny_config(Arch::kMiniAlexNet), rng);
  EXPECT_NE(resnet->parameter_count(), alexnet->parameter_count());
  EXPECT_NE(resnet->arch_name(), alexnet->arch_name());
}

TEST(Factory, Cnn2VariantsChangeWidth) {
  Rng rng(6);
  ModelConfig c0 = tiny_config(Arch::kCnn2);
  ModelConfig c1 = tiny_config(Arch::kCnn2);
  c1.variant = 1;
  auto m0 = build_model(c0, rng);
  auto m1 = build_model(c1, rng);
  EXPECT_NE(m0->parameter_count(), m1->parameter_count());
}

TEST(Factory, ResNetVariantChangesStride) {
  Rng rng(7);
  ModelConfig c0 = tiny_config(Arch::kMiniResNet);
  ModelConfig c1 = tiny_config(Arch::kMiniResNet);
  c1.variant = 1;  // stage-2 stride 1 instead of 2
  auto m0 = build_model(c0, rng);
  auto m1 = build_model(c1, rng);
  // Same parameter count (strides don't change weights), same output shape
  // thanks to global average pooling.
  EXPECT_EQ(m0->parameter_count(), m1->parameter_count());
  Tensor x = Tensor::randn({1, 1, 8, 8}, rng);
  EXPECT_EQ(m0->features(x, false).shape(), m1->features(x, false).shape());
}

TEST(Factory, RejectsInvalidConfig) {
  Rng rng(8);
  ModelConfig bad = tiny_config(Arch::kMiniResNet);
  bad.num_classes = 1;
  EXPECT_THROW(build_model(bad, rng), Error);
  ModelConfig bad2 = tiny_config(Arch::kMiniAlexNet);
  bad2.image_size = 10;  // not divisible by 4
  EXPECT_THROW(build_model(bad2, rng), Error);
}

TEST(SplitModel, ParameterPartition) {
  Rng rng(9);
  auto model = build_model(tiny_config(Arch::kMiniAlexNet), rng);
  const auto all = model->parameters();
  const auto ext = model->extractor_parameters();
  const auto clf = model->classifier_parameters();
  EXPECT_EQ(all.size(), ext.size() + clf.size());
  EXPECT_EQ(clf.size(), 2u);  // weight + bias
  // Classifier params are last, in order.
  EXPECT_EQ(all[all.size() - 2], clf[0]);
  EXPECT_EQ(all[all.size() - 1], clf[1]);
}

TEST(SplitModel, BatchNormBuffersExposed) {
  Rng rng(10);
  auto model = build_model(tiny_config(Arch::kMiniResNet), rng);
  const auto bufs = model->buffers();
  EXPECT_GT(bufs.size(), 0u);
  for (const auto& b : bufs) {
    EXPECT_NE(b.name.find("extractor."), std::string::npos);
  }
}

TEST(SplitModel, EvalModeIsDeterministic) {
  Rng rng(11);
  auto model = build_model(tiny_config(Arch::kMiniGoogLeNet), rng);
  Tensor x = Tensor::randn({2, 1, 8, 8}, rng);
  Tensor a = model->forward(x, false);
  Tensor b = model->forward(x, false);
  EXPECT_TRUE(allclose(a, b, 0.0f, 0.0f));
}

}  // namespace
}  // namespace fca::models
