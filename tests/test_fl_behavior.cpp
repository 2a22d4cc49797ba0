// Deeper behavioral tests of the FL algorithms: coefficient adaptation in
// KT-pFL, prototype semantics in FedProto, conductance convergence, and
// evaluation plumbing.
#include <gtest/gtest.h>

#include <cmath>

#include "analysis/conductance.hpp"
#include "analysis/tsne.hpp"
#include "core/fedclassavg.hpp"
#include "fl_fixtures.hpp"
#include "fl/fedproto.hpp"
#include "fl/ktpfl.hpp"
#include "tensor/ops.hpp"
#include "utils/error.hpp"

namespace fca {
namespace {

using test::tiny_experiment_config;

TEST(KTpFLBehavior, CoefficientsDriftAwayFromUniform) {
  // After a few rounds of non-iid training, the learned knowledge
  // coefficients should no longer be the uniform 1/K matrix: clients with
  // similar predictions reinforce each other.
  core::ExperimentConfig cfg = tiny_experiment_config();
  cfg.rounds = 3;
  cfg.partition = core::PartitionScheme::kSkewed;
  cfg.num_clients = 5;
  core::Experiment exp(cfg);
  fl::KTpFL strat(exp.public_data(), {});
  exp.execute(strat);
  const Tensor& c = strat.coefficients();
  const int64_t k = c.dim(0);
  const float uniform = 1.0f / static_cast<float>(k);
  float max_dev = 0.0f;
  for (int64_t i = 0; i < c.numel(); ++i) {
    max_dev = std::max(max_dev, std::abs(c[i] - uniform));
  }
  EXPECT_GT(max_dev, 0.003f);
}

TEST(KTpFLBehavior, DiagonalCoefficientsGrowUnderSkew) {
  // With strongly skewed clients, a client's own predictions explain its
  // behaviour best, so on average the self-coefficient should sit at or
  // above uniform.
  core::ExperimentConfig cfg = tiny_experiment_config();
  cfg.rounds = 4;
  cfg.partition = core::PartitionScheme::kSkewed;
  cfg.num_clients = 5;
  core::Experiment exp(cfg);
  fl::KTpFL strat(exp.public_data(), {});
  exp.execute(strat);
  const Tensor& c = strat.coefficients();
  const int64_t k = c.dim(0);
  double diag = 0.0;
  for (int64_t i = 0; i < k; ++i) diag += c[i * k + i];
  EXPECT_GE(diag / static_cast<double>(k), 1.0 / static_cast<double>(k) - 0.02);
}

TEST(FedProtoBehavior, GlobalPrototypesTrackClassFeatureMeans) {
  core::ExperimentConfig cfg = tiny_experiment_config();
  cfg.models = core::ModelScheme::kFedProtoFamily;
  cfg.rounds = 2;
  core::Experiment exp(cfg);
  fl::FedProto strat;
  const auto done = exp.execute(strat);
  // Recompute class means from the trained clients and compare with the
  // aggregated prototypes: they must be far closer to each other than to
  // zero (the prototypes are genuine feature statistics).
  const int64_t d = cfg.feature_dim;
  const int num_classes = 10;
  Tensor mean_feats({num_classes, d});
  Tensor counts({num_classes});
  for (int k = 0; k < done.run->num_clients(); ++k) {
    fl::Client& c = done.run->client(k);
    Tensor f = c.extract_features(c.train_data());
    for (int64_t i = 0; i < c.train_data().size(); ++i) {
      const int y = c.train_data().labels[static_cast<size_t>(i)];
      counts[y] += 1.0f;
      for (int64_t j = 0; j < d; ++j) {
        mean_feats[y * d + j] += f[i * d + j];
      }
    }
  }
  for (int cl = 0; cl < num_classes; ++cl) {
    for (int64_t j = 0; j < d; ++j) mean_feats[cl * d + j] /= counts[cl];
  }
  const float dist_to_mean = max_abs_diff(strat.prototypes(), mean_feats);
  const float mean_magnitude = std::sqrt(sum_squares(mean_feats));
  EXPECT_GT(mean_magnitude, 0.0f);
  // Prototypes were computed one epoch earlier than our recomputation, so
  // allow drift but demand the same order of magnitude.
  EXPECT_LT(dist_to_mean, mean_magnitude);
}

TEST(ConductanceBehavior, RiemannSumConvergesWithSteps) {
  core::ExperimentConfig cfg = tiny_experiment_config();
  core::Experiment exp(cfg);
  auto model = exp.build_model(3);  // MiniAlexNet: BN-free, smooth-ish path
  Rng rng(3);
  Tensor image = Tensor::randn({1, 8, 8}, rng);
  Tensor coarse = analysis::layer_conductance(*model, image, 0, 4);
  Tensor fine = analysis::layer_conductance(*model, image, 0, 64);
  Tensor finer = analysis::layer_conductance(*model, image, 0, 128);
  // Successive refinements approach each other.
  EXPECT_LT(max_abs_diff(fine, finer), max_abs_diff(coarse, finer) + 1e-4f);
}

TEST(ConductanceBehavior, ZeroImageHasZeroConductance) {
  core::ExperimentConfig cfg = tiny_experiment_config();
  core::Experiment exp(cfg);
  auto model = exp.build_model(3);
  Tensor zero({1, 8, 8});
  Tensor cond = analysis::layer_conductance(*model, zero, 0, 8);
  // Path from baseline 0 to input 0 is a point: conductance identically 0.
  EXPECT_FLOAT_EQ(sum_squares(cond), 0.0f);
}

TEST(EvaluationPlumbing, EvaluateOnForeignDataset) {
  core::Experiment exp(tiny_experiment_config());
  auto clients = exp.build_clients();
  // Any client can be evaluated on the full (global) test set; the result
  // is a valid probability and generally differs from the local one.
  const float local = clients[0]->evaluate();
  const float global = clients[0]->evaluate_on(exp.test_data());
  EXPECT_GE(global, 0.0f);
  EXPECT_LE(global, 1.0f);
  (void)local;
}

TEST(EvaluationPlumbing, CurveBytesMatchTotals) {
  core::ExperimentConfig cfg = tiny_experiment_config();
  cfg.rounds = 3;
  core::Experiment exp(cfg);
  core::FedClassAvg strat(exp.fedclassavg_config());
  const auto done = exp.execute(strat);
  uint64_t from_curve = 0;
  for (const auto& m : done.result.curve) from_curve += m.round_bytes;
  // Curve rounds cover every round here (eval_every == 1); the fabric total
  // additionally contains the initialize() synchronization traffic, so it
  // must strictly exceed the per-round sum by that fixed amount.
  EXPECT_GT(done.result.total_traffic.payload_bytes, from_curve);
  const uint64_t init_bytes =
      done.result.total_traffic.payload_bytes - from_curve;
  // Init = every client uploads + receives one classifier: bounded by a few
  // KB per client here.
  EXPECT_LT(init_bytes, 4096u * 2u *
                            static_cast<uint64_t>(done.run->num_clients()));
}

TEST(EvaluationPlumbing, PerClientAccuraciesBackTheAggregates) {
  core::ExperimentConfig cfg = tiny_experiment_config();
  cfg.rounds = 1;
  core::Experiment exp(cfg);
  core::FedClassAvg strat(exp.fedclassavg_config());
  const auto done = exp.execute(strat);
  ASSERT_EQ(done.result.curve.size(), 1u);
  const auto& m = done.result.curve.front();
  ASSERT_EQ(static_cast<int>(m.client_accuracies.size()), cfg.num_clients);
  EXPECT_NEAR(fl::mean_of(m.client_accuracies), m.mean_accuracy, 1e-12);
  EXPECT_NEAR(fl::std_of(m.client_accuracies), m.std_accuracy, 1e-12);
}

TEST(TsneBehavior, PerplexityBoundsValidated) {
  Rng rng(5);
  Tensor x = Tensor::randn({10, 3}, rng);
  Tensor d2 = analysis::pairwise_squared_distances(x);
  EXPECT_THROW(analysis::joint_probabilities(d2, 0.5), Error);
  EXPECT_THROW(analysis::joint_probabilities(d2, 10.0), Error);
  EXPECT_NO_THROW(analysis::joint_probabilities(d2, 5.0));
}

TEST(TsneBehavior, TightClustersGetHigherAffinity) {
  // Two tight pairs far apart: P mass concentrates within pairs.
  Tensor x({4, 1}, {0.0f, 0.01f, 100.0f, 100.01f});
  Tensor p = analysis::joint_probabilities(
      analysis::pairwise_squared_distances(x), 1.5);
  EXPECT_GT((p.at({0, 1})), (p.at({0, 2})));
  EXPECT_GT((p.at({2, 3})), (p.at({2, 0})));
}

}  // namespace
}  // namespace fca
