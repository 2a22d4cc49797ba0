#include "core/fedclassavg.hpp"

#include <gtest/gtest.h>

#include "core/config.hpp"
#include "data/loader.hpp"
#include "fl_fixtures.hpp"
#include "models/serialize.hpp"
#include "tensor/ops.hpp"
#include "utils/error.hpp"

namespace fca::core {
namespace {

using test::tiny_experiment_config;

TEST(Config, PaperPresetsMatchTable1) {
  const HyperPreset cifar = paper_preset("synth-cifar10");
  EXPECT_FLOAT_EQ(cifar.lr, 1e-4f);
  EXPECT_EQ(cifar.batch_size, 64);
  EXPECT_FLOAT_EQ(cifar.rho, 0.1f);
  EXPECT_EQ(cifar.local_epochs, 1);
  const HyperPreset fmnist = paper_preset("synth-fmnist");
  EXPECT_FLOAT_EQ(fmnist.rho, 0.4662f);
  const HyperPreset emnist = paper_preset("synth-emnist");
  EXPECT_FLOAT_EQ(emnist.lr, 5e-4f);
  EXPECT_THROW(paper_preset("unknown"), Error);
}

TEST(Config, ScaledPresetKeepsRhoAndEpochs) {
  const HyperPreset p = scaled_preset("synth-fmnist");
  EXPECT_FLOAT_EQ(p.rho, 0.4662f);
  EXPECT_EQ(p.local_epochs, 1);
  EXPECT_GT(p.lr, paper_preset("synth-fmnist").lr);
}

TEST(FedClassAvg, NameReflectsAblationFlags) {
  EXPECT_EQ(FedClassAvg(FedClassAvgConfig{}).name(), "FedClassAvg");
  FedClassAvgConfig ca;
  ca.use_contrastive = false;
  ca.use_proximal = false;
  EXPECT_EQ(FedClassAvg(ca).name(), "FedClassAvg(CA)");
  FedClassAvgConfig pr;
  pr.use_contrastive = false;
  EXPECT_EQ(FedClassAvg(pr).name(), "FedClassAvg(CA+PR)");
  FedClassAvgConfig cl;
  cl.use_proximal = false;
  EXPECT_EQ(FedClassAvg(cl).name(), "FedClassAvg(CA+CL)");
  FedClassAvgConfig w;
  w.share_all_weights = true;
  EXPECT_EQ(FedClassAvg(w).name(), "FedClassAvg+weight");
}

TEST(FedClassAvg, InitializeUnifiesClassifiersAcrossHeterogeneousModels) {
  core::Experiment exp(tiny_experiment_config());
  auto run = test::resident_run(exp);
  FedClassAvg strat{FedClassAvgConfig{}};
  strat.initialize(*run);
  const Tensor& w0 = run->client(0).model().classifier().weight().value;
  for (int k = 1; k < run->num_clients(); ++k) {
    const Tensor& wk = run->client(k).model().classifier().weight().value;
    EXPECT_TRUE(allclose(w0, wk, 0.0f, 0.0f)) << "client " << k;
    // Extractors must stay personal (heterogeneous shapes anyway).
    EXPECT_NE(run->client(0).model().arch_name(),
              run->client(k).model().arch_name());
  }
  EXPECT_EQ(run->network().pending_messages(), 0u);
}

TEST(FedClassAvg, RoundEndsWithAveragedClassifierBroadcastNextRound) {
  core::Experiment exp(tiny_experiment_config());
  auto run = test::resident_run(exp);
  FedClassAvg strat{FedClassAvgConfig{}};
  strat.initialize(*run);
  strat.execute_round(*run, 1, {0, 1, 2, 3});
  // The global classifier equals the data-weighted mean of the uploaded
  // client classifiers.
  const auto weights = run->data_weights({0, 1, 2, 3});
  Tensor expected(run->client(0).model().classifier().weight().value.shape());
  for (int k = 0; k < 4; ++k) {
    axpy_(expected, static_cast<float>(weights[static_cast<size_t>(k)]),
          run->client(k).model().classifier().weight().value);
  }
  const auto global_clf = strat.global_classifier();
  EXPECT_TRUE(allclose(global_clf[0], expected, 1e-5f));
}

TEST(FedClassAvg, TrafficIsClassifierSizedOnly) {
  core::Experiment exp(tiny_experiment_config());
  FedClassAvg strat{FedClassAvgConfig{}};
  const auto done = exp.execute(strat);
  // Upload per client-round should be on the order of the classifier
  // payload (W [10 x 16] + b [10] plus framing), i.e. well under 2 KB here.
  const size_t clf_bytes = models::serialized_params_size(
      done.run->client(0).model().classifier_parameters());
  EXPECT_LT(done.result.client_upload_bytes_per_round,
            static_cast<double>(clf_bytes) * 3.0);
  EXPECT_GT(done.result.client_upload_bytes_per_round, 0.0);
}

TEST(FedClassAvg, TrainEpochReducesObjective) {
  core::Experiment exp(tiny_experiment_config());
  auto clients = exp.build_clients();
  FedClassAvg strat(exp.fedclassavg_config());
  fl::Client& c = *clients[0];
  const Tensor gw = c.model().classifier().weight().value.clone();
  const Tensor gb = c.model().classifier().bias().value.clone();
  const float first = strat.train_epoch(c, gw, gb);
  float last = first;
  for (int e = 0; e < 4; ++e) last = strat.train_epoch(c, gw, gb);
  EXPECT_LT(last, first);
}

TEST(FedClassAvg, TrainEpochLeavesNoActivationCache) {
  // Every local step's backward frees what its forward cached, so after an
  // epoch the extractor holds no activations and cannot backprop again.
  core::Experiment exp(tiny_experiment_config());
  auto clients = exp.build_clients();
  FedClassAvg strat(exp.fedclassavg_config());
  fl::Client& c = *clients[0];
  const Tensor gw = c.model().classifier().weight().value.clone();
  const Tensor gb = c.model().classifier().bias().value.clone();
  strat.train_epoch(c, gw, gb);
  // The shape the last step backpropagated: both views of its batch.
  Rng shuffle(1);
  const auto batches = data::BatchLoader(c.train_data(), {},
                                         c.config().batch_size)
                           .epoch(shuffle);
  const auto rows = static_cast<int64_t>(2 * batches.back().size());
  const Tensor g({rows, c.model().feature_dim()});
  EXPECT_THROW(c.model().backward_features(g), Error);
}

TEST(FedClassAvg, ProximalTermLimitsClassifierDrift) {
  core::Experiment exp(tiny_experiment_config());
  auto drift_with_rho = [&](float rho) {
    auto clients = exp.build_clients();
    fl::Client& c = *clients[0];
    FedClassAvgConfig cfg;
    cfg.use_contrastive = false;
    cfg.use_proximal = true;
    cfg.rho = rho;
    FedClassAvg strat(cfg);
    const Tensor gw = c.model().classifier().weight().value.clone();
    const Tensor gb = c.model().classifier().bias().value.clone();
    for (int e = 0; e < 3; ++e) strat.train_epoch(c, gw, gb);
    return sum_squares(sub(c.model().classifier().weight().value, gw));
  };
  EXPECT_LT(drift_with_rho(50.0f), drift_with_rho(0.0f));
}

TEST(FedClassAvg, RejectsUninitializedRound) {
  core::Experiment exp(tiny_experiment_config());
  auto run = test::resident_run(exp);
  FedClassAvg strat{FedClassAvgConfig{}};
  EXPECT_THROW(strat.execute_round(*run, 1, {0}), Error);
}

TEST(FedClassAvg, WeightVariantSynchronizesFullModel) {
  core::ExperimentConfig cfg = tiny_experiment_config();
  cfg.models = core::ModelScheme::kHomogeneousResNet;
  core::Experiment exp(cfg);
  auto run = test::resident_run(exp);
  FedClassAvgConfig fcfg;
  fcfg.share_all_weights = true;
  FedClassAvg strat(fcfg);
  strat.initialize(*run);
  const auto p0 = models::snapshot_values(run->client(0).model().parameters());
  const auto p1 = models::snapshot_values(run->client(1).model().parameters());
  for (size_t i = 0; i < p0.size(); ++i) {
    EXPECT_TRUE(allclose(p0[i], p1[i], 0.0f, 0.0f));
  }
}

TEST(FedClassAvg, WeightVariantTrafficExceedsClassifierOnly) {
  core::ExperimentConfig cfg = tiny_experiment_config();
  cfg.models = core::ModelScheme::kHomogeneousResNet;
  core::Experiment exp(cfg);
  FedClassAvgConfig w;
  w.share_all_weights = true;
  FedClassAvg weight_strat(w);
  FedClassAvg clf_strat{FedClassAvgConfig{}};
  const auto weight_run = exp.execute(weight_strat);
  const auto clf_run = exp.execute(clf_strat);
  EXPECT_GT(weight_run.result.total_traffic.payload_bytes,
            10 * clf_run.result.total_traffic.payload_bytes);
}

TEST(FedClassAvg, AblationConfigsAllRun) {
  core::ExperimentConfig cfg = tiny_experiment_config();
  cfg.rounds = 1;
  core::Experiment exp(cfg);
  for (const bool use_cl : {false, true}) {
    for (const bool use_pr : {false, true}) {
      FedClassAvgConfig fcfg;
      fcfg.use_contrastive = use_cl;
      fcfg.use_proximal = use_pr;
      FedClassAvg strat(fcfg);
      const auto done = exp.execute(strat);
      EXPECT_GE(done.result.final_mean_accuracy, 0.0);
      EXPECT_LE(done.result.final_std_accuracy, 1.0);
    }
  }
}

TEST(FedClassAvg, ValidatesConfig) {
  FedClassAvgConfig bad;
  bad.temperature = 0.0f;
  EXPECT_THROW(FedClassAvg{bad}, Error);
  FedClassAvgConfig bad2;
  bad2.rho = -1.0f;
  EXPECT_THROW(FedClassAvg{bad2}, Error);
}

}  // namespace
}  // namespace fca::core
