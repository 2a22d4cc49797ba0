// Tests for the optional/extension features: NT-Xent contrastive mode,
// the FedClassAvg+Proto hybrid (the paper's future-work direction),
// and the comm collectives.
#include <gtest/gtest.h>

#include "autograd/ops.hpp"
#include "comm/endpoint.hpp"
#include "core/fedclassavg_proto.hpp"
#include "fl_fixtures.hpp"
#include "tensor/ops.hpp"
#include "utils/error.hpp"

namespace fca {
namespace {

using test::tiny_experiment_config;

// -- NT-Xent ---------------------------------------------------------------

TEST(NtXent, EquivalentToSupConWithPairLabels) {
  Rng rng(1);
  Tensor emb = Tensor::randn({8, 6}, rng);
  ag::Variable v1 = ag::Variable::leaf(emb.clone());
  ag::Variable v2 = ag::Variable::leaf(emb.clone());
  ag::Variable a = ag::nt_xent(v1, 0.5f);
  ag::Variable b =
      ag::supervised_contrastive(v2, {0, 1, 2, 3, 0, 1, 2, 3}, 0.5f);
  EXPECT_NEAR(a.value()[0], b.value()[0], 1e-5);
  a.backward();
  b.backward();
  EXPECT_TRUE(allclose(v1.grad(), v2.grad(), 1e-5f));
}

TEST(NtXent, RejectsOddBatch) {
  ag::Variable v = ag::Variable::leaf(Tensor({3, 4}));
  EXPECT_THROW(ag::nt_xent(v), Error);
}

TEST(NtXent, PullsPairedViewsTogether) {
  // Paired views far apart: one gradient step must reduce the loss.
  Tensor emb({4, 2}, {1, 0, 0, 1, 0.9f, 0.1f, -1, -1});
  ag::Variable v = ag::Variable::leaf(emb.clone());
  ag::Variable loss = ag::nt_xent(v, 0.5f);
  loss.backward();
  Tensor stepped = emb.clone();
  axpy_(stepped, -0.05f, v.grad());
  const float after =
      ag::nt_xent(ag::Variable::leaf(stepped), 0.5f).value()[0];
  EXPECT_LT(after, loss.value()[0]);
}

TEST(FedClassAvgSimclr, RunsAndReportsName) {
  core::ExperimentConfig cfg = tiny_experiment_config();
  core::Experiment exp(cfg);
  core::FedClassAvgConfig fcfg = exp.fedclassavg_config();
  fcfg.contrastive_mode = core::ContrastiveMode::kSelfSupervised;
  fcfg.temperature = 0.5f;
  core::FedClassAvg strat(fcfg);
  EXPECT_EQ(strat.name(), "FedClassAvg(simclr)");
  const auto done = exp.execute(strat);
  EXPECT_GT(done.result.final_mean_accuracy, 0.1);
}

// -- FedClassAvg+Proto -------------------------------------------------------

TEST(FedClassAvgProto, RunsOnHeterogeneousClients) {
  core::ExperimentConfig cfg = tiny_experiment_config();
  cfg.rounds = 5;
  core::Experiment exp(cfg);
  core::FedClassAvgProtoConfig pcfg;
  pcfg.base = exp.fedclassavg_config();
  core::FedClassAvgProto strat(pcfg);
  const auto done = exp.execute(strat);
  EXPECT_GT(done.result.final_mean_accuracy, 0.15);
  EXPECT_EQ(done.run->network().pending_messages(), 0u);
  // Prototypes cover every class after a full-participation round.
  int valid = 0;
  for (bool v : strat.prototype_valid()) valid += v ? 1 : 0;
  EXPECT_EQ(valid, 10);
  EXPECT_EQ(strat.prototypes().shape(), (Shape{10, cfg.feature_dim}));
}

TEST(FedClassAvgProto, TrafficIsClassifierPlusPrototypes) {
  core::ExperimentConfig cfg = tiny_experiment_config();
  core::Experiment exp(cfg);
  core::FedClassAvgProtoConfig pcfg;
  pcfg.base = exp.fedclassavg_config();
  core::FedClassAvgProto strat(pcfg);
  const auto done = exp.execute(strat);
  // Upload = classifier (C x D + C) + prototypes (C x D) + counts: still
  // a few KB, far below a full model, but above plain FedClassAvg.
  core::FedClassAvg plain(exp.fedclassavg_config());
  const auto plain_run = exp.execute(plain);
  EXPECT_GT(done.result.client_upload_bytes_per_round,
            plain_run.result.client_upload_bytes_per_round);
  EXPECT_LT(done.result.client_upload_bytes_per_round, 30000.0);
}

TEST(FedClassAvgProto, RejectsWeightSharingConfig) {
  core::FedClassAvgProtoConfig pcfg;
  pcfg.base.share_all_weights = true;
  EXPECT_THROW(core::FedClassAvgProto{pcfg}, Error);
}

TEST(FedClassAvgProto, SynchronizesClassifiersLikeBase) {
  core::Experiment exp(tiny_experiment_config());
  auto run = test::resident_run(exp);
  core::FedClassAvgProto strat;
  strat.initialize(*run);
  const Tensor& w0 = run->client(0).model().classifier().weight().value;
  for (int k = 1; k < run->num_clients(); ++k) {
    EXPECT_TRUE(allclose(
        w0, run->client(k).model().classifier().weight().value, 0.0f, 0.0f));
  }
}

}  // namespace
}  // namespace fca
