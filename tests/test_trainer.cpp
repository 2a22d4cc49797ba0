#include "core/trainer.hpp"

#include <gtest/gtest.h>

#include <numeric>
#include <vector>

#include "fl_fixtures.hpp"
#include "fl/local_only.hpp"
#include "tensor/ops.hpp"
#include "utils/error.hpp"

namespace fca::core {
namespace {

using test::tiny_experiment_config;

TEST(Experiment, MaterializesConfiguredData) {
  const ExperimentConfig cfg = tiny_experiment_config();
  Experiment exp(cfg);
  EXPECT_EQ(exp.train_data().size(), 120);  // 12 per class x 10 classes
  EXPECT_EQ(exp.test_data().size(), 60);
  EXPECT_EQ(exp.public_data().size(), 20);
  EXPECT_EQ(exp.partition().num_clients(), 4);
  EXPECT_EQ(exp.test_split().size(), 4u);
  EXPECT_EQ(exp.spec().channels, 1);
}

TEST(Experiment, SameSeedSameClients) {
  const ExperimentConfig cfg = tiny_experiment_config();
  Experiment a(cfg), b(cfg);
  auto ca = a.build_clients();
  auto cb = b.build_clients();
  ASSERT_EQ(ca.size(), cb.size());
  for (size_t k = 0; k < ca.size(); ++k) {
    EXPECT_TRUE(allclose(ca[k]->train_data().images,
                         cb[k]->train_data().images, 0.0f, 0.0f));
    const auto pa = ca[k]->model().parameters();
    const auto pb = cb[k]->model().parameters();
    ASSERT_EQ(pa.size(), pb.size());
    for (size_t i = 0; i < pa.size(); ++i) {
      EXPECT_TRUE(allclose(pa[i]->value, pb[i]->value, 0.0f, 0.0f));
    }
  }
}

TEST(Experiment, DifferentSeedDifferentPartition) {
  ExperimentConfig cfg = tiny_experiment_config();
  Experiment a(cfg);
  cfg.seed = 999;
  Experiment b(cfg);
  EXPECT_NE(a.partition().client_indices, b.partition().client_indices);
}

TEST(Experiment, RepeatedExecuteIsReproducible) {
  const ExperimentConfig cfg = tiny_experiment_config();
  Experiment exp(cfg);
  fl::LocalOnly s1, s2;
  const auto r1 = exp.execute(s1);
  const auto r2 = exp.execute(s2);
  EXPECT_DOUBLE_EQ(r1.result.final_mean_accuracy,
                   r2.result.final_mean_accuracy);
  EXPECT_DOUBLE_EQ(r1.result.final_std_accuracy,
                   r2.result.final_std_accuracy);
}

TEST(Experiment, HeterogeneousSchemeAssignsFourArchitectures) {
  Experiment exp(tiny_experiment_config());
  auto clients = exp.build_clients();
  EXPECT_EQ(clients[0]->model().arch_name(), "MiniResNet");
  EXPECT_EQ(clients[1]->model().arch_name(), "MiniShuffleNet");
  EXPECT_EQ(clients[2]->model().arch_name(), "MiniGoogLeNet");
  EXPECT_EQ(clients[3]->model().arch_name(), "MiniAlexNet");
}

TEST(Experiment, StoreCostsAreForwardMacsTimesLocalWork) {
  // The executor's claim-order costs: each client's per-sample forward
  // multiply-adds times its local samples and epochs (train) or its test
  // samples (eval), the same in a resident and a lazy store.
  ExperimentConfig cfg = tiny_experiment_config(8);
  cfg.local_epochs = 2;
  const Experiment exp(cfg);
  ExperimentConfig lazy_cfg = cfg;
  lazy_cfg.lazy_init = true;
  const Experiment lazy_exp(lazy_cfg);
  std::vector<int> all(8);
  std::iota(all.begin(), all.end(), 0);
  for (const auto& store : {exp.build_store(), lazy_exp.build_store()}) {
    const auto train = store->costs(all, &fl::ClientStore::Cost::train);
    const auto eval = store->costs(all, &fl::ClientStore::Cost::eval);
    ASSERT_EQ(train.size(), all.size());
    ASSERT_EQ(eval.size(), all.size());
    for (int k : all) {
      nn::MacCounter macs;
      exp.build_model(k)->forward(
          Tensor({1, exp.spec().channels, cfg.image_size, cfg.image_size}),
          false);
      const auto per_sample = static_cast<double>(macs.count());
      const auto i = static_cast<size_t>(k);
      EXPECT_GT(per_sample, 0.0);
      EXPECT_EQ(train[i], per_sample * store->train_size(k) * 2) << k;
      EXPECT_EQ(eval[i], per_sample * exp.test_split()[i].size()) << k;
    }
  }
}

TEST(Experiment, HomogeneousSchemeUsesResNetEverywhere) {
  ExperimentConfig cfg = tiny_experiment_config();
  cfg.models = ModelScheme::kHomogeneousResNet;
  Experiment exp(cfg);
  for (const auto& c : exp.build_clients()) {
    EXPECT_EQ(c->model().arch_name(), "MiniResNet");
  }
}

TEST(Experiment, SkewedPartitionScheme) {
  ExperimentConfig cfg = tiny_experiment_config();
  cfg.partition = PartitionScheme::kSkewed;
  cfg.classes_per_client = 2;
  // Clean two-class shards need client slots (num_clients *
  // classes_per_client) to cover the classes exactly; with fewer slots the
  // equal-size constraint forces backfill beyond two classes by design.
  cfg.num_clients = 5;
  Experiment exp(cfg);
  const auto hist = data::partition_histogram(
      exp.partition(), exp.train_data().labels, 10);
  for (const auto& h : hist) {
    int nonzero = 0;
    for (int64_t c : h) {
      if (c > 0) ++nonzero;
    }
    EXPECT_LE(nonzero, 2);
  }
}

TEST(Experiment, WithScaledPresetAppliesDatasetHyperparams) {
  ExperimentConfig cfg = tiny_experiment_config();
  cfg.dataset = "synth-emnist";
  cfg.with_scaled_preset();
  EXPECT_EQ(cfg.batch_size, scaled_preset("synth-emnist").batch_size);
  EXPECT_FLOAT_EQ(cfg.lr, scaled_preset("synth-emnist").lr);
}

TEST(Experiment, FedClassAvgConfigUsesPaperRho) {
  ExperimentConfig cfg = tiny_experiment_config();
  cfg.dataset = "synth-fmnist";
  Experiment exp(cfg);
  EXPECT_FLOAT_EQ(exp.fedclassavg_config().rho, 0.4662f);
}

TEST(Experiment, CifarPresetGetsFlipAugmentationAndRgb) {
  ExperimentConfig cfg = tiny_experiment_config();
  cfg.dataset = "synth-cifar10";
  Experiment exp(cfg);
  EXPECT_EQ(exp.spec().channels, 3);
  auto clients = exp.build_clients();
  EXPECT_TRUE(clients[0]->augmentor().spec().horizontal_flip);
  ExperimentConfig gray = tiny_experiment_config();
  Experiment exp2(gray);
  auto clients2 = exp2.build_clients();
  EXPECT_FALSE(clients2[0]->augmentor().spec().horizontal_flip);
}

TEST(Experiment, LocalTestSetsMatchClientClasses) {
  ExperimentConfig cfg = tiny_experiment_config();
  cfg.partition = PartitionScheme::kSkewed;
  Experiment exp(cfg);
  auto clients = exp.build_clients();
  for (const auto& c : clients) {
    // Every test label must appear in the client's train shard.
    std::vector<bool> train_has(10, false);
    for (int y : c->train_data().labels) train_has[static_cast<size_t>(y)] = true;
    for (int y : c->test_data().labels) {
      EXPECT_TRUE(train_has[static_cast<size_t>(y)])
          << "client " << c->id() << " tested on unseen class " << y;
    }
  }
}

TEST(Experiment, RejectsInvalidConfig) {
  ExperimentConfig cfg = tiny_experiment_config();
  cfg.num_clients = 0;
  EXPECT_THROW(Experiment{cfg}, Error);
  ExperimentConfig cfg2 = tiny_experiment_config();
  cfg2.dataset = "imagenet";
  EXPECT_THROW(Experiment{cfg2}, Error);
}

TEST(Experiment, FLConfigPropagation) {
  ExperimentConfig cfg = tiny_experiment_config();
  cfg.rounds = 7;
  cfg.sample_rate = 0.5;
  cfg.eval_every = 3;
  Experiment exp(cfg);
  const fl::FLConfig fc = exp.fl_config();
  EXPECT_EQ(fc.rounds, 7);
  EXPECT_DOUBLE_EQ(fc.sample_rate, 0.5);
  EXPECT_EQ(fc.eval_every, 3);
  EXPECT_EQ(fc.seed, cfg.seed);
}

}  // namespace
}  // namespace fca::core
