// Scenario: bringing your own architecture. The framework only requires a
// client model to be a SplitModel — any nn::Module that maps images to a
// D-dimensional feature vector can serve as the extractor, and FedClassAvg
// will federate it with everyone else through the shared classifier.
//
// This example defines a tiny custom MLP-Mixer-flavored extractor, gives it
// to half the clients (the other half run stock MiniResNets), and trains the
// mixed federation with FedClassAvg — something weight-averaging methods
// like FedAvg cannot do at all.
#include <cstdio>
#include <memory>

#include "core/fedclassavg.hpp"
#include "core/trainer.hpp"
#include "nn/activation.hpp"
#include "nn/linear.hpp"
#include "nn/pool.hpp"

namespace {

using namespace fca;

/// A deliberately unconventional extractor: flatten -> two fully connected
/// mixing layers. Implements the three Module hooks (forward / backward /
/// collect_params) by delegating to a Sequential.
class MlpExtractor : public nn::Module {
 public:
  MlpExtractor(int64_t in_channels, int64_t image_size, int64_t feature_dim,
               Rng& rng) {
    const int64_t flat = in_channels * image_size * image_size;
    body_.add(std::make_unique<nn::Flatten>());
    body_.add(std::make_unique<nn::Linear>(flat, 2 * feature_dim, rng));
    body_.add(std::make_unique<nn::ReLU>());
    body_.add(std::make_unique<nn::Linear>(2 * feature_dim, feature_dim, rng));
  }

  Tensor forward(const Tensor& x, bool train) override {
    return body_.forward(x, train);
  }
  Tensor backward(const Tensor& grad_out) override {
    return body_.backward(grad_out);
  }
  void collect_params(std::vector<nn::Param*>& out) override {
    body_.collect_params(out);
  }
  std::string name() const override { return "MlpExtractor"; }

 private:
  nn::Sequential body_;
};

}  // namespace

int main() {
  core::ExperimentConfig config;
  config.dataset = "synth-fmnist";
  config.num_clients = 6;
  config.train_per_class = 20;
  config.rounds = 12;
  config.with_scaled_preset();

  core::Experiment experiment(config);

  // Build clients by hand: even ids get the custom MLP extractor, odd ids
  // the experiment's stock backbone (Experiment::build_model). The store
  // calls this factory at each client's first use, so it must be pure in
  // the id: every stream it draws from is forked by k.
  const Rng root(config.seed);
  fl::ClientConfig client_config;
  client_config.batch_size = config.batch_size;
  client_config.lr = config.lr;
  const auto build_client = [&](int k) -> fl::ClientPtr {
    Rng init = root.fork("custom-init/" + std::to_string(k));
    std::unique_ptr<models::SplitModel> model;
    if (k % 2 == 0) {
      auto extractor = std::make_unique<MlpExtractor>(
          experiment.spec().channels, config.image_size, config.feature_dim,
          init);
      auto classifier = std::make_unique<nn::Linear>(
          config.feature_dim, experiment.spec().num_classes, init);
      model = std::make_unique<models::SplitModel>(
          "CustomMLP", std::move(extractor), std::move(classifier));
    } else {
      model = experiment.build_model(k);
    }
    return std::make_unique<fl::Client>(
        k, std::move(model),
        experiment.train_data().subset(
            experiment.partition().client_indices[static_cast<size_t>(k)]),
        experiment.test_data().subset(
            experiment.test_split()[static_cast<size_t>(k)]),
        client_config, root.fork("custom-rng/" + std::to_string(k)));
  };
  std::vector<int64_t> train_sizes;
  for (const std::vector<int>& shard : experiment.partition().client_indices) {
    train_sizes.push_back(static_cast<int64_t>(shard.size()));
  }

  fl::FederatedRun run(
      std::make_unique<fl::ClientStore>(config.num_clients, build_client,
                                        std::move(train_sizes),
                                        fl::ClientStoreOptions{}),
      experiment.fl_config());
  core::FedClassAvg strategy(experiment.fedclassavg_config());
  const fl::RunResult result = run.execute(strategy);

  std::printf("\nmixed federation (custom MLP extractors + MiniResNets):\n");
  for (int k = 0; k < run.num_clients(); ++k) {
    std::printf("  client %d (%-10s): accuracy %.4f\n", k,
                run.client(k).model().arch_name().c_str(),
                run.client(k).evaluate());
  }
  std::printf("mean: %.4f ± %.4f — the custom architecture federates through"
              " the shared classifier.\n",
              result.final_mean_accuracy, result.final_std_accuracy);
  return 0;
}
