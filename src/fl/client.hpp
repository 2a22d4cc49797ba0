// Federated client: a model, a local data shard, an optimizer and a private
// RNG stream. Strategies drive training through the helpers here; the
// FedClassAvg-specific objective lives in src/core.
#pragma once

#include <memory>
#include <optional>

#include "data/augment.hpp"
#include "data/loader.hpp"
#include "models/factory.hpp"
#include "nn/loss.hpp"
#include "nn/optim.hpp"

namespace fca::fl {

struct ClientConfig {
  int batch_size = 16;
  float lr = 1e-3f;
  /// true: Adam (the paper's local optimizer); false: SGD with momentum 0.9.
  bool use_adam = true;
  data::AugmentSpec augment;
};

class Client {
 public:
  Client(int id, std::unique_ptr<models::SplitModel> model,
         data::Dataset train, data::Dataset test, const ClientConfig& config,
         Rng rng);

  int id() const { return id_; }
  models::SplitModel& model() { return *model_; }
  const data::Dataset& train_data() const { return train_; }
  const data::Dataset& test_data() const { return test_; }
  int64_t train_size() const { return train_.size(); }
  const ClientConfig& config() const { return config_; }
  nn::Optimizer& optimizer() { return *optimizer_; }
  const data::Augmentor& augmentor() const { return augmentor_; }
  Rng& rng() { return rng_; }

  /// Returns the optimizer to its freshly constructed state in place (used
  /// after strategies overwrite weights wholesale, where stale Adam moments
  /// would be misleading). The optimizer and its slot tensors live as long
  /// as the client; a reset zeroes them and allocates nothing.
  void reset_optimizer();

  /// One epoch of plain supervised training (CE, single augmented view).
  /// If `prox_anchor` is set, adds the FedProx term mu/2 * ||w - w_anchor||^2
  /// over *all* parameters via its gradient mu * (w - w_anchor).
  /// Returns mean batch loss.
  float train_epoch_supervised(
      const std::vector<Tensor>* prox_anchor = nullptr, float prox_mu = 0.0f);

  /// Accuracy on the local test set (eval mode).
  float evaluate();
  /// Accuracy on an arbitrary dataset (eval mode).
  float evaluate_on(const data::Dataset& ds);
  /// Logits on a dataset (eval mode), batched; rows follow ds order.
  Tensor predict_logits(const data::Dataset& ds);
  /// Feature-space embeddings on a dataset (eval mode).
  Tensor extract_features(const data::Dataset& ds);

 private:
  int id_;
  std::unique_ptr<models::SplitModel> model_;
  data::Dataset train_;
  data::Dataset test_;
  ClientConfig config_;
  data::Augmentor augmentor_;
  std::unique_ptr<data::BatchLoader> loader_;
  std::unique_ptr<nn::Optimizer> optimizer_;
  Rng rng_;
};

using ClientPtr = std::unique_ptr<Client>;

}  // namespace fca::fl
