#include "fl/client.hpp"

#include "tensor/ops.hpp"
#include "utils/error.hpp"

namespace fca::fl {
namespace {

/// Runs `run` on ds in slices of batch_size images and stacks its
/// [slice, width] results; rows follow ds order.
template <class Run>
Tensor eval_in_slices(const data::Dataset& ds, int64_t batch_size,
                      int64_t width, Run run) {
  FCA_CHECK(ds.size() > 0);
  Tensor out({ds.size(), width});
  for (int64_t start = 0; start < ds.size(); start += batch_size) {
    const int64_t stop = std::min(start + batch_size, ds.size());
    std::vector<int> idx;
    idx.reserve(static_cast<size_t>(stop - start));
    for (int64_t i = start; i < stop; ++i) idx.push_back(static_cast<int>(i));
    const data::Batch batch = data::make_batch(ds, idx);
    const Tensor rows = run(batch.images);
    for (int64_t i = start; i < stop; ++i) {
      out.copy_row_from(i, rows, i - start);
    }
  }
  return out;
}

}  // namespace

Client::Client(int id, std::unique_ptr<models::SplitModel> model,
               data::Dataset train, data::Dataset test,
               const ClientConfig& config, Rng rng)
    : id_(id),
      model_(std::move(model)),
      train_(std::move(train)),
      test_(std::move(test)),
      config_(config),
      augmentor_(config.augment),
      rng_(rng) {
  FCA_CHECK(model_ != nullptr);
  FCA_CHECK_MSG(train_.size() > 0, "client " << id << " has no train data");
  loader_ = std::make_unique<data::BatchLoader>(train_, std::vector<int>{},
                                                config_.batch_size);
  if (config_.use_adam) {
    optimizer_ =
        std::make_unique<nn::Adam>(model_->parameters(), config_.lr);
  } else {
    optimizer_ = std::make_unique<nn::SGD>(model_->parameters(), config_.lr,
                                           /*momentum=*/0.9f);
  }
}

void Client::reset_optimizer() { optimizer_->reset(); }

float Client::train_epoch_supervised(const std::vector<Tensor>* prox_anchor,
                                     float prox_mu) {
  double total_loss = 0.0;
  int64_t batches = 0;
  for (const auto& batch_idx : loader_->epoch(rng_)) {
    const data::Batch batch = data::make_batch(train_, batch_idx);
    const Tensor x = augmentor_.augment(batch.images, rng_);
    optimizer_->zero_grad();
    Tensor logits = model_->forward(x, /*train=*/true);
    nn::LossResult loss = nn::softmax_cross_entropy(logits, batch.labels);
    model_->backward(loss.grad);
    if (prox_anchor != nullptr && prox_mu > 0.0f) {
      const auto params = model_->parameters();
      FCA_CHECK(prox_anchor->size() == params.size());
      for (size_t i = 0; i < params.size(); ++i) {
        // d/dw [mu/2 ||w - w0||^2] = mu (w - w0)
        Tensor diff = sub(params[i]->value, (*prox_anchor)[i]);
        axpy_(params[i]->grad, prox_mu, diff);
      }
    }
    optimizer_->step();
    total_loss += loss.value;
    ++batches;
  }
  return batches > 0 ? static_cast<float>(total_loss / batches) : 0.0f;
}

float Client::evaluate() { return evaluate_on(test_); }

float Client::evaluate_on(const data::Dataset& ds) {
  if (ds.size() == 0) return 0.0f;
  Tensor logits = predict_logits(ds);
  return nn::accuracy(logits, ds.labels);
}

Tensor Client::predict_logits(const data::Dataset& ds) {
  return eval_in_slices(ds, config_.batch_size, model_->num_classes(),
                        [&](const Tensor& x) {
                          return model_->forward(x, /*train=*/false);
                        });
}

Tensor Client::extract_features(const data::Dataset& ds) {
  return eval_in_slices(ds, config_.batch_size, model_->feature_dim(),
                        [&](const Tensor& x) {
                          return model_->features(x, /*train=*/false);
                        });
}

}  // namespace fca::fl
