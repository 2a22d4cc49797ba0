#include "fl/fedproto.hpp"

#include "utils/error.hpp"

namespace fca::fl {

void Prototypes::reset(int64_t num_classes, int64_t dim) {
  protos = Tensor({num_classes, dim});
  valid.assign(static_cast<size_t>(num_classes), false);
}

Tensor Prototypes::mask() const {
  Tensor m({static_cast<int64_t>(valid.size())});
  for (size_t i = 0; i < valid.size(); ++i) {
    m[static_cast<int64_t>(i)] = valid[i] ? 1.0f : 0.0f;
  }
  return m;
}

void Prototypes::restore(Tensor restored_protos, const Tensor& restored_mask) {
  FCA_CHECK_MSG(restored_protos.ndim() == 2,
                "prototypes must be [C, D], got "
                    << shape_to_string(restored_protos.shape()));
  valid = decode_mask(restored_mask, restored_protos.dim(0));
  protos = std::move(restored_protos);
}

void Prototypes::merge(
    const std::vector<std::vector<models::TensorView>>& uploads,
    size_t first) {
  const int64_t num_classes = protos.dim(0);
  const int64_t d = protos.dim(1);
  for (const std::vector<models::TensorView>& up : uploads) {
    FCA_CHECK_MSG(up.size() == first + 2 &&
                      up[first].shape == protos.shape() &&
                      up[first + 1].shape == Shape{num_classes},
                  "prototype upload must end in [protos "
                      << shape_to_string(protos.shape()) << ", counts ["
                      << num_classes << "]]");
  }
  Tensor agg({num_classes, d});
  Tensor agg_counts({num_classes});
  for (const std::vector<models::TensorView>& up : uploads) {
    const models::TensorView& p = up[first];
    const models::TensorView& counts = up[first + 1];
    for (int64_t cc = 0; cc < num_classes; ++cc) {
      if (counts[cc] <= 0.0f) continue;
      for (int64_t j = 0; j < d; ++j) {
        agg[cc * d + j] += counts[cc] * p[cc * d + j];
      }
      agg_counts[cc] += counts[cc];
    }
  }
  for (int64_t cc = 0; cc < num_classes; ++cc) {
    if (agg_counts[cc] > 0.0f) {
      const float inv = 1.0f / agg_counts[cc];
      for (int64_t j = 0; j < d; ++j) {
        protos[cc * d + j] = agg[cc * d + j] * inv;
      }
      valid[static_cast<size_t>(cc)] = true;
    }
  }
}

std::vector<bool> decode_mask(const Tensor& mask, int64_t num_classes) {
  FCA_CHECK_MSG(mask.shape() == Shape{num_classes},
                "class mask must be [" << num_classes << "], got "
                                       << shape_to_string(mask.shape()));
  std::vector<bool> valid(static_cast<size_t>(num_classes));
  for (int64_t cc = 0; cc < num_classes; ++cc) {
    valid[static_cast<size_t>(cc)] = mask[cc] > 0.5f;
  }
  return valid;
}

std::pair<Tensor, Tensor> local_prototypes(Client& c) {
  const data::Dataset& ds = c.train_data();
  const int64_t d = c.model().feature_dim();
  const int64_t num_classes = c.model().num_classes();
  Tensor feats = c.extract_features(ds);
  Tensor protos({num_classes, d});
  Tensor counts({num_classes});
  for (int64_t i = 0; i < ds.size(); ++i) {
    const int y = ds.labels[static_cast<size_t>(i)];
    counts[y] += 1.0f;
    for (int64_t j = 0; j < d; ++j) protos[y * d + j] += feats[i * d + j];
  }
  for (int64_t cc = 0; cc < num_classes; ++cc) {
    if (counts[cc] > 0.0f) {
      const float inv = 1.0f / counts[cc];
      for (int64_t j = 0; j < d; ++j) protos[cc * d + j] *= inv;
    }
  }
  return {std::move(protos), std::move(counts)};
}

comm::Bytes FedProto::save_state() const {
  return models::serialize_tensors({global_.protos, global_.mask()});
}

void FedProto::load_state(std::span<const std::byte> state) {
  std::vector<Tensor> t = models::deserialize_tensors(state);
  FCA_CHECK_MSG(t.size() == 2, "FedProto state must hold [protos, mask]");
  global_.restore(std::move(t[0]), t[1]);
}

float FedProto::train_epoch(Client& c, const Tensor& protos,
                            const std::vector<bool>& valid) const {
  double total = 0.0;
  int64_t batches = 0;
  const int64_t d = c.model().feature_dim();
  data::BatchLoader loader(c.train_data(), {}, c.config().batch_size);
  for (const auto& idx : loader.epoch(c.rng())) {
    const data::Batch batch = data::make_batch(c.train_data(), idx);
    const Tensor x = c.augmentor().augment(batch.images, c.rng());
    c.optimizer().zero_grad();
    Tensor feats = c.model().features(x, /*train=*/true);
    Tensor logits = c.model().classifier().forward(feats, /*train=*/true);
    nn::LossResult ce = nn::softmax_cross_entropy(logits, batch.labels);
    Tensor dfeat = c.model().classifier().backward(ce.grad);
    float loss = ce.value;
    if (!protos.empty()) {
      // lambda * mean_i ||f_i - proto[y_i]||^2, skipping classes the
      // federation has not produced a prototype for yet.
      const int64_t b = feats.dim(0);
      const float scale = 2.0f * config_.lambda / static_cast<float>(b);
      double reg = 0.0;
      for (int64_t i = 0; i < b; ++i) {
        const int y = batch.labels[static_cast<size_t>(i)];
        if (!valid[static_cast<size_t>(y)]) continue;
        for (int64_t j = 0; j < d; ++j) {
          const float diff = feats[i * d + j] - protos[y * d + j];
          reg += static_cast<double>(diff) * diff;
          dfeat[i * d + j] += scale * diff;
        }
      }
      loss += config_.lambda * static_cast<float>(reg) /
              static_cast<float>(b);
    }
    c.model().backward_features(dfeat);
    c.optimizer().step();
    total += loss;
    ++batches;
  }
  return batches > 0 ? static_cast<float>(total / batches) : 0.0f;
}

comm::Bytes FedProto::downlink(FederatedRun& run) {
  // Architecture metadata only: a read-only touch keeps client 0 clean.
  models::SplitModel& model = run.client_readonly(0).model();
  const Shape shape{model.num_classes(), model.feature_dim()};
  if (global_.valid.empty()) global_.reset(shape[0], shape[1]);
  FCA_CHECK_MSG(global_.protos.shape() == shape,
                "FedProto prototypes " << shape_to_string(global_.protos.shape())
                                       << " do not match the models' "
                                       << shape_to_string(shape));
  return models::serialize_tensors({global_.protos, global_.mask()});
}

ClientUpdate FedProto::update(FederatedRun& run, int round, Client& client,
                              std::span<const std::byte> down) {
  (void)round;
  const std::vector<Tensor> msg = models::deserialize_tensors(down);
  const int64_t num_classes = client.model().num_classes();
  const Shape protos_shape{num_classes, client.model().feature_dim()};
  FCA_CHECK_MSG(msg.size() == 2 && msg[0].shape() == protos_shape,
                "FedProto downlink must hold [protos "
                    << shape_to_string(protos_shape) << ", mask]");
  const std::vector<bool> valid = decode_mask(msg[1], num_classes);
  const double loss =
      run.local_train([&] { return train_epoch(client, msg[0], valid); });
  auto [protos, counts] = local_prototypes(client);
  return {loss, models::serialize_tensors({protos, counts})};
}

void FedProto::reduce(FederatedRun& run,
                      const FederatedRun::SurvivorGather& gathered) {
  (void)run;
  std::vector<std::vector<models::TensorView>> uploads;
  uploads.reserve(gathered.payloads.size());
  for (const comm::Bytes& payload : gathered.payloads) {
    uploads.push_back(models::view_tensors(payload));
  }
  global_.merge(uploads, 0);
}

}  // namespace fca::fl
