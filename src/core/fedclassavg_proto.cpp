#include "core/fedclassavg_proto.hpp"

#include <limits>
#include <optional>

#include "autograd/ops.hpp"
#include "models/serialize.hpp"
#include "obs/trace.hpp"
#include "tensor/ops.hpp"
#include "utils/error.hpp"

namespace fca::core {
namespace {

Tensor concat_batches(const Tensor& a, const Tensor& b) {
  FCA_CHECK(a.same_shape(b) && a.ndim() == 4);
  Shape shape = a.shape();
  shape[0] *= 2;
  Tensor out(shape);
  std::copy_n(a.data(), a.numel(), out.data());
  std::copy_n(b.data(), b.numel(), out.data() + a.numel());
  return out;
}

/// Per-class mean features and counts over the client's train shard.
std::pair<Tensor, Tensor> local_prototypes(fl::Client& c) {
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
  for (int64_t cls = 0; cls < num_classes; ++cls) {
    if (counts[cls] > 0.0f) {
      const float inv = 1.0f / counts[cls];
      for (int64_t j = 0; j < d; ++j) protos[cls * d + j] *= inv;
    }
  }
  return {std::move(protos), std::move(counts)};
}

}  // namespace

FedClassAvgProto::FedClassAvgProto(FedClassAvgProtoConfig config)
    : config_(config) {
  FCA_CHECK(config_.lambda >= 0.0f && config_.base.rho >= 0.0f &&
            config_.base.temperature > 0.0f);
  FCA_CHECK_MSG(!config_.base.share_all_weights,
                "FedClassAvg+Proto is a heterogeneous-model strategy; use "
                "plain FedClassAvg for the +weight variant");
}

comm::Bytes FedClassAvgProto::save_state() const {
  // [classifier W, classifier b, prototypes, seen-class mask].
  FCA_CHECK_MSG(global_.size() == 2, "global classifier not initialized");
  Tensor mask({static_cast<int64_t>(valid_.size())});
  for (size_t i = 0; i < valid_.size(); ++i) {
    mask[static_cast<int64_t>(i)] = valid_[i] ? 1.0f : 0.0f;
  }
  return models::serialize_tensors(
      {global_[0], global_[1], global_protos_, mask});
}

void FedClassAvgProto::load_state(std::span<const std::byte> state) {
  std::vector<Tensor> t = models::deserialize_tensors(state);
  FCA_CHECK_MSG(t.size() == 4,
                "FedClassAvg+Proto state must hold [W, b, protos, mask]");
  global_.clear();
  global_.push_back(std::move(t[0]));
  global_.push_back(std::move(t[1]));
  global_protos_ = std::move(t[2]);
  valid_.assign(static_cast<size_t>(t[3].numel()), false);
  for (size_t i = 0; i < valid_.size(); ++i) {
    valid_[i] = t[3][static_cast<int64_t>(i)] != 0.0f;
  }
}

void FedClassAvgProto::initialize(fl::FederatedRun& run) {
  // Same classifier synchronization as FedClassAvg::initialize.
  std::vector<int> all;
  for (int k = 0; k < run.num_clients(); ++k) all.push_back(k);
  for (int k : all) {
    run.client_endpoint(k).send(
        0, fl::kTagModelUp,
        models::serialize_values(
            run.client(k).model().classifier_parameters()));
  }
  const std::vector<double> weights = run.data_weights(all);
  // Strict collect: on a reliable fabric a lost init upload is a protocol
  // bug, so contributors == all on return, preserving the weights-over-all
  // arithmetic. Scoped ranks consume the root's mirror instead.
  const fl::FederatedRun::CollectedUploads collected =
      run.collect_uploads(all, fl::kTagModelUp, /*strict=*/true);
  global_.clear();
  for (const models::TensorView& v :
       models::view_tensors(collected.uploads[0])) {
    global_.emplace_back(v.shape);
  }
  for (size_t i = 0; i < collected.uploads.size(); ++i) {
    models::accumulate_tensors(collected.uploads[i],
                               static_cast<float>(weights[i]), global_);
  }
  const comm::Bytes payload = models::serialize_tensors(global_);
  run.server_endpoint().bcast_send(fl::FederatedRun::ranks_of(all),
                                   fl::kTagModelDown, payload);
  run.executor().for_each(all, [&run](int k) {
    const fl::ClientStore::Lease lease = run.lease_client(k);
    models::restore_values(
        models::deserialize_tensors(
            run.client_endpoint(k).recv(0, fl::kTagModelDown)),
        lease->model().classifier_parameters());
  });
  const int64_t num_classes = run.client(0).model().num_classes();
  const int64_t d = run.client(0).model().feature_dim();
  global_protos_ = Tensor({num_classes, d});
  valid_.assign(static_cast<size_t>(num_classes), false);
}

comm::Bytes FedClassAvgProto::initialize_lazy(fl::FederatedRun& run) {
  std::vector<int> all;
  for (int k = 0; k < run.num_clients(); ++k) all.push_back(k);
  const std::vector<double> weights = run.data_weights(all);
  global_.clear();
  for (int k : all) {
    const std::vector<Tensor> up = models::snapshot_values(
        run.client_readonly(k).model().classifier_parameters());
    if (global_.empty()) {
      for (const Tensor& t : up) global_.emplace_back(t.shape());
    }
    for (size_t t = 0; t < up.size(); ++t) {
      axpy_(global_[t], static_cast<float>(weights[static_cast<size_t>(k)]),
            up[t]);
    }
  }
  const int64_t num_classes = run.client_readonly(0).model().num_classes();
  const int64_t d = run.client_readonly(0).model().feature_dim();
  global_protos_ = Tensor({num_classes, d});
  valid_.assign(static_cast<size_t>(num_classes), false);
  return models::serialize_tensors(global_);
}

void FedClassAvgProto::bootstrap_client(fl::FederatedRun& run,
                                        fl::Client& client,
                                        const comm::Bytes& payload) {
  (void)run;
  models::restore_values(models::deserialize_tensors(payload),
                         client.model().classifier_parameters());
}

float FedClassAvgProto::train_epoch(fl::Client& client,
                                    const Tensor& global_weight,
                                    const Tensor& global_bias,
                                    const Tensor& protos,
                                    const std::vector<bool>& valid,
                                    bool proto_active) const {
  models::SplitModel& model = client.model();
  nn::Linear& clf = model.classifier();
  const int64_t d = model.feature_dim();

  data::BatchLoader loader(client.train_data(), {},
                           client.config().batch_size);
  double total = 0.0;
  int64_t batches = 0;
  for (const auto& idx : loader.epoch(client.rng())) {
    const data::Batch batch = data::make_batch(client.train_data(), idx);
    const int64_t b = batch.size();
    auto [x1, x2] = client.augmentor().two_views(batch.images, client.rng());
    const Tensor xcat = concat_batches(x1, x2);

    client.optimizer().zero_grad();
    Tensor feats = model.features(xcat, /*train=*/true);

    // The FedClassAvg head (eq. 4) on the tape.
    ag::Variable f = ag::Variable::leaf(feats);
    ag::Variable w = ag::Variable::leaf(clf.weight().value);
    ag::Variable bias = ag::Variable::leaf(clf.bias().value);
    ag::Variable logits = ag::add_rowwise(
        ag::matmul(ag::slice_rows(f, 0, b), w, false, true), bias);
    ag::Variable loss = ag::cross_entropy(logits, batch.labels);
    if (config_.base.use_contrastive) {
      std::vector<int> labels2 = batch.labels;
      labels2.insert(labels2.end(), batch.labels.begin(), batch.labels.end());
      loss = ag::add(loss, ag::supervised_contrastive(
                               f, labels2, config_.base.temperature));
    }
    if (config_.base.use_proximal) {
      ag::Variable dw = ag::sub(w, ag::Variable::constant(global_weight));
      ag::Variable db = ag::sub(bias, ag::Variable::constant(global_bias));
      ag::Variable ss = ag::add(ag::sum_squares(dw), ag::sum_squares(db));
      ag::Variable dist =
          ag::exp(ag::mul_scalar(ag::log(ag::add_scalar(ss, 1e-12f)), 0.5f));
      loss = ag::add(loss, ag::mul_scalar(dist, config_.base.rho));
    }
    // Prototype-distance extension, in *cosine space*: pull the first
    // view's normalized features toward the normalized global prototype of
    // their class. Operating on the unit sphere keeps the pull compatible
    // with the SupCon geometry (a raw-space pull fights the contrastive
    // term's normalization and destabilizes training).
    if (proto_active && config_.lambda > 0.0f) {
      Tensor protos_n = l2_normalize_rows(protos);
      Tensor proto_rows({b, d});
      Tensor row_mask({b, d});
      for (int64_t i = 0; i < b; ++i) {
        const int y = batch.labels[static_cast<size_t>(i)];
        if (!valid[static_cast<size_t>(y)]) continue;
        proto_rows.copy_row_from(i, protos_n, y);
        for (int64_t j = 0; j < d; ++j) row_mask[i * d + j] = 1.0f;
      }
      ag::Variable fn = ag::l2_normalize_rows(ag::slice_rows(f, 0, b));
      ag::Variable diff =
          ag::sub(fn, ag::Variable::constant(proto_rows));
      ag::Variable reg = ag::mul_scalar(
          ag::sum_squares(ag::mul_const(diff, row_mask)),
          config_.lambda / static_cast<float>(b));
      loss = ag::add(loss, reg);
    }
    loss.backward();

    add_(clf.weight().grad, w.grad());
    add_(clf.bias().grad, bias.grad());
    model.backward_features(f.grad());
    client.optimizer().step();
    total += loss.value()[0];
    ++batches;
  }
  return batches > 0 ? static_cast<float>(total / batches) : 0.0f;
}

float FedClassAvgProto::execute_round(fl::FederatedRun& run, int round,
                                      const std::vector<int>& selected) {
  const bool proto_active = round > config_.warmup_rounds;
  FCA_CHECK_MSG(!global_.empty(), "initialize() was not called");
  const int64_t num_classes = run.client_readonly(0).model().num_classes();
  const int64_t d = run.client_readonly(0).model().feature_dim();

  // Down: classifier + prototypes (+ validity).
  Tensor valid_t({num_classes});
  for (int64_t c = 0; c < num_classes; ++c) {
    valid_t[c] = valid_[static_cast<size_t>(c)] ? 1.0f : 0.0f;
  }
  const std::vector<int> live = run.live_clients(round, selected);
  comm::Bytes payload;
  {
    obs::TraceSpan ser_span("fl", "serialize");
    payload = models::serialize_tensors(
        {global_[0], global_[1], global_protos_, valid_t});
    ser_span.set_value(static_cast<int64_t>(payload.size()));
  }
  {
    obs::TraceSpan bcast_span("fl", "broadcast",
                              static_cast<int64_t>(live.size()));
    run.server_endpoint().bcast_send(fl::FederatedRun::ranks_of(live),
                                     fl::kTagModelDown, payload);
  }

  const std::vector<double> losses = run.executor().map(live, [&](int k) {
    const fl::ClientStore::Lease lease = run.lease_client(k);
    fl::Client& c = *lease;
    const std::optional<comm::Bytes> down_bytes =
        run.client_endpoint(k).try_recv(0, fl::kTagModelDown);
    if (!down_bytes.has_value()) {
      return std::numeric_limits<double>::quiet_NaN();
    }
    const std::vector<Tensor> down =
        models::deserialize_tensors(*down_bytes);
    models::restore_values({down[0], down[1]},
                           c.model().classifier_parameters());
    std::vector<bool> valid(static_cast<size_t>(num_classes));
    for (int64_t cc = 0; cc < num_classes; ++cc) {
      valid[static_cast<size_t>(cc)] = down[3][cc] > 0.5f;
    }
    double loss = 0.0;
    {
      obs::TraceSpan train_span("fl", "local-train",
                                run.config().local_epochs);
      for (int e = 0; e < run.config().local_epochs; ++e) {
        loss += train_epoch(c, down[0], down[1], down[2], valid,
                            proto_active);
      }
    }
    auto [protos, counts] = local_prototypes(c);
    run.client_endpoint(k).send(
        0, fl::kTagModelUp,
        models::serialize_tensors(
            {c.model().classifier().weight().value,
             c.model().classifier().bias().value, protos, counts}));
    return loss;
  });

  // Up: classifier averaging (eq. 3) + count-weighted prototype merge over
  // the survivors; below quorum both carry over unchanged.
  obs::TraceSpan agg_span("fl", "aggregate");
  const fl::FederatedRun::SurvivorGather g =
      run.gather_survivors(live, fl::kTagModelUp);
  agg_span.set_value(static_cast<int64_t>(g.survivors.size()));
  if (g.quorum_met && !g.survivors.empty()) {
    const std::vector<double> weights = run.data_weights(g.survivors);
    std::vector<Tensor> clf_agg{Tensor(global_[0].shape()),
                                Tensor(global_[1].shape())};
    Tensor proto_agg({num_classes, d});
    Tensor count_agg({num_classes});
    for (size_t i = 0; i < g.survivors.size(); ++i) {
      const std::vector<models::TensorView> up =
          models::view_tensors(g.payloads[i]);
      FCA_CHECK(up.size() == 4 && up[2].numel == num_classes * d &&
                up[3].numel == num_classes);
      models::accumulate_tensors(std::span(up).first(2),
                                 static_cast<float>(weights[i]), clf_agg);
      const models::TensorView& protos = up[2];
      const models::TensorView& counts = up[3];
      for (int64_t cc = 0; cc < num_classes; ++cc) {
        if (counts[cc] <= 0.0f) continue;
        for (int64_t j = 0; j < d; ++j) {
          proto_agg[cc * d + j] += counts[cc] * protos[cc * d + j];
        }
        count_agg[cc] += counts[cc];
      }
    }
    global_ = std::move(clf_agg);
    for (int64_t cc = 0; cc < num_classes; ++cc) {
      if (count_agg[cc] > 0.0f) {
        const float inv = 1.0f / count_agg[cc];
        for (int64_t j = 0; j < d; ++j) {
          global_protos_[cc * d + j] = proto_agg[cc * d + j] * inv;
        }
        valid_[static_cast<size_t>(cc)] = true;
      }
    }
  }
  return fl::FederatedRun::mean_finite(losses, run.config().local_epochs);
}

}  // namespace fca::core
