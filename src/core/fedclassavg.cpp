#include "core/fedclassavg.hpp"

#include <limits>

#include "autograd/ops.hpp"
#include "models/serialize.hpp"
#include "tensor/ops.hpp"
#include "utils/error.hpp"

namespace fca::core {
namespace {

/// Stacks two equally shaped image batches along dim 0 ([B,..] -> [2B,..]).
Tensor concat_batches(const Tensor& a, const Tensor& b) {
  FCA_CHECK(a.same_shape(b) && a.ndim() == 4);
  Shape shape = a.shape();
  shape[0] *= 2;
  Tensor out(shape);
  std::copy_n(a.data(), a.numel(), out.data());
  std::copy_n(b.data(), b.numel(), out.data() + a.numel());
  return out;
}

std::vector<nn::Param*> shared_params(fl::Client& c, bool all_weights) {
  return all_weights ? c.model().parameters()
                     : c.model().classifier_parameters();
}

}  // namespace

FedClassAvg::FedClassAvg(FedClassAvgConfig config) : config_(config) {
  FCA_CHECK(config_.rho >= 0.0f && config_.temperature > 0.0f);
}

std::string FedClassAvg::name() const {
  std::string n = "FedClassAvg";
  if (config_.share_all_weights) n += "+weight";
  if (!config_.use_contrastive && !config_.use_proximal) n += "(CA)";
  else if (!config_.use_contrastive) n += "(CA+PR)";
  else if (!config_.use_proximal) n += "(CA+CL)";
  if (config_.use_contrastive &&
      config_.contrastive_mode == ContrastiveMode::kSelfSupervised) {
    n += "(simclr)";
  }
  return n;
}

std::vector<Tensor> FedClassAvg::global_classifier() const {
  FCA_CHECK_MSG(global_.size() >= 2, "global state not initialized");
  // Classifier parameters are the last two entries (SplitModel lists
  // extractor parameters first).
  return {global_[global_.size() - 2], global_[global_.size() - 1]};
}

void FedClassAvg::initialize(fl::FederatedRun& run) {
  // Build C^1 by data-weighted averaging of the clients' initial
  // classifiers (full models in +weight mode), then synchronize everyone.
  std::vector<int> all;
  for (int k = 0; k < run.num_clients(); ++k) all.push_back(k);
  for (int k : all) {
    run.client_endpoint(k).send(
        0, fl::kTagModelUp,
        models::serialize_values(
            shared_params(run.client(k), config_.share_all_weights)));
  }
  // The initialization barrier degrades like a round (DESIGN.md §12): on a
  // fabric that can actually lose a peer, a client whose init upload dies
  // is condemned by the network and excluded from C^1, with the eq. 1
  // weights renormalized over the clients that reported.
  const fl::FederatedRun::SurvivorGather init = run.gather_survivors(
      all, fl::kTagModelUp, std::numeric_limits<double>::infinity());
  FCA_CHECK_MSG(!init.survivors.empty(),
                "no client survived initialization: every init upload was "
                "lost to transport failures");
  global_.clear();
  run.average_into(global_, init.survivors, init.payloads);
  // Condemned ranks are short-circuited by the network, so the broadcast
  // still targets everyone; a client cut off keeps its local init weights.
  run.server_endpoint().bcast_send(fl::FederatedRun::ranks_of(all),
                                   fl::kTagModelDown,
                                   models::serialize_tensors(global_));
  run.receive_each(all, fl::kTagModelDown,
                   [&](fl::Client& client, const comm::Bytes& down) {
                     bootstrap_client(run, client, down);
                   });
}

comm::Bytes FedClassAvg::initialize_lazy(fl::FederatedRun& run) {
  std::vector<int> all;
  for (int k = 0; k < run.num_clients(); ++k) all.push_back(k);
  const std::vector<double> weights = run.data_weights(all);
  global_.clear();
  for (int k : all) {
    // One client at a time: under a paged store the sweep's footprint is
    // O(1) clients, not O(population).
    const std::vector<Tensor> up = models::snapshot_values(
        shared_params(run.client_readonly(k), config_.share_all_weights));
    if (global_.empty()) {
      for (const Tensor& t : up) global_.emplace_back(t.shape());
    }
    FCA_CHECK(up.size() == global_.size());
    for (size_t t = 0; t < up.size(); ++t) {
      axpy_(global_[t], static_cast<float>(weights[static_cast<size_t>(k)]),
            up[t]);
    }
  }
  return models::serialize_tensors(global_);
}

void FedClassAvg::bootstrap_client(fl::FederatedRun& run, fl::Client& client,
                                   const comm::Bytes& payload) {
  (void)run;
  models::restore_values(payload,
                         shared_params(client, config_.share_all_weights));
}

comm::Bytes FedClassAvg::save_state() const {
  return models::serialize_tensors(global_);
}

void FedClassAvg::load_state(std::span<const std::byte> state) {
  global_ = models::deserialize_tensors(state);
  FCA_CHECK_MSG(global_.size() >= 2,
                "FedClassAvg state must hold at least [W, b]");
}

float FedClassAvg::train_epoch(fl::Client& client, const Tensor& global_weight,
                               const Tensor& global_bias,
                               const ExtraTerm& extra) const {
  models::SplitModel& model = client.model();
  nn::Linear& clf = model.classifier();
  FCA_CHECK(global_weight.same_shape(clf.weight().value) &&
            global_bias.same_shape(clf.bias().value));

  data::BatchLoader loader(client.train_data(), {}, client.config().batch_size);
  double total = 0.0;
  int64_t batches = 0;
  for (const auto& idx : loader.epoch(client.rng())) {
    const data::Batch batch = data::make_batch(client.train_data(), idx);
    const int64_t b = batch.size();
    auto [x1, x2] = client.augmentor().two_views(batch.images, client.rng());
    const Tensor xcat = concat_batches(x1, x2);

    client.optimizer().zero_grad();
    Tensor feats = model.features(xcat, /*train=*/true);  // [2B, D]

    // Loss head on the tape: CE on the first view's logits, SupCon over
    // both views, proximal pull of the classifier toward the global one.
    ag::Variable f = ag::Variable::leaf(feats);
    ag::Variable w = ag::Variable::leaf(clf.weight().value);
    ag::Variable bias = ag::Variable::leaf(clf.bias().value);
    ag::Variable logits = ag::add_rowwise(
        ag::matmul(ag::slice_rows(f, 0, b), w, false, true), bias);
    ag::Variable loss = ag::cross_entropy(logits, batch.labels);
    if (config_.use_contrastive) {
      ag::Variable cl;
      if (config_.contrastive_mode == ContrastiveMode::kSupervised) {
        std::vector<int> labels2 = batch.labels;
        labels2.insert(labels2.end(), batch.labels.begin(),
                       batch.labels.end());
        cl = ag::supervised_contrastive(f, labels2, config_.temperature);
      } else {
        cl = ag::nt_xent(f, config_.temperature);
      }
      loss = ag::add(loss, cl);
    }
    if (config_.use_proximal) {
      ag::Variable dw = ag::sub(w, ag::Variable::constant(global_weight));
      ag::Variable db = ag::sub(bias, ag::Variable::constant(global_bias));
      ag::Variable ss = ag::add(ag::sum_squares(dw), ag::sum_squares(db));
      // sqrt(ss + eps) = exp(0.5 log(ss + eps)): eq. (5)'s (non-squared) L2
      // distance, kept differentiable at zero.
      ag::Variable dist =
          ag::exp(ag::mul_scalar(ag::log(ag::add_scalar(ss, 1e-12f)), 0.5f));
      loss = ag::add(loss, ag::mul_scalar(dist, config_.rho));
    }
    if (extra) loss = ag::add(loss, extra(f, batch.labels));
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

comm::Bytes FedClassAvg::downlink(fl::FederatedRun& run) {
  (void)run;
  FCA_CHECK_MSG(!global_.empty(), "initialize() was not called");
  return models::serialize_tensors(global_);
}

fl::ClientUpdate FedClassAvg::update(fl::FederatedRun& run, int round,
                                     fl::Client& client,
                                     std::span<const std::byte> down) {
  (void)round;
  const std::vector<Tensor> global = models::deserialize_tensors(down);
  const std::vector<nn::Param*> shared =
      shared_params(client, config_.share_all_weights);
  models::restore_values(global, shared);
  const Tensor& gw = global[global.size() - 2];
  const Tensor& gb = global[global.size() - 1];
  const double loss =
      run.local_train([&] { return train_epoch(client, gw, gb); });
  return {loss, models::serialize_values(shared)};
}

void FedClassAvg::reduce(fl::FederatedRun& run,
                         const fl::FederatedRun::SurvivorGather& gathered) {
  run.average_into(global_, gathered.survivors, gathered.payloads);
}

}  // namespace fca::core
