#include "core/fedclassavg.hpp"

#include <limits>
#include <optional>

#include "autograd/ops.hpp"
#include "models/serialize.hpp"
#include "obs/trace.hpp"
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
  // weights renormalized over the clients that reported. collect_uploads
  // keeps the strict protocol-bug check on a reliable fabric and mirrors
  // the contributor set to every rank of a multi-process world.
  const fl::FederatedRun::CollectedUploads collected =
      run.collect_uploads(all, fl::kTagModelUp, /*strict=*/false);
  const std::vector<int>& contributors = collected.contributors;
  FCA_CHECK_MSG(!contributors.empty(),
                "no client survived initialization: every init upload was "
                "lost to transport failures");
  const std::vector<double> weights = run.data_weights(contributors);
  global_.clear();
  for (const models::TensorView& v :
       models::view_tensors(collected.uploads[0])) {
    global_.emplace_back(v.shape);
  }
  for (size_t i = 0; i < contributors.size(); ++i) {
    models::accumulate_tensors(collected.uploads[i],
                               static_cast<float>(weights[i]), global_);
  }
  const comm::Bytes payload = models::serialize_tensors(global_);
  // Condemned ranks are short-circuited by the network, so the broadcast
  // still targets everyone.
  run.server_endpoint().bcast_send(fl::FederatedRun::ranks_of(all),
                                   fl::kTagModelDown, payload);
  run.executor().for_each(all, [&](int k) {
    const fl::ClientStore::Lease lease = run.lease_client(k);
    const std::optional<comm::Bytes> down =
        run.client_endpoint(k).try_recv(0, fl::kTagModelDown);
    // A client cut off during initialization keeps its local init weights;
    // it is already condemned, so later rounds exclude it anyway.
    if (!down.has_value()) return;
    models::restore_values(
        models::deserialize_tensors(*down),
        shared_params(*lease, config_.share_all_weights));
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
  models::restore_values(models::deserialize_tensors(payload),
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
                               const Tensor& global_bias) const {
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

float FedClassAvg::execute_round(fl::FederatedRun& run, int round,
                                 const std::vector<int>& selected) {
  FCA_CHECK_MSG(!global_.empty(), "initialize() was not called");
  // Server -> live cohort members: C^t (or the full global model in
  // +weight). A crashed client neither receives nor trains this round; on
  // rejoin its next downlink re-syncs it with the current global state.
  const std::vector<int> live = run.live_clients(round, selected);
  comm::Bytes payload;
  {
    obs::TraceSpan ser_span("fl", "serialize");
    payload = models::serialize_tensors(global_);
    ser_span.set_value(static_cast<int64_t>(payload.size()));
  }
  {
    obs::TraceSpan bcast_span("fl", "broadcast",
                              static_cast<int64_t>(live.size()));
    run.server_endpoint().bcast_send(fl::FederatedRun::ranks_of(live),
                                     fl::kTagModelDown, payload);
  }

  // Per-client local updates on the round executor (fl/executor.hpp):
  // each body touches only its own client's state and rank mailboxes, so
  // any client_parallelism yields the serial sweep's bits. A lost downlink
  // means the client sits the round out (NaN, excluded from the mean).
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
    models::restore_values(down,
                           shared_params(c, config_.share_all_weights));
    const Tensor& gw = down[down.size() - 2];
    const Tensor& gb = down[down.size() - 1];
    double loss = 0.0;
    {
      obs::TraceSpan train_span("fl", "local-train",
                                run.config().local_epochs);
      for (int e = 0; e < run.config().local_epochs; ++e) {
        loss += train_epoch(c, gw, gb);
      }
    }
    run.client_endpoint(k).send(
        0, fl::kTagModelUp,
        models::serialize_values(shared_params(c, config_.share_all_weights)));
    return loss;
  });

  // Classifier averaging (eq. 3) over the survivors, with eq. 1 weights
  // renormalized to the clients that actually reported. Below quorum the
  // round aborts and C^t carries over unchanged.
  obs::TraceSpan agg_span("fl", "aggregate");
  const fl::FederatedRun::SurvivorGather g =
      run.gather_survivors(live, fl::kTagModelUp);
  agg_span.set_value(static_cast<int64_t>(g.survivors.size()));
  if (g.quorum_met && !g.survivors.empty()) {
    const std::vector<double> weights = run.data_weights(g.survivors);
    std::vector<Tensor> agg;
    agg.reserve(global_.size());
    for (const Tensor& t : global_) agg.emplace_back(t.shape());
    for (size_t i = 0; i < g.survivors.size(); ++i) {
      models::accumulate_tensors(g.payloads[i], static_cast<float>(weights[i]),
                                 agg);
    }
    global_ = std::move(agg);
  }
  return fl::FederatedRun::mean_finite(losses, run.config().local_epochs);
}

}  // namespace fca::core
