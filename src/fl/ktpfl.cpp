#include "fl/ktpfl.hpp"

#include <algorithm>
#include <cmath>

#include "models/serialize.hpp"
#include "obs/trace.hpp"
#include "utils/error.hpp"
#include "tensor/ops.hpp"

namespace fca::fl {
namespace {

/// Projects a row of coefficients onto the probability simplex by clipping
/// at zero and renormalizing (sufficient for small gradient steps).
void project_row(Tensor& coef, int64_t row, int64_t k) {
  double total = 0.0;
  for (int64_t j = 0; j < k; ++j) {
    float& v = coef[row * k + j];
    if (v < 0.0f) v = 0.0f;
    total += v;
  }
  if (total <= 0.0) {
    for (int64_t j = 0; j < k; ++j) coef[row * k + j] = 1.0f / static_cast<float>(k);
    return;
  }
  const auto inv = static_cast<float>(1.0 / total);
  for (int64_t j = 0; j < k; ++j) coef[row * k + j] *= inv;
}

}  // namespace

KTpFL::KTpFL(data::Dataset public_data, KTpFLConfig config)
    : public_data_(std::move(public_data)), config_(config) {
  FCA_CHECK(public_data_.size() > 0);
  FCA_CHECK(config_.temperature > 0.0f && config_.distill_epochs >= 0 &&
            config_.coef_lr > 0.0f);
}

void KTpFL::initialize(FederatedRun& run) {
  const int k = run.num_clients();
  coef_ = Tensor({k, k}, 1.0f / static_cast<float>(k));
  // One-time public data broadcast; its size dominates KT-pFL's traffic and
  // is what Table 5 charges the method for.
  Tensor labels({public_data_.size()});
  for (int64_t i = 0; i < public_data_.size(); ++i) {
    labels[i] = static_cast<float>(public_data_.labels[static_cast<size_t>(i)]);
  }
  const comm::Bytes payload =
      models::serialize_tensors({public_data_.images, labels});
  std::vector<int> all;
  for (int i = 0; i < k; ++i) all.push_back(i);
  run.server_endpoint().bcast_send(FederatedRun::ranks_of(all),
                                   kTagPublicData, payload);
  // Clients keep their own copy; in this simulation the receive just
  // consumes the duplicate payload.
  run.receive_each(all, kTagPublicData, nullptr);
}

comm::Bytes KTpFL::initialize_lazy(FederatedRun& run) {
  const int k = run.num_clients();
  coef_ = Tensor({k, k}, 1.0f / static_cast<float>(k));
  return {};
}

comm::Bytes KTpFL::save_state() const {
  return models::serialize_tensors({coef_});
}

void KTpFL::load_state(std::span<const std::byte> state) {
  std::vector<Tensor> t = models::deserialize_tensors(state);
  FCA_CHECK_MSG(t.size() == 1 && t[0].ndim() == 2 &&
                    t[0].dim(0) == t[0].dim(1),
                "KT-pFL state must hold one square coefficient matrix");
  coef_ = std::move(t[0]);
}

Tensor KTpFL::personalized_target(
    int k, const std::vector<int>& selected,
    const std::vector<Tensor>& soft_preds) const {
  const int64_t kk = coef_.dim(0);
  Tensor target(soft_preds.front().shape());
  double weight_total = 0.0;
  for (size_t j = 0; j < selected.size(); ++j) {
    weight_total += coef_[k * kk + selected[j]];
  }
  FCA_CHECK(weight_total > 0.0);
  for (size_t j = 0; j < selected.size(); ++j) {
    const auto w = static_cast<float>(coef_[k * kk + selected[j]] /
                                      weight_total);
    axpy_(target, w, soft_preds[j]);
  }
  return target;
}

void KTpFL::update_coefficients(const std::vector<int>& selected,
                                const std::vector<Tensor>& soft_preds) {
  const int64_t kk = coef_.dim(0);
  const auto n = static_cast<float>(soft_preds.front().numel());
  for (size_t a = 0; a < selected.size(); ++a) {
    const int k = selected[a];
    const Tensor target = personalized_target(k, selected, soft_preds);
    // d/dc_kl of ||t_k - p_k||^2 with t_k = sum_l c_kl p_l (pre-normalized
    // view): 2 <t_k - p_k, p_l>.
    for (size_t b = 0; b < selected.size(); ++b) {
      const int l = selected[b];
      double g = 0.0;
      for (int64_t i = 0; i < soft_preds[b].numel(); ++i) {
        g += 2.0 * (target[i] - soft_preds[a][i]) * soft_preds[b][i];
      }
      coef_[k * kk + l] -= config_.coef_lr * static_cast<float>(g) / n;
    }
    project_row(coef_, k, kk);
  }
}

ClientUpdate KTpFL::update(FederatedRun& run, int round, Client& client,
                           std::span<const std::byte> down) {
  (void)round;
  (void)down;
  // 1+2. Local supervised training, then soft predictions on the public
  // data. Training needs no downlink, so every live client trains; only its
  // logits upload can be lost.
  const double loss =
      run.local_train([&] { return client.train_epoch_supervised(); });
  const Tensor logits = client.predict_logits(public_data_);
  return {loss, models::serialize_tensors({logits})};
}

void KTpFL::reduce(FederatedRun& run,
                   const FederatedRun::SurvivorGather& gathered) {
  const float t = config_.temperature;
  const std::vector<int>& survivors = gathered.survivors;
  std::vector<Tensor> soft_preds;
  soft_preds.reserve(survivors.size());
  for (const comm::Bytes& payload : gathered.payloads) {
    const std::vector<Tensor> up = models::deserialize_tensors(payload);
    // The coefficient update reads every pair of survivors element-wise, so
    // all logits must share one [public samples, C] shape.
    FCA_CHECK_MSG(up.size() == 1 && up[0].ndim() == 2 &&
                      up[0].dim(0) == public_data_.size() &&
                      (soft_preds.empty() ||
                       up[0].same_shape(soft_preds.front())),
                  "KT-pFL upload must hold one [" << public_data_.size()
                                                  << ", C] logits tensor");
    soft_preds.push_back(softmax_rows(mul_scalar(up[0], 1.0f / t)));
  }

  // 3. Knowledge-coefficient update over the surviving cohort.
  update_coefficients(survivors, soft_preds);

  if (!config_.share_weights) {
    // 4a. Server -> survivors: personalized soft targets; clients distill.
    // A lost target downlink means that client skips distillation.
    {
      obs::TraceSpan bcast_span("fl", "broadcast",
                                static_cast<int64_t>(survivors.size()));
      for (size_t a = 0; a < survivors.size(); ++a) {
        const int k = survivors[a];
        Tensor target = personalized_target(k, survivors, soft_preds);
        run.server_endpoint().send(k + 1, kTagAuxDown,
                                   models::serialize_tensors({target}));
      }
    }
    run.receive_each(survivors, kTagAuxDown,
                     [&](Client& c, const comm::Bytes& down_bytes) {
      obs::TraceSpan distill_span("fl", "distill", config_.distill_epochs);
      const std::vector<Tensor> down = models::deserialize_tensors(down_bytes);
      FCA_CHECK_MSG(down.size() == 1 && down[0].ndim() == 2 &&
                        down[0].dim(0) == public_data_.size(),
                    "KT-pFL target must hold one [" << public_data_.size()
                                                    << ", C] tensor");
      const Tensor& target = down[0];
      for (int e = 0; e < config_.distill_epochs; ++e) {
        data::BatchLoader loader(public_data_, {}, c.config().batch_size);
        for (const auto& idx : loader.epoch(c.rng())) {
          const data::Batch batch = data::make_batch(public_data_, idx);
          Tensor target_rows = gather_rows(target, idx);
          c.optimizer().zero_grad();
          Tensor logits = c.model().forward(batch.images, /*train=*/true);
          nn::LossResult loss = nn::soft_target_cross_entropy(
              mul_scalar(logits, 1.0f / t), target_rows);
          // d/d(logits) = (1/t) d/d(logits/t); the t^2 distillation factor
          // and 1/t cancel to a net factor of t.
          c.model().backward(mul_scalar(loss.grad, t));
          c.optimizer().step();
        }
      }
    });
    return;
  }

  // 4b. "+weight": survivors upload weights; each one that still reports in
  // time receives the coefficient-weighted personalized model. A client
  // whose upload or downlink is lost keeps its local model.
  run.executor().for_each(survivors, [&run](int k) {
    const ClientStore::Lease lease = run.lease_client_readonly(k);
    run.client_endpoint(k).send(
        0, kTagModelUp, models::serialize_values(lease->model().parameters()));
  });
  obs::TraceSpan exch_span("fl", "exchange");
  const FederatedRun::SurvivorGather gw =
      run.gather_survivors(survivors, kTagModelUp, run.round_deadline());
  exch_span.set_value(static_cast<int64_t>(gw.survivors.size()));
  if (!gw.quorum_met || gw.survivors.empty()) return;
  // Parsed once; every personalized model sums the same views.
  std::vector<std::vector<models::TensorView>> views;
  views.reserve(gw.payloads.size());
  for (const comm::Bytes& p : gw.payloads) {
    views.push_back(models::view_tensors(p));
  }
  const std::vector<std::span<const models::TensorView>> ups(views.begin(),
                                                             views.end());
  const int64_t kk = coef_.dim(0);
  std::vector<float> w(gw.survivors.size());
  std::vector<Tensor> personalized;
  for (const int k : gw.survivors) {
    double wt = 0.0;
    for (const int l : gw.survivors) wt += coef_[k * kk + l];
    for (size_t b = 0; b < w.size(); ++b) {
      w[b] = static_cast<float>(coef_[k * kk + gw.survivors[b]] / wt);
    }
    models::weighted_sum_into(ups, w, personalized);
    run.server_endpoint().send(k + 1, kTagModelDown,
                               models::serialize_tensors(personalized));
  }
  run.receive_each(gw.survivors, kTagModelDown,
                   [](Client& c, const comm::Bytes& down) {
                     models::restore_values(down, c.model().parameters());
                   });
}

}  // namespace fca::fl
