#include "fl/fedavg.hpp"

#include <limits>
#include <optional>

#include "models/serialize.hpp"
#include "obs/trace.hpp"
#include "utils/error.hpp"

namespace fca::fl {

void FedAvg::initialize(FederatedRun& run) {
  global_ = models::snapshot_values(run.client(0).model().parameters());
  // Initial synchronization: ship the global model to every client.
  const comm::Bytes payload = models::serialize_tensors(global_);
  std::vector<int> all;
  for (int k = 0; k < run.num_clients(); ++k) all.push_back(k);
  run.server_endpoint().bcast_send(FederatedRun::ranks_of(all), kTagModelDown,
                                   payload);
  run.executor().for_each(all, [&run](int k) {
    const ClientStore::Lease lease = run.lease_client(k);
    const comm::Bytes down = run.client_endpoint(k).recv(0, kTagModelDown);
    models::restore_values(models::deserialize_tensors(down),
                           lease->model().parameters());
    lease->reset_optimizer();
  });
}

comm::Bytes FedAvg::initialize_lazy(FederatedRun& run) {
  global_ =
      models::snapshot_values(run.client_readonly(0).model().parameters());
  return models::serialize_tensors(global_);
}

void FedAvg::bootstrap_client(FederatedRun& run, Client& client,
                              const comm::Bytes& payload) {
  (void)run;
  models::restore_values(models::deserialize_tensors(payload),
                         client.model().parameters());
  client.reset_optimizer();
}

comm::Bytes FedAvg::save_state() const {
  return models::serialize_tensors(global_);
}

void FedAvg::load_state(std::span<const std::byte> state) {
  global_ = models::deserialize_tensors(state);
  FCA_CHECK_MSG(!global_.empty(), "FedAvg state is empty");
}

float FedAvg::execute_round(FederatedRun& run, int round,
                            const std::vector<int>& selected) {
  // Server -> live cohort members: current global model. Crashed clients
  // are filtered out up front — they neither receive nor train this round.
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
    run.server_endpoint().bcast_send(FederatedRun::ranks_of(live),
                                     kTagModelDown, payload);
  }

  // Clients: load, train E local epochs, upload — one executor body per
  // participant. A client whose downlink was lost skips the round and
  // reports NaN (excluded from the loss mean).
  const std::vector<double> losses = run.executor().map(live, [&](int k) {
    const ClientStore::Lease lease = run.lease_client(k);
    Client& c = *lease;
    comm::Endpoint& ep = run.client_endpoint(k);
    const std::optional<comm::Bytes> down_bytes = ep.try_recv(0, kTagModelDown);
    if (!down_bytes.has_value()) {
      return std::numeric_limits<double>::quiet_NaN();
    }
    const std::vector<Tensor> down = models::deserialize_tensors(*down_bytes);
    models::restore_values(down, c.model().parameters());
    c.reset_optimizer();
    const float mu = prox_mu();
    double loss = 0.0;
    {
      obs::TraceSpan train_span("fl", "local-train",
                                run.config().local_epochs);
      for (int e = 0; e < run.config().local_epochs; ++e) {
        loss += c.train_epoch_supervised(mu > 0.0f ? &down : nullptr, mu);
      }
    }
    ep.send(0, kTagModelUp, models::serialize_values(c.model().parameters()));
    return loss;
  });

  // Server: weighted average over the survivors (eq. 1 weights renormalized
  // to the clients that actually reported); below quorum the round aborts
  // and the previous global model is kept.
  obs::TraceSpan agg_span("fl", "aggregate");
  const FederatedRun::SurvivorGather g =
      run.gather_survivors(live, kTagModelUp);
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
  return FederatedRun::mean_finite(losses, run.config().local_epochs);
}

}  // namespace fca::fl
