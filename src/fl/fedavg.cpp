#include "fl/fedavg.hpp"

#include "models/serialize.hpp"
#include "utils/error.hpp"

namespace fca::fl {

void FedAvg::initialize(FederatedRun& run) {
  global_ = models::snapshot_values(run.client(0).model().parameters());
  // Initial synchronization: ship the global model to every client. A
  // client cut off before round 1 keeps its own init weights; it is already
  // condemned, so every round excludes it.
  const comm::Bytes payload = models::serialize_tensors(global_);
  std::vector<int> all;
  for (int k = 0; k < run.num_clients(); ++k) all.push_back(k);
  run.server_endpoint().bcast_send(FederatedRun::ranks_of(all), kTagModelDown,
                                   payload);
  run.receive_each(all, kTagModelDown,
                   [&](Client& client, const comm::Bytes& down) {
                     bootstrap_client(run, client, down);
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
  models::restore_values(payload, client.model().parameters());
  client.reset_optimizer();
}

comm::Bytes FedAvg::save_state() const {
  return models::serialize_tensors(global_);
}

void FedAvg::load_state(std::span<const std::byte> state) {
  global_ = models::deserialize_tensors(state);
  FCA_CHECK_MSG(!global_.empty(), "FedAvg state is empty");
}

comm::Bytes FedAvg::downlink(FederatedRun& run) {
  (void)run;
  return models::serialize_tensors(global_);
}

ClientUpdate FedAvg::update(FederatedRun& run, int round, Client& client,
                            std::span<const std::byte> down) {
  (void)round;
  models::restore_values(down, client.model().parameters());
  client.reset_optimizer();
  const float mu = prox_mu();
  // FedProx's proximal anchor is the received model itself.
  const std::vector<Tensor> anchor =
      mu > 0.0f ? models::deserialize_tensors(down) : std::vector<Tensor>{};
  const double loss = run.local_train([&] {
    return client.train_epoch_supervised(mu > 0.0f ? &anchor : nullptr, mu);
  });
  return {loss, models::serialize_values(client.model().parameters())};
}

void FedAvg::reduce(FederatedRun& run,
                    const FederatedRun::SurvivorGather& gathered) {
  run.average_into(global_, gathered.survivors, gathered.payloads);
}

}  // namespace fca::fl
