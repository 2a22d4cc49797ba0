// FedAvg (McMahan et al. 2017): full-model weighted averaging over
// homogeneous clients. Requires all clients to share one architecture.
#pragma once

#include "fl/server.hpp"

namespace fca::fl {

class FedAvg : public PipelineStrategy {
 public:
  FedAvg() = default;

  std::string name() const override { return "FedAvg"; }
  /// Snapshots client 0 as the initial global model and broadcasts it so
  /// every client starts from identical weights.
  void initialize(FederatedRun& run) override;
  /// Round stages: the global model down; each client restores it, trains
  /// and uploads its whole model; the server averages the survivors'
  /// models (eq. 1 weights).
  comm::Bytes downlink(FederatedRun& run) override;
  ClientUpdate update(FederatedRun& run, int round, Client& client,
                      std::span<const std::byte> down) override;
  void reduce(FederatedRun& run,
              const FederatedRun::SurvivorGather& gathered) override;
  /// Lazy form of initialize(): snapshots client 0 (read-only touch) as the
  /// initial global model and returns it as the bootstrap payload — no
  /// broadcast. bootstrap_client() then restores that payload into each
  /// client at first materialization. The payload is frozen at arm time, so
  /// a client first selected in round 10 still starts from the *initial*
  /// global model, exactly like an eager-init client that was never
  /// sampled.
  bool supports_lazy_init() const override { return true; }
  comm::Bytes initialize_lazy(FederatedRun& run) override;
  void bootstrap_client(FederatedRun& run, Client& client,
                        const comm::Bytes& payload) override;
  comm::Bytes save_state() const override;
  void load_state(std::span<const std::byte> state) override;

 protected:
  /// Hook for FedProx: returns the proximal coefficient (0 disables).
  virtual float prox_mu() const { return 0.0f; }

  std::vector<Tensor> global_;  // current global parameter values
};

}  // namespace fca::fl
