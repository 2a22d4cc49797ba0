// FedClassAvg — the paper's contribution (Algorithm 1).
//
// Per communication round:
//   1. the server broadcasts the global classifier C^t to the sampled
//      clients (only a single FC layer's weights travel);
//   2. each client replaces its local classifier with C^t and trains E local
//      epochs on the combined objective of eq. (4):
//          L = L_CL(F(x'), F(x'')) + L_CE(y, y_hat) + rho * L_R(C, C_k)
//      where L_CL is the supervised contrastive loss over two augmented
//      views, L_CE is cross-entropy on the first view, and L_R is the L2
//      distance between the local and global classifier weights (eq. 5);
//   3. clients upload classifiers and the server averages them weighted by
//      |D_k| / |D| (eq. 3).
//
// The `share_all_weights` flag implements the homogeneous "+weight" variant
// of §4.3: all parameters are aggregated, but the proximal term still only
// regularizes the classifier. The ablation flags reproduce Table 4.
#pragma once

#include <functional>

#include "autograd/variable.hpp"
#include "fl/server.hpp"

namespace fca::core {

/// Which contrastive objective drives the representation learning term.
enum class ContrastiveMode {
  kSupervised,      // SupCon (Khosla et al.) — what the paper uses
  kSelfSupervised,  // NT-Xent / SimCLR — the label-free variant the paper's
                    // conclusion proposes exploring
};

struct FedClassAvgConfig {
  bool use_contrastive = true;  // L_CL       (Table 4 "+CL")
  bool use_proximal = true;     // rho * L_R  (Table 4 "+PR")
  float rho = 0.1f;             // proximal ratio (Table 1)
  float temperature = 0.07f;    // SupCon temperature (Khosla et al. default)
  ContrastiveMode contrastive_mode = ContrastiveMode::kSupervised;
  /// Homogeneous "+weight" variant: aggregate every parameter, not just the
  /// classifier. Requires all clients to share one architecture.
  bool share_all_weights = false;
};

class FedClassAvg : public fl::PipelineStrategy {
 public:
  explicit FedClassAvg(FedClassAvgConfig config = {});

  std::string name() const override;
  /// Builds C^1 as the data-weighted average of the clients' initial
  /// classifiers (the full models in +weight) and synchronizes everyone.
  void initialize(fl::FederatedRun& run) override;
  /// Round stages (Algorithm 1): C^t down; each client restores it, trains
  /// E epochs of eq. 4 and uploads its classifier; the server averages the
  /// survivors' classifiers (eq. 3).
  comm::Bytes downlink(fl::FederatedRun& run) override;
  fl::ClientUpdate update(fl::FederatedRun& run, int round, fl::Client& client,
                          std::span<const std::byte> down) override;
  void reduce(fl::FederatedRun& run,
              const fl::FederatedRun::SurvivorGather& gathered) override;
  /// Lazy init streams every client through a read-only touch in id order,
  /// accumulating the same data-weighted C^1 the eager barrier gathers
  /// (identical arithmetic: weights from run.data_weights over all ids,
  /// axpy in the same order), and returns C^1 as the bootstrap payload —
  /// each client's first materialization then restores it, exactly like the
  /// eager re-sync broadcast. No fabric traffic, so there is no init-time
  /// condemnation: lazy init is the reliable-fabric path.
  bool supports_lazy_init() const override { return true; }
  comm::Bytes initialize_lazy(fl::FederatedRun& run) override;
  void bootstrap_client(fl::FederatedRun& run, fl::Client& client,
                        const comm::Bytes& payload) override;
  comm::Bytes save_state() const override;
  void load_state(std::span<const std::byte> state) override;

  /// Current global classifier [weight [C, D], bias [C]] (after
  /// initialize(); in +weight mode the classifier slice of the global
  /// model).
  std::vector<Tensor> global_classifier() const;

  const FedClassAvgConfig& config() const { return config_; }

  /// An extra loss term on one batch: receives the features of both views
  /// ([2B, D], first view first) and the batch labels, returns a scalar.
  using ExtraTerm = std::function<ag::Variable(const ag::Variable& features,
                                               const std::vector<int>& labels)>;

  /// One local epoch of the eq. (4) objective against the given global
  /// classifier (weight, bias), plus `extra` when set (FedClassAvg+Proto's
  /// prototype pull). Exposed for tests and for the ablation bench; returns
  /// the mean batch loss.
  float train_epoch(fl::Client& client, const Tensor& global_weight,
                    const Tensor& global_bias,
                    const ExtraTerm& extra = {}) const;

 protected:
  /// Aggregated values: classifier [W, b], or every parameter in +weight
  /// mode (classifier params come last, matching SplitModel::parameters()).
  std::vector<Tensor> global_;

 private:
  FedClassAvgConfig config_;
};

}  // namespace fca::core
