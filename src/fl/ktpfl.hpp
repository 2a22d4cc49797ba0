// KT-pFL (Zhang et al. 2021): parameterized knowledge transfer.
//
// Re-implementation of the protocol: a public dataset is broadcast once;
// every round participants (1) train locally, (2) upload soft predictions on
// the public data, (3) the server updates a learnable knowledge-coefficient
// matrix c[K][K] so that each client's personalized soft target
// t_k = sum_l c_kl * p_l tracks informative peers, and (4) clients distill
// toward their personalized target. The "+weight" variant (Table 3) keeps a
// personalized *weight* aggregate per client on the server instead of soft
// predictions, as §4.3 describes; it requires homogeneous models.
//
// Coefficient update: gradient descent on sum_k ||t_k - p_k||^2 over the
// public batch with per-row simplex projection — the same
// "similar-clients-reinforce-each-other" fixed point as the reference
// implementation's distillation-loss gradient, without its autograd
// dependency.
#pragma once

#include "data/dataset.hpp"
#include "fl/server.hpp"

namespace fca::fl {

struct KTpFLConfig {
  float temperature = 2.0f;   // distillation temperature
  int distill_epochs = 1;     // client-side distillation passes per round
  float coef_lr = 0.3f;       // knowledge-coefficient gradient step
  bool share_weights = false; // "+weight" variant (homogeneous only)
};

class KTpFL : public PipelineStrategy {
 public:
  KTpFL(data::Dataset public_data, KTpFLConfig config = {});

  std::string name() const override {
    return config_.share_weights ? "KT-pFL+weight" : "KT-pFL";
  }
  void initialize(FederatedRun& run) override;
  /// Round stages: no downlink; each client trains and uploads its logits
  /// on the public data (kTagAuxUp); reduce() updates the coefficients over
  /// the survivors and runs phase 4 — distillation toward personalized
  /// targets, or the "+weight" personalized-model exchange.
  bool has_downlink() const override { return false; }
  ClientUpdate update(FederatedRun& run, int round, Client& client,
                      std::span<const std::byte> down) override;
  int upload_tag() const override { return kTagAuxUp; }
  void reduce(FederatedRun& run,
              const FederatedRun::SurvivorGather& gathered) override;
  /// Lazy init sets up the coefficient matrix only. The one-time public
  /// data broadcast is skipped: in this single-process simulation clients
  /// validate and discard the duplicate payload (the strategy trains them
  /// on its own public_data_ copy), so skipping it changes total_traffic
  /// but nothing the clients compute. Note coef_ is K x K — KT-pFL itself
  /// does not fit massive populations regardless of paging.
  bool supports_lazy_init() const override { return true; }
  comm::Bytes initialize_lazy(FederatedRun& run) override;
  /// The knowledge-coefficient matrix; the public dataset is construction
  /// state and is re-supplied on resume, not checkpointed.
  comm::Bytes save_state() const override;
  void load_state(std::span<const std::byte> state) override;

  /// Row-stochastic knowledge-coefficient matrix [K, K].
  const Tensor& coefficients() const { return coef_; }

 private:
  /// Personalized soft target for client k over the participant set.
  Tensor personalized_target(int k, const std::vector<int>& selected,
                             const std::vector<Tensor>& soft_preds) const;
  void update_coefficients(const std::vector<int>& selected,
                           const std::vector<Tensor>& soft_preds);

  data::Dataset public_data_;
  KTpFLConfig config_;
  Tensor coef_;  // [K, K]
};

}  // namespace fca::fl
