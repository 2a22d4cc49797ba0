// FedProto (Tan et al. 2022): federated prototype learning.
//
// Clients never exchange weights; instead each client uploads per-class
// feature prototypes (mean embeddings), the server aggregates them weighted
// by class counts, and local training adds a prototype-distance regularizer
// lambda * ||F(x) - proto[y]||^2 on top of cross-entropy. Requires all
// clients to share one feature dimension (the paper notes FedProto therefore
// assumes *less* model heterogeneity than the other methods).
#pragma once

#include "fl/server.hpp"
#include "models/serialize.hpp"

namespace fca::fl {

/// Global class prototypes and their seen-class mask: FedProto's server
/// state, shared with FedClassAvg+Proto.
struct Prototypes {
  Tensor protos;            // [C, D]; rows of unseen classes stay zero
  std::vector<bool> valid;  // valid[c]: some client has reported class c

  /// Zero prototypes, no class valid.
  void reset(int64_t num_classes, int64_t dim);
  /// `valid` as 0/1 floats: the downlink and checkpoint encoding.
  Tensor mask() const;
  /// Restores a (protos, mask()) pair; throws unless protos is [C, D] and
  /// the mask has exactly C entries.
  void restore(Tensor restored_protos, const Tensor& restored_mask);
  /// Count-weighted merge of client uploads (FedProto's server step): each
  /// upload's views [first] = protos [C, D] and [first + 1] = counts [C]
  /// must be its last two. Classes with a positive total count take the
  /// merged mean and become valid; the rest keep their previous row. Every
  /// upload is checked before anything changes.
  void merge(const std::vector<std::vector<models::TensorView>>& uploads,
             size_t first);
};

/// Decodes a Prototypes::mask() tensor; throws unless it has exactly
/// `num_classes` entries.
std::vector<bool> decode_mask(const Tensor& mask, int64_t num_classes);

/// Per-class mean features and counts over the client's train shard.
std::pair<Tensor, Tensor> local_prototypes(Client& c);

struct FedProtoConfig {
  float lambda = 1.0f;  // prototype regularizer weight
};

class FedProto : public PipelineStrategy {
 public:
  explicit FedProto(FedProtoConfig config = {}) : config_(config) {}

  std::string name() const override { return "FedProto"; }
  /// Round stages: global prototypes + mask down; each client trains with
  /// the prototype regularizer and uploads its local prototypes and class
  /// counts; the server merges them count-weighted.
  comm::Bytes downlink(FederatedRun& run) override;
  ClientUpdate update(FederatedRun& run, int round, Client& client,
                      std::span<const std::byte> down) override;
  void reduce(FederatedRun& run,
              const FederatedRun::SurvivorGather& gathered) override;
  /// FedProto has no init sweep (prototypes grow lazily from round 1), so
  /// lazy mode is the default behavior with an empty bootstrap.
  bool supports_lazy_init() const override { return true; }
  comm::Bytes save_state() const override;
  void load_state(std::span<const std::byte> state) override;

  /// Current global prototypes [num_classes, D]; rows of classes never seen
  /// are zero and `valid()[c]` is false.
  const Tensor& prototypes() const { return global_.protos; }
  const std::vector<bool>& valid() const { return global_.valid; }

 private:
  /// One local epoch with CE + prototype regularizer; returns mean loss.
  float train_epoch(Client& c, const Tensor& protos,
                    const std::vector<bool>& valid) const;

  FedProtoConfig config_;
  Prototypes global_;
};

}  // namespace fca::fl
