// FedClassAvg + prototype learning — the extension the paper's conclusion
// proposes ("combining ... prototype training with our method can bring
// effective enhancements").
//
// Protocol per round = FedClassAvg's classifier exchange (Algorithm 1)
// *plus* a FedProto-style prototype exchange: clients upload per-class mean
// features, the server aggregates them weighted by class counts, and the
// local objective gains a prototype-distance term:
//
//   L = L_CL + L_CE + rho * L_R + lambda * mean_i ||F(x'_i) - proto[y_i]||^2
//
// The prototype pull gives the feature extractors a *direct* cross-client
// alignment signal on top of the indirect one the shared classifier
// provides; the extra traffic is one [C, D] matrix per direction per round.
// Requires a common feature dimension (which FedClassAvg already assumes).
// Initialization, the client bootstrap and the eq. 4 head are FedClassAvg's.
#pragma once

#include "core/fedclassavg.hpp"
#include "fl/fedproto.hpp"

namespace fca::core {

struct FedClassAvgProtoConfig {
  FedClassAvgConfig base;
  /// Prototype-distance weight. Kept mild by default: early-round
  /// prototypes come from barely trained extractors, and pulling features
  /// toward them too hard slows the supervised objective down.
  float lambda = 0.2f;
  /// Rounds to wait before enabling the prototype term, letting the
  /// extractors produce meaningful prototypes first.
  int warmup_rounds = 2;
};

class FedClassAvgProto : public FedClassAvg {
 public:
  explicit FedClassAvgProto(FedClassAvgProtoConfig config = {});

  std::string name() const override { return "FedClassAvg+Proto"; }
  /// FedClassAvg's C^1 synchronization (eager or lazy) plus zero
  /// prototypes.
  void initialize(fl::FederatedRun& run) override;
  comm::Bytes initialize_lazy(fl::FederatedRun& run) override;
  /// Round stages: FedClassAvg's, with the global prototypes + mask riding
  /// the downlink, local prototypes + class counts riding the upload, and a
  /// count-weighted prototype merge after the classifier average.
  comm::Bytes downlink(fl::FederatedRun& run) override;
  fl::ClientUpdate update(fl::FederatedRun& run, int round, fl::Client& client,
                          std::span<const std::byte> down) override;
  void reduce(fl::FederatedRun& run,
              const fl::FederatedRun::SurvivorGather& gathered) override;
  comm::Bytes save_state() const override;
  void load_state(std::span<const std::byte> state) override;

  /// Global prototypes [num_classes, D]; zero rows for classes not yet seen.
  const Tensor& prototypes() const { return protos_.protos; }
  const std::vector<bool>& prototype_valid() const { return protos_.valid; }

 private:
  /// Zero prototypes shaped like the global classifier's [C, D] weight.
  void reset_prototypes();

  FedClassAvgProtoConfig proto_config_;
  fl::Prototypes protos_;
};

}  // namespace fca::core
