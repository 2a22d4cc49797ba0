// Baseline: every client trains on its local shard only, no communication.
// This is the "Baseline (local training)" row of Table 2.
#pragma once

#include "fl/server.hpp"

namespace fca::fl {

class LocalOnly : public PipelineStrategy {
 public:
  std::string name() const override { return "LocalOnly"; }
  /// The pipeline with local training only: no downlink, no upload. The
  /// crash model still applies — a crashed client does no local work.
  bool has_downlink() const override { return false; }
  ClientUpdate update(FederatedRun& run, int round, Client& client,
                      std::span<const std::byte> down) override;
  int upload_tag() const override { return kTagNone; }
  /// No server state and no init sweep: clients start from their factory
  /// weights, so lazy mode needs no bootstrap at all.
  bool supports_lazy_init() const override { return true; }
};

}  // namespace fca::fl
