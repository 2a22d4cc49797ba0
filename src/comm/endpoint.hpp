// Rank-local endpoint with MPI-style point-to-point and collectives.
//
// In the FL simulation the server holds rank 0 and each client k holds rank
// k + 1. The broadcast meters every destination's copy through the Network
// cost model, exactly as a loop of sends over a flat MPI star topology
// would.
#pragma once

#include <optional>
#include <span>

#include "comm/network.hpp"

namespace fca::comm {

class Endpoint {
 public:
  Endpoint(Network& net, int rank);

  int rank() const { return rank_; }
  int world_size() const { return net_->size(); }

  void send(int dst, int tag, std::span<const std::byte> payload);
  Bytes recv(int src, int tag);

  /// Fault-tolerant receive: on a fabric with an active fault plan a missing
  /// message becomes std::nullopt (a reported loss); on a reliable fabric it
  /// stays a thrown protocol bug, preserving the strict historical check.
  /// No retry loop is needed: strategies call this at quiescent points
  /// (after the sender's phase completed), so one mailbox check is
  /// definitive — the "bounded retry" degenerates to a single attempt.
  /// `storage` lends a buffer whose capacity the payload may reuse
  /// (Network::gather).
  std::optional<Bytes> try_recv(int src, int tag, Bytes storage = {});

  /// try_recv() that additionally enforces a simulated-time round deadline:
  /// a message slower than `deadline_s` (e.g. from a straggler) is consumed,
  /// counted as a FaultStats deadline miss, and reported as std::nullopt.
  /// +infinity means "no deadline"; a zero, negative or NaN deadline is a
  /// caller bug and throws on every fabric (reliable ones included).
  std::optional<Bytes> recv_with_deadline(int src, int tag,
                                          double deadline_s,
                                          Bytes storage = {});

  /// Root-side broadcast: sends the payload to each destination rank
  /// (Network::broadcast).
  void bcast_send(const std::vector<int>& dsts, int tag,
                  std::span<const std::byte> payload);

  Network& network() { return *net_; }

 private:
  Network* net_;
  int rank_;
};

}  // namespace fca::comm
