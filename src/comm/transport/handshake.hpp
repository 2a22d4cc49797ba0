// Rendezvous payload: the run context rank 0 publishes when a multi-process
// world assembles.
//
// Every process must derive the identical fault schedule, RNG streams and
// byte accounting, so the root ships the experiment seed, the full
// FaultConfig (schedules are pure functions of it — see comm/fault.hpp) and,
// for a resumed run, the FaultStats counters plus the next round, letting a
// split run reproduce the exact schedule and totals of an unsplit one.
// Version 2 additionally pins the world shape (world_size, client
// population), a digest of the run configuration and a flags word so a
// joiner can refuse to enter a world whose run parameters diverge from its
// own instead of silently training a different experiment.
//
// The blob is versioned and little-endian (utils/bytes.hpp); the tcp backend
// carries it in the WELCOME control message, the shm backend embeds it in
// the region header. Any malformed blob — truncation, version skew,
// corrupted FaultConfig — surfaces as TransportError(kHandshakeRejected),
// never a crash and never silently-adopted defaults.
#pragma once

#include <cstdint>
#include <span>

#include "comm/fault.hpp"
#include "comm/transport/transport.hpp"

namespace fca::comm {

struct Handshake {
  /// Tracing enabled on the root; joiners adopt it so logical trace
  /// streams agree.
  static constexpr uint32_t kFlagTracing = 1u << 0;

  /// Experiment seed (training/sampling randomness).
  uint64_t seed = 0;
  /// First round still to execute (1 for a fresh run; a resumed run ships
  /// its checkpoint cursor so joiners scope faults identically).
  int next_round = 1;
  /// Fault schedule; pure-function decisions make it location-independent.
  FaultConfig faults;
  /// Injected-fault counters accumulated before a resume (all-zero fresh).
  FaultStats fault_stats;
  /// Fabric world size (clients + 1); joiners reject a mismatched world.
  uint32_t world_size = 0;
  /// Client population (cohort assignment: client k lives on rank k + 1).
  uint32_t population = 0;
  /// Digest over the run configuration (rounds, epochs, sampling, cost
  /// model, ...); both sides must agree or the run would diverge.
  uint64_t config_digest = 0;
  /// Run-mode flags (kFlag*).
  uint32_t flags = 0;

  Bytes serialize() const;
  /// Throws TransportError(kHandshakeRejected) on any malformed blob.
  static Handshake parse(std::span<const std::byte> blob);
};

}  // namespace fca::comm
