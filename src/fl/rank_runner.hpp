// Multi-process execution model (DESIGN.md §14).
//
// A scoped run splits one FederatedRun across world_size = population + 1 OS
// processes over a multi-process comm::Transport (shm rings or TCP). The
// model is SPMD full-mirror: every rank deterministically builds the
// complete experiment (clients are pure functions of the seed) and executes
// the identical driver + strategy code. Scoped mode changes only
//
//   * which client bodies run where — joiner rank r executes exactly client
//     r - 1's bodies; the root (rank 0) executes none and hosts the
//     strategy's aggregation state, the metric curve and checkpoints;
//   * how values travel — data-plane messages move over the fabric wrapped
//     in an accounting envelope (comm::Network scoped mode), while four
//     control-plane flows below keep every rank's view coherent.
//
// Control plane (tags >= comm::Network::kOobTagBase, never metered):
//   * map values: after each executor sweep a joiner ships its owned
//     positions' results to the root, which fills every slot — the
//     reconcile doubles as the per-sweep cross-rank barrier, and is where a
//     SIGKILLed peer is detected (io-timeout -> condemnation).
//   * gather mirror: the root performs the real server-side receives of
//     every gather (the initialization barrier's and each round's) and
//     broadcasts the outcome (survivors, payloads) so SPMD strategy code,
//     and the quorum decision each rank derives from it, take identical
//     branches on all ranks.
//   * state sync: after initialization and every round each joiner ships
//     its own client's full serialized state (model + optimizer + RNG) to
//     the root's mirror store, which evaluation and checkpoints read. A
//     client still clean (never mutated: factory output) ships an empty
//     blob and stays clean on the root too, so the root's dirty set — what
//     its checkpoints record — equals the oracle's.
//   * trace sync: each joiner ships its own-rank trace events; the root
//     injects them so the end-of-run logical trace equals the oracle's.
//
// Rendezvous extends the PR 6 handshake to v2: the root publishes seed,
// fault schedule, resume round, world shape, a config digest and run flags;
// a joiner whose locally derived context differs is rejected
// (kHandshakeRejected) instead of silently training a divergent run.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "comm/network.hpp"
#include "comm/transport/handshake.hpp"
#include "fl/server.hpp"
#include "obs/trace.hpp"

namespace fca::fl {

// Control-plane tags (all above Network::kOobTagBase, which the data plane
// rejects).
inline constexpr int kOobMapValue = comm::Network::kOobTagBase + 1;
inline constexpr int kOobGather = comm::Network::kOobTagBase + 2;
inline constexpr int kOobState = comm::Network::kOobTagBase + 4;
inline constexpr int kOobTrace = comm::Network::kOobTagBase + 5;

/// FNV-1a digest over every FLConfig field that must agree across ranks for
/// the runs to be equivalent (rounds, epochs, sampling, quorum, eval
/// cadence, cost model, seed, population). client_parallelism is excluded:
/// it is a wall-time knob with a bit-identity guarantee.
uint64_t scoped_config_digest(const FLConfig& config, int population);

/// The handshake a rank derives from its local configuration. The root
/// publishes it at rendezvous; joiners compare the root's against their own.
comm::Handshake make_scoped_handshake(const FLConfig& config, int population);

/// The gather mirror's wire form: a u32 count, then per survivor its client
/// index (i32) and u32-prefixed payload.
comm::Bytes encode_gather_mirror(const FederatedRun::SurvivorGather& g);
/// Inverse of encode_gather_mirror for a gather over `expected`; throws
/// fca::Error unless the survivors are a subsequence of `expected` and the
/// blob ends where the mirror does. Each rank derives quorum_met itself.
FederatedRun::SurvivorGather decode_gather_mirror(
    std::span<const std::byte> blob, const std::vector<int>& expected);

/// A map value's wire form is one f64: a joiner's result for one position
/// of an executor sweep. Throws fca::Error unless the blob is exactly that.
double decode_map_value(std::span<const std::byte> blob);

/// One joiner-shipped trace event; its category and name are held here
/// until the root interns them (obs::Tracer::inject).
struct ShippedTraceEvent {
  obs::TraceEvent event;
  std::string cat;
  std::string name;
};

/// The trace sync's wire form: a u32 count, then per event of rank `rank`
/// its round and rank (i32), seq (u64), u32-prefixed cat and name, and
/// value (u64). Events of other ranks are left out.
comm::Bytes encode_trace_sync(const std::vector<obs::TraceEvent>& events,
                              int rank);
/// Inverse of encode_trace_sync; throws fca::Error unless the blob ends
/// where the last event does.
std::vector<ShippedTraceEvent> decode_trace_sync(
    std::span<const std::byte> blob);

/// Joiner-side check of the root's published context against the locally
/// derived one. Throws TransportError(kHandshakeRejected) on any mismatch;
/// on success adopts the root's tracing flag so joiners record (and later
/// ship) trace events exactly when the root does.
void verify_scoped_handshake(const comm::Handshake& got,
                             const comm::Handshake& expected);

}  // namespace fca::fl
