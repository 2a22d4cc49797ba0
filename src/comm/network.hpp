// Message-passing fabric: policy layer over a pluggable transport.
//
// Replaces the paper's MPICH deployment (see DESIGN.md §1): ranks exchange
// tagged byte messages through a comm::Transport backend (in-process
// mailboxes, shared-memory rings, or TCP sockets — comm/transport/) with full
// traffic accounting and a configurable latency/bandwidth cost model. The
// API mirrors MPI point-to-point semantics, plus the star round's two
// collectives, broadcast and gather. Thread-safe, so ranks may also be
// driven from worker threads: every call holds one policy mutex.
//
// A collective does its policy work serially under that mutex, in
// destination or source order, exactly as a loop of point-to-point calls
// would: metering, fault decisions, envelopes, deadline misses and
// condemnations. Only the byte moves go to the backend as one batch
// (Transport::send_many / recv_many), which the shm backend fans out over
// the kernel pool.
//
// Network owns everything that must be backend-invariant: the cost model
// stamps each message's simulated transfer time before it reaches the
// transport, fault decisions are made here (pure functions of the fault
// seed), and traffic counters tally sends whether or not the message
// survives injection. Swapping the backend therefore changes how bytes move,
// never what the simulation computes.
//
// A Network may carry a FaultPlan (comm/fault.hpp): inside a round
// (begin_round/end_round) it drops messages, delays a straggler's sends past
// recv_within() deadlines, and blackholes traffic of crashed ranks — all
// deterministically from the fault seed, with every event counted in
// FaultStats. Without a plan (or outside rounds) delivery is perfect and the
// behavior is exactly the historical one.
#pragma once

#include <cstddef>
#include <cstdint>
#include <limits>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <span>
#include <vector>

#include "comm/fault.hpp"
#include "comm/transport/error.hpp"
#include "comm/transport/transport.hpp"
#include "obs/metrics.hpp"

namespace fca::comm {

struct TrafficStats {
  uint64_t messages = 0;
  uint64_t payload_bytes = 0;
  /// Simulated transfer time under the latency + size/bandwidth model
  /// (plus any injected straggler delay).
  double sim_seconds = 0.0;

  /// Overflow-checked accumulation (throws fca::Error instead of wrapping).
  TrafficStats& operator+=(const TrafficStats& other);
};

struct CostModel {
  /// Fixed per-message latency (seconds).
  double latency_s = 0.0;
  /// Link bandwidth (bytes/second); infinite by default.
  double bandwidth_bps = std::numeric_limits<double>::infinity();

  /// Throws fca::Error on a physically meaningless model (negative latency
  /// or non-positive bandwidth). Network re-checks this on construction so
  /// field-assigned models are validated too.
  void validate() const;

  double transfer_seconds(size_t bytes) const {
    return latency_s + static_cast<double>(bytes) / bandwidth_bps;
  }
};

class Network {
 public:
  /// First tag reserved for the multi-process control plane (the rank
  /// runner's out-of-band mirrors). Data-plane sends must stay below it:
  /// control traffic is never metered, so letting it share the tag space
  /// would silently corrupt the byte accounting.
  static constexpr int kOobTagBase = 0x7F000000;

  /// A null `transport` builds the in-process backend (the historical
  /// behavior and the determinism oracle). A supplied transport must span
  /// the same world: `ranks == transport->world_size()`.
  explicit Network(int ranks, CostModel cost = {}, FaultConfig faults = {},
                   std::unique_ptr<Transport> transport = nullptr);

  int size() const { return ranks_; }

  /// True when this Network drives a single rank of a multi-process world
  /// (the transport was built with a concrete self_rank). Scoped mode
  /// changes delivery mechanics — sends whose src is another process are
  /// no-ops, remote payloads travel in an envelope replaying the sender's
  /// metering — never what the simulation computes: rank 0's ledgers match
  /// the all-local oracle bit for bit.
  bool scoped() const { return scoped_; }
  /// This process's fabric rank in scoped mode; TransportOptions::kAllRanks
  /// otherwise.
  int self_rank() const { return self_rank_; }

  /// The backend moving the bytes (never null).
  const Transport& transport() const { return *transport_; }

  /// Enqueues a message from `src` to `dst` under `tag`. Traffic is always
  /// metered (the sender paid for the bytes); an active fault plan may then
  /// lose the message in flight or delay its arrival. The payload is only
  /// borrowed: the transport makes the one owned copy it needs.
  void send(int src, int dst, int tag, std::span<const std::byte> payload);

  /// Dequeues the oldest message from `src` to `dst` under `tag`.
  /// Throws if none is pending — in a deterministically scheduled
  /// simulation a blocking receive with no matching send is a protocol bug.
  /// (On a multi-process backend the transport first waits up to its io
  /// timeout for the remote sender.) Fault-tolerant code paths use
  /// try_recv/recv_within instead.
  Bytes recv(int dst, int src, int tag);

  /// Like recv(), but a missing message is a reported loss
  /// (std::nullopt), not a protocol bug.
  std::optional<Bytes> try_recv(int dst, int src, int tag);

  /// try_recv() with a simulated-time deadline: a pending message whose
  /// transfer time exceeds `deadline_s` is consumed, counted as a
  /// FaultStats deadline miss, and reported as std::nullopt — the straggler
  /// model's server-side half. Rejects non-positive (or NaN) deadlines.
  std::optional<Bytes> recv_within(int dst, int src, int tag,
                                   double deadline_s);

  /// send() from `src` to each of `dsts`, with the metering, seq values,
  /// fault decisions and failures of a loop of send() in `dsts` order. The
  /// surviving frames reach the backend as one Transport::send_many batch
  /// (send() is the one-destination case).
  void broadcast(int src, std::span<const int> dsts, int tag,
                 std::span<const std::byte> payload);

  /// One receive into `dst` per source, with the outcome of this loop in
  /// `srcs` order: a strict recv() on a reliable fabric (!lossy()),
  /// otherwise recv_within(deadline_s), or try_recv() when deadline_s is
  /// +infinity (a lossy gather rejects a non-positive deadline). Entry i is
  /// srcs[i]'s payload, or std::nullopt for a reported loss. The bytes move
  /// as one Transport::recv_many batch; `storage` lends buffers (moved
  /// from) whose capacity payload i may reuse. A strict gather that throws
  /// may have consumed later sources' messages.
  std::vector<std::optional<Bytes>> gather(int dst, std::span<const int> srcs,
                                           int tag, double deadline_s,
                                           std::span<Bytes> storage = {});

  /// True when a matching message is pending.
  bool has_message(int dst, int src, int tag) const;

  /// Number of undelivered messages (should be 0 at simulation end).
  size_t pending_messages() const;

  /// Drops every undelivered message. Crash recovery uses this: a failure
  /// mid-round leaves half-delivered broadcasts in the mailboxes, which must
  /// be discarded before the round is replayed from a checkpoint.
  void clear_pending();

  /// Traffic sent by one rank.
  TrafficStats rank_stats(int rank) const;
  /// Aggregate traffic.
  TrafficStats total_stats() const;
  /// Replaces the per-rank accounting with checkpointed values (must have
  /// exactly size() entries). Resume uses this so traffic totals after an
  /// interrupted-and-resumed run match the uninterrupted run's bit for bit.
  void restore_stats(const std::vector<TrafficStats>& sent);

  // -- fault injection -------------------------------------------------------
  /// The (possibly no-op) fault schedule. Decision queries (crashed,
  /// straggling, ...) are pure functions and safe from any thread.
  const FaultPlan& fault_plan() const { return plan_; }
  /// Scopes injection to a communication round; traffic outside a round
  /// (initialization, teardown) is delivered reliably.
  void begin_round(int round);
  void end_round();

  /// Injected-fault counters so far.
  FaultStats fault_stats() const;
  /// Replaces the fault counters with checkpointed values (resume).
  void restore_fault_stats(const FaultStats& stats);
  /// Records round-level fault consequences decided above the fabric
  /// (crashed cohort members, rejoins, a below-quorum abort).
  void record_round_faults(uint64_t crashed_clients, uint64_t rejoins,
                           bool aborted);

  // -- peer-death degradation (DESIGN.md §12) --------------------------------
  /// False once `rank` has been condemned by a real transport failure
  /// (connection reset, corrupt frame, drained io timeout). A dead peer's
  /// traffic is silently short-circuited: sends to it are lost, receives
  /// from it report "nothing", so the survivor-set round machinery treats
  /// it exactly like an injected crash.
  bool peer_alive(int rank) const;
  /// Any peer condemned so far?
  bool degraded() const;
  /// True when messages can fail to arrive: an active fault plan, a
  /// fallible backend (multi-process or chaos-wrapped), or an already
  /// degraded world. Loss-tolerant call sites (Endpoint's reliable-fabric
  /// shortcut, the survivor-set gather) branch on this instead of on the
  /// fault plan alone, so real failures degrade exactly like injected ones.
  bool lossy() const;

  // -- scoped-mode control plane (DESIGN.md §14) -----------------------------
  /// Ships `payload` directly through the transport: no metering, no fault
  /// injection, no envelope. Only tags >= kOobTagBase are accepted. A dead
  /// peer is skipped; a transport error condemns the peer instead of
  /// propagating. Scoped mode only.
  void oob_send(int dst, int tag, std::span<const std::byte> payload);
  /// Blocking control-plane receive (up to `attempts` spans of the
  /// transport's io timeout). std::nullopt means the peer is — now, if not
  /// before — condemned. Waits on the root use attempts > 1: before
  /// publishing a mirror the root may spend up to one io timeout per
  /// newly-dead joiner discovering the deaths, so a joiner waiting with the
  /// same single timeout would condemn a healthy root. Waits on joiners
  /// keep attempts == 1 — that timeout IS the death-detection latency.
  std::optional<Bytes> oob_recv(int src, int tag, int attempts = 1);

 private:
  void check_rank(int rank) const;
  /// Shared recovery path: marks the rank dead, counts the real fault once,
  /// and purges its queued traffic from the transport. Caller holds mu_.
  bool condemn_locked(int rank, const std::string& why);
  /// Maps a caught TransportError onto a condemned peer (falling back to
  /// `fallback_rank` when the error carries no rank) or rethrows when the
  /// failure is not peer-scoped. Caller holds mu_.
  void degrade_locked(const TransportError& e, int fallback_rank);

  /// Registry counters for one (src, dst) link, resolved once per edge
  /// under mu_ and cached (registry lookups are by-name map walks).
  struct EdgeCounters {
    obs::Counter* messages = nullptr;
    obs::Counter* bytes = nullptr;
  };
  EdgeCounters& edge_counters_locked(int src, int dst);

  /// The send policy for one message: meters it, makes its fault decisions
  /// and returns the frame to hand to the transport, or std::nullopt when
  /// nothing goes on the wire (a loss, a condemned link). A scoped frame is
  /// wrapped into `envelope`, which the returned view borrows. Caller holds
  /// mu_.
  std::optional<WireView> meter_locked(int src, int dst, int tag,
                                       std::span<const std::byte> payload,
                                       Bytes& envelope);

  /// How a receive treats a missing or late message: recv(), try_recv(),
  /// recv_within().
  enum class RecvMode { kStrict, kTry, kDeadline };
  static constexpr double kNoDeadline =
      std::numeric_limits<double>::infinity();
  /// The receives of recv/try_recv/recv_within/gather: decides per source,
  /// in order, whether and how to receive, moves the bytes as one
  /// recv_many batch, then finishes each source in order. Caller holds mu_.
  std::vector<std::optional<Bytes>> receive_locked(
      int dst, std::span<const int> srcs, int tag, RecvMode mode,
      double deadline_s, std::span<Bytes> storage);
  /// One source's outcome after the batch: errors, condemnation, envelope
  /// replay and deadline misses. Caller holds mu_.
  std::optional<Bytes> finish_recv_locked(int dst, int tag, RecvMode mode,
                                          double deadline_s, RecvSlot& slot);
  /// Unwraps a scoped-mode envelope from `src` and replays the sender's
  /// metering decisions into this rank's ledgers (the sender made them under
  /// the deterministic fault plan; replaying keeps every rank's totals equal
  /// to the oracle's). Returns the payload, or std::nullopt for a tombstone
  /// — a message the plan dropped, shipped anyway so the receiver both
  /// accounts for it and knows not to keep waiting. Caller holds mu_.
  std::optional<Bytes> consume_wire_locked(int src, Bytes wire);

  int ranks_;
  CostModel cost_;
  FaultPlan plan_;
  mutable std::mutex mu_;
  std::unique_ptr<Transport> transport_;
  std::vector<TrafficStats> sent_;
  std::vector<char> peer_dead_;
  FaultStats faults_;
  std::map<std::pair<int, int>, EdgeCounters> edges_;
  bool scoped_ = false;
  int self_rank_ = TransportOptions::kAllRanks;
  bool in_round_ = false;
};

}  // namespace fca::comm
