// Pluggable message fabrics behind the Network policy layer.
//
// comm::Network owns policy — the latency/bandwidth cost model, fault
// injection, per-rank traffic accounting — and delegates message motion to a
// Transport. Three backends implement the interface (DESIGN.md §11):
//
//   inproc — per-(src, dst, tag) FIFO mailboxes in process memory: the
//            historical fabric and the determinism oracle.
//   shm    — lock-free SPSC ring buffers in a (optionally named) shared
//            memory mapping, one ring per ordered (src, dst) pair, so a run
//            can span processes on one host.
//   tcp    — length-prefixed frames over non-blocking sockets with a
//            rendezvous handshake (rank assignment, seed + fault-plan
//            exchange), so a run can span machines MPI-style.
//
// Every backend carries the identical frame (framing.hpp), preserves
// per-(src, dst) send order, and accounts wire bytes with the same
// frame_size() formula, so one seeded run produces byte-identical learning
// curves, survivor sets and traffic counts on each backend.
//
// Threading contract: the owning Network serializes all calls under its
// policy lock, so backends need no internal locking for Network-driven use.
// The batch calls (send_many, recv_many) are serial loops by default; a
// backend may override them to move the bytes of different edges on the
// kernel pool, provided its tasks touch only their own edge and output slot
// and every shared counter or queue is updated on the calling thread after
// the join. shm overrides both (DESIGN.md §11). The shm rings themselves are
// additionally safe for one producer process and one consumer process per
// ring — that is the cross-process case.
#pragma once

#include <cstddef>
#include <cstdint>
#include <deque>
#include <exception>
#include <map>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "comm/retry.hpp"

namespace fca::comm {

using Bytes = std::vector<std::byte>;

/// A message handed to Transport::send: the addressing of a WireMessage
/// with a borrowed, read-only payload. The backend copies the bytes exactly
/// once, into whatever it keeps them in (DESIGN.md §11).
struct WireView {
  int src = 0;
  int dst = 0;
  int tag = 0;
  double transfer_s = 0.0;
  std::span<const std::byte> payload;
};

/// One addressed message on the fabric. `transfer_s` is the simulated
/// transfer time (cost model plus any injected straggler delay) stamped by
/// the sending-side policy layer and carried in the frame header, so round
/// deadlines behave identically on every backend.
struct WireMessage {
  int src = 0;
  int dst = 0;
  int tag = 0;
  double transfer_s = 0.0;
  Bytes payload;

  /// Borrows this message for a send; valid while the message lives.
  operator WireView() const { return {src, dst, tag, transfer_s, payload}; }
};

/// One source's receive in a Transport::recv_many batch.
struct RecvSlot {
  int src = 0;
  /// Block like wait_recv (a remote sender may still be writing) instead of
  /// polling like try_recv.
  bool wait = false;
  /// In: storage whose capacity the payload may reuse. Out: the payload when
  /// `received`.
  Bytes payload;
  double transfer_s = 0.0;
  bool received = false;
  /// The TransportError this source's receive raised, or null.
  std::exception_ptr error;
};

enum class TransportKind { kInproc, kShm, kTcp };

/// Parses "inproc" | "shm" | "tcp" (throws on anything else).
TransportKind parse_transport_kind(std::string_view name);

/// Deterministic failure injection below the policy layer: when enabled,
/// make_transport wraps the configured backend in a ChaosTransport
/// (transport/chaos.hpp) that corrupts, truncates, duplicates, delays or
/// kills traffic by pure functions of (seed, edge, per-edge sequence
/// number). This is how the recoverable-error paths are actually tested —
/// the PR 3 FaultPlan injects *pretend* faults above the fabric; chaos
/// injects *real* wire-level ones below it.
struct ChaosConfig {
  uint64_t seed = 0;
  /// Per-message probability that the delivered frame has one byte flipped
  /// at a seeded offset (must be detected as kFrameCorrupt — the chaos test
  /// tier asserts zero silent acceptance).
  double corrupt_rate = 0.0;
  /// Per-message probability that the frame is cut short at a seeded offset
  /// (a peer killed mid-write), surfacing as kPeerReset.
  double truncate_rate = 0.0;
  /// Per-message probability that the frame is delivered twice (an
  /// at-least-once fabric after a retransmit race).
  double duplicate_rate = 0.0;
  /// Per-message probability of adding delay_s simulated transfer seconds
  /// (interacts with recv_within deadlines exactly like a straggler).
  double delay_rate = 0.0;
  double delay_s = 0.0;
  /// Kill the link to this rank once kill_after_bytes wire bytes have moved
  /// to/from it: the next operation touching the rank throws kPeerReset,
  /// later ones kPeerUnreachable. kNoKill = never.
  static constexpr int kNoKill = -1;
  int kill_peer = kNoKill;
  uint64_t kill_after_bytes = 0;
  /// Arm the kill only from this communication round on (via begin_round;
  /// round 0 = also outside rounds). Lets a test kill a link at an exact,
  /// deterministic round boundary regardless of byte totals.
  int kill_from_round = 0;

  bool enabled() const {
    return corrupt_rate > 0.0 || truncate_rate > 0.0 ||
           duplicate_rate > 0.0 || delay_rate > 0.0 || kill_peer != kNoKill;
  }
  /// Throws fca::Error on rates outside [0, 1] or a negative delay.
  void validate() const;
};

/// Explicit shm ring capacities must be powers of two in this range: a
/// power of two keeps the monotonic-cursor modular arithmetic exact for the
/// whole uint64 cursor range, and the bounds reject typo'd sizes (0, a few
/// bytes, terabytes) with a clear diagnostic instead of an OOM or wedge.
inline constexpr size_t kMinShmRingCapacity = 4096;
inline constexpr size_t kMaxShmRingCapacity = 1u << 30;

struct TransportOptions {
  /// Whole world driven by this process (the simulation default).
  static constexpr int kAllRanks = -1;

  TransportKind kind = TransportKind::kInproc;
  /// kAllRanks = every rank lives in this process; >= 0 = this process
  /// drives exactly that rank of a multi-process world.
  int self_rank = kAllRanks;

  // -- shm backend -----------------------------------------------------------
  /// POSIX shm object name ("/name") shared by the participating processes;
  /// empty = an anonymous process-private mapping (single-process runs and
  /// fork-based tests).
  std::string shm_name;
  /// This process creates and initializes the region (rank 0 / all-local);
  /// false = attach to an existing region and wait for it to become ready.
  bool shm_create = true;
  /// Bytes per (src, dst) ring; 0 = auto (a fixed region budget divided by
  /// world^2, clamped to [64 KiB, 1 MiB]). Explicit values must be powers
  /// of two in [kMinShmRingCapacity, kMaxShmRingCapacity].
  size_t shm_ring_capacity = 0;

  // -- tcp backend -----------------------------------------------------------
  /// Rank 0's rendezvous listener as host:port (rank 0 / all-local; an
  /// empty host or "0.0.0.0" binds every interface).
  std::string bind_address;
  /// The root's host:port a non-root rank dials (with retries).
  std::string connect_address;

  /// Wall-clock budget for blocking progress against remote peers
  /// (rendezvous, a recv whose sender is another process, a full ring).
  double io_timeout_s = 30.0;

  /// Bounded deterministic retry/backoff applied to TCP dials and
  /// reconnects and to shm ring-full stalls (comm/retry.hpp). Decisions are
  /// pure functions of the policy seed, so reruns retry identically.
  RetryPolicy retry;

  /// Optional deterministic wire-level failure injection (ChaosTransport
  /// decorator around the configured backend).
  ChaosConfig chaos;
};

/// Per-(src, dst, tag) FIFO store used by the inproc backend directly and by
/// the stream backends as their demultiplexing target. Single-threaded under
/// the caller's lock.
class MailboxSet {
 public:
  void push(WireMessage msg);
  std::optional<WireMessage> pop(int dst, int src, int tag);
  bool has(int dst, int src, int tag) const;
  size_t size() const { return count_; }
  void clear();
  /// Drops every queued message sent by or addressed to `rank` (peer-death
  /// degradation); returns how many were removed.
  size_t erase_rank(int rank);
  /// Diagnostic suffix for a recv-with-no-send error: the nearest non-empty
  /// mailbox for (src, dst), or the reverse direction when that hints at
  /// swapped arguments. Empty when nothing relevant is pending.
  std::string describe(int dst, int src) const;

 private:
  struct Key {
    int src, dst, tag;
    bool operator<(const Key& o) const {
      if (src != o.src) return src < o.src;
      if (dst != o.dst) return dst < o.dst;
      return tag < o.tag;
    }
  };
  std::map<Key, std::deque<WireMessage>> boxes_;
  size_t count_ = 0;
};

class Transport {
 public:
  virtual ~Transport() = default;

  virtual std::string_view name() const = 0;
  int world_size() const { return world_; }
  /// Rank this process drives, or TransportOptions::kAllRanks.
  int self_rank() const { return self_rank_; }

  /// Hands one message to the fabric. Must preserve per-(src, dst) order.
  /// The payload is only borrowed for the duration of the call.
  virtual void send(const WireView& msg) = 0;

  /// One send() per message, in order; errors.size() == msgs.size(). A
  /// TransportError lands in errors[i]: a peer-scoped one lets the batch go
  /// on, any other stops it there. Other exceptions propagate. An override
  /// must give the same deliveries and counters.
  virtual void send_many(std::span<const WireView> msgs,
                         std::span<std::exception_ptr> errors);

  /// Oldest pending message for (dst, src, tag) after a non-blocking
  /// progress pass; std::nullopt when none is available locally.
  virtual std::optional<WireMessage> try_recv(int dst, int src, int tag) = 0;

  /// One receive into `dst` on `tag` per slot, in order: wait_recv or
  /// try_recv as the slot asks, its payload moved into the slot and its
  /// TransportError, if any, stored there. An override must consume the same
  /// frames; it may write a payload into the slot's existing capacity.
  virtual void recv_many(int dst, int tag, std::span<RecvSlot> slots);

  /// try_recv that may block (up to the io timeout) when the sender is a
  /// remote process; throws a diagnostic protocol-bug error when no message
  /// can arrive.
  WireMessage recv(int dst, int src, int tag);

  /// recv()'s failure for a message that never came: a TransportError
  /// (kTimeout, attributed to `src`) on a fallible fabric, a protocol-bug
  /// fca::Error otherwise.
  [[noreturn]] void fail_no_message(int dst, int src, int tag);

  virtual bool has_message(int dst, int src, int tag) = 0;

  /// Backend hook behind the blocking recv(): default = one try_recv (right
  /// for in-process worlds, where a missing message can never arrive
  /// later). Public so decorators (ChaosTransport) can delegate to it.
  virtual std::optional<WireMessage> wait_recv(int dst, int src, int tag) {
    return try_recv(dst, src, tag);
  }

  /// Frames handed to send() and not yet consumed — for a single-process
  /// world the exact undelivered-message count; for a multi-process world
  /// this rank's local view.
  virtual size_t pending_messages() const {
    return static_cast<size_t>(sent_frames_ - consumed_frames_);
  }
  /// Discards every locally visible undelivered message (crash recovery).
  virtual void clear_pending() = 0;

  /// Peer-death degradation hook: drops every locally queued message sent
  /// by or addressed to `rank` and forgets its streams, so a condemned
  /// peer's half-delivered traffic cannot satisfy the end-of-run
  /// zero-pending invariant or leak into later rounds.
  virtual void discard_peer(int rank) { (void)rank; }

  /// True when operations on this transport can fail for real (remote
  /// peers, chaos injection) rather than only by protocol bug. The round
  /// driver uses this to choose the fault-tolerant gather path even
  /// without an injected FaultPlan.
  virtual bool fallible() const {
    return self_rank_ != TransportOptions::kAllRanks;
  }

  /// Backoff sleeps taken by the deterministic retry machinery so far
  /// (dial retries, ring-full stalls) — observability for tests and probe
  /// diagnostics. Virtual so decorators report the wrapped backend's count.
  virtual uint64_t retry_events() const { return retry_events_; }

  /// Round scoping, mirrored from Network::begin_round/end_round. The
  /// current backends deliver identically inside and outside rounds; the
  /// hook exists so future backends can flush or barrier at round edges.
  virtual void begin_round(int round) { (void)round; }
  virtual void end_round() {}

  /// Bytes this process moved over the backend (frame headers + payloads,
  /// the frame_size() formula — backend-invariant for the same traffic).
  /// Virtual so decorators report the wrapped backend's count.
  virtual uint64_t wire_bytes() const { return wire_bytes_; }

  /// Diagnostic suffix describing pending traffic near (dst, src).
  virtual std::string describe_pending(int dst, int src) = 0;

 protected:
  Transport(int world, int self_rank);

  void note_sent_frame(size_t payload_len);
  void note_consumed_frame() { ++consumed_frames_; }
  void note_consumed_frames(size_t n) { consumed_frames_ += n; }
  void note_retry() { ++retry_events_; }
  /// Marks every sent frame consumed (clear_pending implementations).
  void reset_pending_counters() { consumed_frames_ = sent_frames_; }
  void check_rank_pair(int dst, int src) const;

  int world_;
  int self_rank_;
  uint64_t sent_frames_ = 0;
  uint64_t consumed_frames_ = 0;
  uint64_t wire_bytes_ = 0;
  uint64_t retry_events_ = 0;
};

/// Rank assignment plus the run context the root shares at rendezvous so
/// every process derives the identical fault schedule and accounting
/// (transport/handshake.hpp defines the payload).
struct Handshake;

/// Builds the configured backend. For a multi-process backend (self_rank >=
/// 0) the root publishes `*handshake` to joiners and non-root processes
/// return with `*handshake` overwritten by the root's; pass nullptr for an
/// all-local fabric (or to publish/accept an empty context).
std::unique_ptr<Transport> make_transport(const TransportOptions& options,
                                          int world_size,
                                          Handshake* handshake = nullptr);

/// Overlays the FCA_TRANSPORT (inproc|shm|tcp) and FCA_SHM_RING_CAPACITY
/// environment on `base` — the mechanism CI uses to force every existing
/// test tier onto each backend without touching the tests.
TransportOptions transport_options_from_env(TransportOptions base = {});

}  // namespace fca::comm
