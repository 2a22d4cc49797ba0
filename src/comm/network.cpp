#include "comm/network.hpp"

#include <algorithm>
#include <cmath>
#include <exception>
#include <string>
#include <utility>

#include "utils/bytes.hpp"
#include "utils/error.hpp"
#include "utils/logging.hpp"

namespace fca::comm {

namespace {

/// Overflow-checked uint64 accumulation: counters wrap silently in release
/// builds otherwise, and a wrapped byte total corrupts every downstream
/// accounting comparison instead of failing loudly.
void add_checked(uint64_t& acc, uint64_t delta, const char* what) {
  FCA_CHECK_MSG(acc <= std::numeric_limits<uint64_t>::max() - delta,
                "uint64 overflow accumulating " << what << ": " << acc
                                                << " + " << delta);
  acc += delta;
}

// Scoped-mode data-plane envelope. The sender runs the oracle's metering
// and fault decisions; the receiver cannot re-derive them (it never sees
// the sender's running send count), so the frame carries them: a 28-byte
// little-endian header followed by the raw payload.
constexpr uint32_t kEnvTombstone = 1u << 0;
constexpr uint32_t kEnvDelayed = 1u << 1;
constexpr size_t kEnvHeaderBytes = 28;

Bytes envelope_wrap(uint32_t flags, uint64_t orig_size, double base_s,
                    double extra_s, std::span<const std::byte> payload) {
  utils::ByteWriter w;
  w.reserve(kEnvHeaderBytes + payload.size());
  w.u32(flags);
  w.u64(orig_size);
  w.f64(base_s);
  w.f64(extra_s);
  w.raw(payload);
  return w.take();
}

struct Envelope {
  uint32_t flags = 0;
  uint64_t orig_size = 0;
  double base_s = 0.0;
  double extra_s = 0.0;
};

/// The envelope header at the front of `env`; throws fca::Error if `env`
/// is shorter than kEnvHeaderBytes.
Envelope envelope_read(std::span<const std::byte> env) {
  utils::ByteReader r(env);
  Envelope e;
  e.flags = r.u32();
  e.orig_size = r.u64();
  e.base_s = r.f64();
  e.extra_s = r.f64();
  return e;
}

}  // namespace

TrafficStats& TrafficStats::operator+=(const TrafficStats& other) {
  add_checked(messages, other.messages, "TrafficStats.messages");
  add_checked(payload_bytes, other.payload_bytes,
              "TrafficStats.payload_bytes");
  sim_seconds += other.sim_seconds;
  return *this;
}

void CostModel::validate() const {
  FCA_CHECK_MSG(latency_s >= 0.0,
                "cost model latency must be non-negative, got " << latency_s);
  FCA_CHECK_MSG(bandwidth_bps > 0.0,
                "cost model bandwidth must be positive, got "
                    << bandwidth_bps);
}

Network::Network(int ranks, CostModel cost, FaultConfig faults,
                 std::unique_ptr<Transport> transport)
    : ranks_(ranks),
      cost_(cost),
      plan_(std::move(faults), ranks),
      transport_(std::move(transport)),
      sent_(static_cast<size_t>(std::max(ranks, 0))),
      peer_dead_(static_cast<size_t>(std::max(ranks, 0)), 0) {
  FCA_CHECK_MSG(ranks > 0, "Network needs at least one rank");
  cost_.validate();
  if (transport_ == nullptr) {
    transport_ = make_transport(TransportOptions{}, ranks_);
  }
  FCA_CHECK_MSG(transport_->world_size() == ranks_,
                "transport spans " << transport_->world_size()
                                   << " rank(s), network needs " << ranks_);
  self_rank_ = transport_->self_rank();
  scoped_ = self_rank_ != TransportOptions::kAllRanks;
  if (scoped_) {
    FCA_CHECK_MSG(self_rank_ >= 0 && self_rank_ < ranks_,
                  "scoped rank " << self_rank_ << " outside world [0, "
                                 << ranks_ << ")");
  }
}

void Network::check_rank(int rank) const {
  FCA_CHECK_MSG(rank >= 0 && rank < ranks_,
                "rank " << rank << " out of range [0, " << ranks_ << ")");
}

bool Network::peer_alive(int rank) const {
  check_rank(rank);
  std::lock_guard lk(mu_);
  return peer_dead_[static_cast<size_t>(rank)] == 0;
}

bool Network::degraded() const {
  std::lock_guard lk(mu_);
  for (char dead : peer_dead_) {
    if (dead != 0) return true;
  }
  return false;
}

bool Network::lossy() const {
  return plan_.enabled() || transport_->fallible() || degraded();
}

bool Network::condemn_locked(int rank, const std::string& why) {
  if (rank < 0 || rank >= ranks_) return false;
  char& dead = peer_dead_[static_cast<size_t>(rank)];
  if (dead != 0) return false;
  dead = 1;
  add_checked(faults_.real_peer_faults, 1, "real peer faults");
  // Purge the dead rank's queued traffic: half-delivered frames must not
  // feed later rounds or trip the end-of-run zero-pending invariant.
  transport_->discard_peer(rank);
  FCA_LOG_WARN << "transport condemned rank " << rank << ": " << why
                 << "; continuing with the survivor set";
  return true;
}

void Network::degrade_locked(const TransportError& e, int fallback_rank) {
  if (!e.peer_scoped()) throw;
  const int rank = e.peer() != TransportError::kNoPeer ? e.peer()
                                                       : fallback_rank;
  condemn_locked(rank, e.what());
}

Network::EdgeCounters& Network::edge_counters_locked(int src, int dst) {
  auto it = edges_.find({src, dst});
  if (it == edges_.end()) {
    const std::string edge =
        "comm.edge." + std::to_string(src) + "-" + std::to_string(dst);
    obs::MetricsRegistry& reg = obs::MetricsRegistry::instance();
    EdgeCounters c;
    c.messages = &reg.counter(edge + ".messages");
    c.bytes = &reg.counter(edge + ".bytes");
    it = edges_.emplace(std::make_pair(src, dst), c).first;
  }
  return it->second;
}

std::optional<WireView> Network::meter_locked(
    int src, int dst, int tag, std::span<const std::byte> payload,
    Bytes& envelope) {
  TrafficStats& s = sent_[static_cast<size_t>(src)];
  add_checked(s.messages, 1, "rank messages");
  add_checked(s.payload_bytes, static_cast<uint64_t>(payload.size()),
              "rank payload bytes");
  if (obs::metrics_enabled()) {
    // Sent-side accounting, mirroring TrafficStats: a message pays its bytes
    // even when the fault plan later loses it in flight.
    EdgeCounters& edge = edge_counters_locked(src, dst);
    edge.messages->add();
    edge.bytes->add(static_cast<uint64_t>(payload.size()));
    obs::MetricsRegistry& reg = obs::MetricsRegistry::instance();
    static obs::Counter* total_msgs = &reg.counter("comm.sent.messages");
    static obs::Counter* total_bytes = &reg.counter("comm.sent.bytes");
    total_msgs->add();
    total_bytes->add(static_cast<uint64_t>(payload.size()));
  }
  const uint64_t orig_size = static_cast<uint64_t>(payload.size());
  const double base_transfer = cost_.transfer_seconds(payload.size());
  double transfer = base_transfer;
  double extra = 0.0;
  s.sim_seconds += transfer;
  bool dropped = false;    // any in-flight loss (the sender paid anyway)
  bool tombstone = false;  // a loss whose receiver would otherwise block
  if (plan_.injecting()) {
    // seq = this rank's running send count (just incremented): stable under
    // any lane scheduling and restored with TrafficStats on resume, so the
    // drop pattern replays identically.
    const uint64_t seq = s.messages;
    const int round = plan_.round();
    if (plan_.crashed(round, src) || plan_.crashed(round, dst)) {
      // Crashed link: the counterpart's round body is skipped too, so
      // nothing waits on this message — no frame at all.
      dropped = true;
    } else if (plan_.drop_message(src, dst, tag, seq)) {
      // Message-level drop: in scoped mode the receiver is a live process
      // that would block for this frame, so ship a tombstone instead.
      dropped = true;
      tombstone = true;
    } else if (plan_.straggling(round, src)) {
      extra = plan_.config().straggler_delay_s;
      transfer += extra;
      s.sim_seconds += extra;
      add_checked(faults_.delayed_messages, 1, "delayed messages");
    }
    if (dropped) {
      add_checked(faults_.dropped_messages, 1, "dropped messages");
      add_checked(faults_.dropped_bytes, orig_size, "dropped bytes");
    }
  }
  // A lost message sends nothing (the sender still paid), nor does one on a
  // link already condemned — except that in scoped mode a drop travels as
  // a tombstone.
  if (dropped && !(scoped_ && tombstone)) return std::nullopt;
  if (peer_dead_[static_cast<size_t>(dst)] != 0 ||
      peer_dead_[static_cast<size_t>(src)] != 0) {
    return std::nullopt;
  }
  if (!scoped_) return WireView{src, dst, tag, transfer, payload};
  // Scoped wire path: wrap payload + metering record in an envelope. A
  // tombstone ships an empty payload (the bytes were lost; only the
  // accounting record travels).
  uint32_t flags = 0;
  double wire_transfer = transfer;
  if (tombstone) {
    flags |= kEnvTombstone;
    wire_transfer = 0.0;
    payload = {};
  }
  if (extra > 0.0) flags |= kEnvDelayed;
  envelope = envelope_wrap(flags, orig_size, base_transfer, extra, payload);
  return WireView{src, dst, tag, wire_transfer, envelope};
}

void Network::send(int src, int dst, int tag,
                   std::span<const std::byte> payload) {
  broadcast(src, std::span<const int>(&dst, 1), tag, payload);
}

void Network::broadcast(int src, std::span<const int> dsts, int tag,
                        std::span<const std::byte> payload) {
  check_rank(src);
  for (int dst : dsts) check_rank(dst);
  FCA_CHECK_MSG(tag < kOobTagBase,
                "data-plane tag 0x" << std::hex << tag
                                    << " collides with the control plane");
  std::lock_guard lk(mu_);
  if (scoped_ && src != self_rank_) {
    // Another process owns these sends: it runs the oracle path over there
    // and ships the metering alongside the bytes (consume_wire_locked).
    return;
  }
  // Policy, serially and in destination order: the same metering, seq
  // values and fault decisions as a loop of single sends.
  std::vector<Bytes> envelopes(dsts.size());
  std::vector<WireView> frames;
  frames.reserve(dsts.size());
  for (size_t i = 0; i < dsts.size(); ++i) {
    const std::optional<WireView> frame =
        meter_locked(src, dsts[i], tag, payload, envelopes[i]);
    if (frame.has_value()) frames.push_back(*frame);
  }
  // Bytes: one batch the backend may fan out; failures are then applied in
  // destination order, as the loop would have met them.
  std::vector<std::exception_ptr> errors(frames.size());
  transport_->send_many(frames, errors);
  for (size_t i = 0; i < frames.size(); ++i) {
    if (!errors[i]) continue;
    try {
      std::rethrow_exception(errors[i]);
    } catch (const TransportError& e) {
      degrade_locked(e, frames[i].dst);  // rethrows when not peer-scoped
    }
  }
}

std::optional<Bytes> Network::consume_wire_locked(int src, Bytes wire) {
  const auto [flags, orig_size, base_s, extra_s] = envelope_read(wire);
  // Replay the sender's metering into this rank's ledger so rank 0's totals
  // (own sends + consumed envelopes — the star topology routes every uplink
  // here) equal the all-local oracle's. Registry counters are per-process
  // observability, not compared across modes, so they are not replayed.
  TrafficStats& s = sent_[static_cast<size_t>(src)];
  add_checked(s.messages, 1, "rank messages");
  add_checked(s.payload_bytes, orig_size, "rank payload bytes");
  s.sim_seconds += base_s;
  if ((flags & kEnvDelayed) != 0) {
    s.sim_seconds += extra_s;
    add_checked(faults_.delayed_messages, 1, "delayed messages");
  }
  if ((flags & kEnvTombstone) != 0) {
    add_checked(faults_.dropped_messages, 1, "dropped messages");
    add_checked(faults_.dropped_bytes, orig_size, "dropped bytes");
    return std::nullopt;
  }
  // Strip the envelope in place: the received buffer becomes the payload.
  wire.erase(wire.begin(),
             wire.begin() + static_cast<std::ptrdiff_t>(kEnvHeaderBytes));
  return wire;
}

std::vector<std::optional<Bytes>> Network::receive_locked(
    int dst, std::span<const int> srcs, int tag, RecvMode mode,
    double deadline_s, std::span<Bytes> storage) {
  std::vector<std::optional<Bytes>> out(srcs.size());
  const bool strict = mode == RecvMode::kStrict;
  if (scoped_ && dst != self_rank_) {
    // Another process owns these receives and consumes the real frames
    // there. The only strict callers reaching here discard the value
    // (symmetric drain loops over all ranks), so an empty payload stands in.
    if (strict) {
      for (std::optional<Bytes>& o : out) o.emplace();
    }
    return out;
  }
  // Which sources to receive from, and how, in source order.
  std::vector<RecvSlot> slots;
  std::vector<size_t> slot_src;  // slots[k] receives from srcs[slot_src[k]]
  slots.reserve(srcs.size());
  slot_src.reserve(srcs.size());
  for (size_t i = 0; i < srcs.size(); ++i) {
    const int src = srcs[i];
    // A condemned sender has nothing to receive. A strict receive still
    // asks, and fails: the caller should have degraded to a lossy one.
    if (!strict && peer_dead_[static_cast<size_t>(src)] != 0) continue;
    RecvSlot& slot = slots.emplace_back();
    slot.src = src;
    // Strict receives may block for a remote sender (wait_recv). So may a
    // scoped try_recv, except at the root mid-round, which
    // polls like the oracle's mailbox: the per-round barrier (every joiner's
    // control message arrives after its data sends, per-edge FIFO)
    // guarantees frame-present ⇔ body-sent, so "nothing there" genuinely
    // means the sender lost or skipped it.
    slot.wait = strict || (mode == RecvMode::kTry && scoped_ &&
                           src != self_rank_ && !(self_rank_ == 0 && in_round_));
    if (i < storage.size()) slot.payload = std::move(storage[i]);
    slot_src.push_back(i);
  }
  transport_->recv_many(dst, tag, slots);
  for (size_t k = 0; k < slots.size(); ++k) {
    out[slot_src[k]] = finish_recv_locked(dst, tag, mode, deadline_s, slots[k]);
  }
  return out;
}

std::optional<Bytes> Network::finish_recv_locked(int dst, int tag,
                                                 RecvMode mode,
                                                 double deadline_s,
                                                 RecvSlot& slot) {
  const int src = slot.src;
  const bool remote = scoped_ && src != self_rank_;
  if (mode == RecvMode::kStrict) {
    // The no-fault path: a condemned sender means the caller should have
    // degraded to try_recv/recv_within, so the error propagates (after the
    // condemnation is recorded) instead of being swallowed.
    try {
      if (slot.error) std::rethrow_exception(slot.error);
      if (!slot.received) transport_->fail_no_message(dst, src, tag);
    } catch (const TransportError& e) {
      if (e.peer_scoped()) {
        condemn_locked(e.peer() != TransportError::kNoPeer ? e.peer() : src,
                       e.what());
      }
      throw;
    }
    if (!remote) return std::move(slot.payload);
    std::optional<Bytes> payload =
        consume_wire_locked(src, std::move(slot.payload));
    // A tombstone on the strict path is a protocol bug: strict receives are
    // reserved for traffic the fault plan never targets.
    FCA_CHECK_MSG(payload.has_value(),
                  "strict recv consumed a tombstone from rank " << src);
    return payload;
  }
  if (slot.error) {
    try {
      std::rethrow_exception(slot.error);
    } catch (const TransportError& e) {
      degrade_locked(e, src);  // rethrows when not peer-scoped
    }
    return std::nullopt;  // the sender is dead: nothing to receive
  }
  if (!slot.received) {
    // A wait for a remote sender that drained its io timeout is a real
    // peer fault; a poll that found nothing is a reported loss.
    if (slot.wait) condemn_locked(src, "io timeout draining scoped frame");
    return std::nullopt;
  }
  const bool timed = mode == RecvMode::kDeadline;
  if (!remote) {
    if (timed && slot.transfer_s > deadline_s) {
      // The message exists but arrives too late for this round: it was
      // consumed (the mailbox must not leak into the next round); count
      // the miss here, where the FaultStats live.
      add_checked(faults_.deadline_misses, 1, "deadline misses");
      return std::nullopt;
    }
    return std::move(slot.payload);
  }
  // A scoped frame's wire transfer time is the envelope's, not the
  // sender's: unwrap first and apply the deadline to the replayed time.
  const Envelope env = timed ? envelope_read(slot.payload) : Envelope{};
  std::optional<Bytes> payload =
      consume_wire_locked(src, std::move(slot.payload));
  if (!payload.has_value()) return std::nullopt;  // tombstone, not a miss
  if (timed && env.base_s + env.extra_s > deadline_s) {
    add_checked(faults_.deadline_misses, 1, "deadline misses");
    return std::nullopt;
  }
  return payload;
}

Bytes Network::recv(int dst, int src, int tag) {
  check_rank(src);
  check_rank(dst);
  std::lock_guard lk(mu_);
  return std::move(*receive_locked(dst, std::span<const int>(&src, 1), tag,
                                   RecvMode::kStrict, kNoDeadline, {})[0]);
}

std::optional<Bytes> Network::try_recv(int dst, int src, int tag) {
  check_rank(src);
  check_rank(dst);
  std::lock_guard lk(mu_);
  return std::move(receive_locked(dst, std::span<const int>(&src, 1), tag,
                                  RecvMode::kTry, kNoDeadline, {})[0]);
}

std::optional<Bytes> Network::recv_within(int dst, int src, int tag,
                                          double deadline_s) {
  check_rank(src);
  check_rank(dst);
  FCA_CHECK_MSG(deadline_s > 0.0,
                "recv_within needs a positive deadline, got " << deadline_s);
  std::lock_guard lk(mu_);
  return std::move(receive_locked(dst, std::span<const int>(&src, 1), tag,
                                  RecvMode::kDeadline, deadline_s, {})[0]);
}

std::vector<std::optional<Bytes>> Network::gather(int dst,
                                                  std::span<const int> srcs,
                                                  int tag, double deadline_s,
                                                  std::span<Bytes> storage) {
  check_rank(dst);
  for (int src : srcs) check_rank(src);
  // Endpoint::recv_with_deadline's choice, made once for the whole gather:
  // strict on a reliable fabric, where the deadline is never read;
  // otherwise a loss is reported, and a finite deadline is enforced.
  RecvMode mode = RecvMode::kStrict;
  if (lossy()) {
    FCA_CHECK_MSG(deadline_s > 0.0,
                  "gather needs a positive deadline, got "
                      << deadline_s << " (dst=" << dst << ", tag=" << tag
                      << "); use +infinity for 'no deadline'");
    mode = std::isfinite(deadline_s) ? RecvMode::kDeadline : RecvMode::kTry;
  }
  std::lock_guard lk(mu_);
  return receive_locked(dst, srcs, tag, mode, deadline_s, storage);
}

bool Network::has_message(int dst, int src, int tag) const {
  check_rank(src);
  check_rank(dst);
  std::lock_guard lk(mu_);
  if (scoped_ && dst != self_rank_) return false;
  if (peer_dead_[static_cast<size_t>(src)] != 0) return false;
  return transport_->has_message(dst, src, tag);
}

void Network::oob_send(int dst, int tag, std::span<const std::byte> payload) {
  check_rank(dst);
  FCA_CHECK_MSG(scoped_, "oob_send is scoped-mode only");
  FCA_CHECK_MSG(tag >= kOobTagBase, "oob tag 0x" << std::hex << tag
                                                 << " below kOobTagBase");
  std::lock_guard lk(mu_);
  if (peer_dead_[static_cast<size_t>(dst)] != 0) return;
  try {
    transport_->send(WireView{self_rank_, dst, tag, 0.0, payload});
  } catch (const TransportError& e) {
    degrade_locked(e, dst);  // rethrows when not peer-scoped
  }
}

std::optional<Bytes> Network::oob_recv(int src, int tag, int attempts) {
  check_rank(src);
  FCA_CHECK_MSG(scoped_, "oob_recv is scoped-mode only");
  FCA_CHECK_MSG(attempts >= 1, "oob_recv needs at least one attempt");
  std::lock_guard lk(mu_);
  if (peer_dead_[static_cast<size_t>(src)] != 0) return std::nullopt;
  try {
    for (int attempt = 0; attempt < attempts; ++attempt) {
      std::optional<WireMessage> msg =
          transport_->wait_recv(self_rank_, src, tag);
      if (msg.has_value()) return std::move(msg->payload);
    }
    condemn_locked(src, "io timeout waiting for control message");
    return std::nullopt;
  } catch (const TransportError& e) {
    degrade_locked(e, src);  // rethrows when not peer-scoped
    return std::nullopt;
  }
}

size_t Network::pending_messages() const {
  std::lock_guard lk(mu_);
  return transport_->pending_messages();
}

TrafficStats Network::rank_stats(int rank) const {
  check_rank(rank);
  std::lock_guard lk(mu_);
  return sent_[static_cast<size_t>(rank)];
}

TrafficStats Network::total_stats() const {
  std::lock_guard lk(mu_);
  TrafficStats total;
  for (const auto& s : sent_) total += s;
  return total;
}

void Network::clear_pending() {
  std::lock_guard lk(mu_);
  transport_->clear_pending();
}

void Network::restore_stats(const std::vector<TrafficStats>& sent) {
  FCA_CHECK_MSG(sent.size() == static_cast<size_t>(ranks_),
                "stats for " << sent.size() << " ranks, network has "
                             << ranks_);
  std::lock_guard lk(mu_);
  sent_ = sent;
}

void Network::begin_round(int round) {
  std::lock_guard lk(mu_);
  in_round_ = true;
  plan_.begin_round(round);
  transport_->begin_round(round);
}

void Network::end_round() {
  std::lock_guard lk(mu_);
  in_round_ = false;
  plan_.end_round();
  transport_->end_round();
}

FaultStats Network::fault_stats() const {
  std::lock_guard lk(mu_);
  return faults_;
}

void Network::restore_fault_stats(const FaultStats& stats) {
  std::lock_guard lk(mu_);
  faults_ = stats;
}

void Network::record_round_faults(uint64_t crashed_clients, uint64_t rejoins,
                                  bool aborted) {
  std::lock_guard lk(mu_);
  add_checked(faults_.crashed_client_rounds, crashed_clients,
              "crashed client rounds");
  add_checked(faults_.rejoins, rejoins, "rejoins");
  if (aborted) add_checked(faults_.aborted_rounds, 1, "aborted rounds");
}

}  // namespace fca::comm
