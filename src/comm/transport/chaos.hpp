// Deterministic wire-level failure injection (DESIGN.md §12).
//
// ChaosTransport decorates any backend and injects the failures the
// recoverable-error paths exist for — corrupted frames, truncated writes
// from a killed peer, duplicated deliveries, transfer delays, and a link
// that dies after a byte budget — as pure functions of (chaos seed, edge,
// per-edge receive sequence number). The same seed therefore produces the
// same failure at the same message on every rerun, which is what lets the
// chaos test tier assert byte-identical degradation behavior.
//
// Faults are applied on the *receive* path, where a real fabric would
// detect them: a corrupt event re-encodes the message as a wire frame,
// flips one seeded byte, and runs the production decode + CRC verify — the
// error the caller sees is the genuine kFrameCorrupt path, not a mock. A
// frame that somehow survives verification (a CRC collision) is delivered
// and counted in silent_corruptions(); the chaos tier asserts that counter
// stays zero.
//
// This is the complement of the PR 3 FaultPlan: the FaultPlan injects
// *pretend* faults above the fabric (drops and delays the policy layer
// simulates); chaos injects *real* ones below it and lets the typed-error
// machinery discover them.
#pragma once

#include <deque>
#include <map>
#include <memory>

#include "comm/transport/transport.hpp"

namespace fca::comm {

class ChaosTransport : public Transport {
 public:
  ChaosTransport(std::unique_ptr<Transport> inner, const ChaosConfig& config);

  std::string_view name() const override { return name_; }

  void send(const WireView& msg) override;
  std::optional<WireMessage> try_recv(int dst, int src, int tag) override;
  std::optional<WireMessage> wait_recv(int dst, int src, int tag) override;
  bool has_message(int dst, int src, int tag) override;
  size_t pending_messages() const override;
  void clear_pending() override;
  void discard_peer(int rank) override;
  std::string describe_pending(int dst, int src) override;
  bool fallible() const override { return true; }
  uint64_t wire_bytes() const override { return inner_->wire_bytes(); }
  uint64_t retry_events() const override { return inner_->retry_events(); }
  void begin_round(int round) override {
    round_ = round;
    inner_->begin_round(round);
  }
  void end_round() override { inner_->end_round(); }

  /// Corrupted frames that passed decode + CRC verification anyway (a CRC
  /// collision). The chaos test tier asserts this stays zero — the "no
  /// silent corruption acceptance" criterion.
  uint64_t silent_corruptions() const { return silent_corruptions_; }
  /// Faults injected so far, by kind — determinism observability.
  uint64_t injected_corrupt() const { return injected_corrupt_; }
  uint64_t injected_truncate() const { return injected_truncate_; }
  uint64_t injected_duplicate() const { return injected_duplicate_; }
  uint64_t injected_delay() const { return injected_delay_; }

  Transport& inner() { return *inner_; }

 private:
  struct DupKey {
    int dst, src, tag;
    bool operator<(const DupKey& o) const {
      if (dst != o.dst) return dst < o.dst;
      if (src != o.src) return src < o.src;
      return tag < o.tag;
    }
  };

  /// Applies the seeded fault schedule to one received message; may throw
  /// TransportError or enqueue a duplicate.
  WireMessage apply_recv_chaos(WireMessage msg);
  /// Throws once the byte budget of the killed link is spent and the
  /// operation touches that rank: kPeerReset the first time (the moment of
  /// death), kPeerUnreachable afterwards.
  void check_killed(int rank);
  void account_kill_bytes(int src, int dst, size_t payload_len);

  std::unique_ptr<Transport> inner_;
  ChaosConfig config_;
  std::string name_;
  std::map<std::pair<int, int>, uint64_t> recv_seq_;
  std::map<DupKey, std::deque<WireMessage>> dups_;
  size_t dup_count_ = 0;
  int round_ = 0;  // current communication round (begin_round), for the kill
  uint64_t kill_bytes_moved_ = 0;
  bool kill_reported_ = false;
  uint64_t silent_corruptions_ = 0;
  uint64_t injected_corrupt_ = 0;
  uint64_t injected_truncate_ = 0;
  uint64_t injected_duplicate_ = 0;
  uint64_t injected_delay_ = 0;
};

}  // namespace fca::comm
