// In-process mailbox backend — the historical fabric and the determinism
// oracle the cross-backend test tier compares shm and tcp against.
//
// Messages never leave process memory, so no frames are materialized; wire
// bytes are still accounted with the shared frame_size() formula so traffic
// numbers are backend-invariant.
#pragma once

#include "comm/transport/transport.hpp"

namespace fca::comm {

class InprocTransport : public Transport {
 public:
  explicit InprocTransport(int world)
      : Transport(world, TransportOptions::kAllRanks) {}

  std::string_view name() const override { return "inproc"; }

  void send(const WireView& msg) override {
    check_rank_pair(msg.dst, msg.src);
    note_sent_frame(msg.payload.size());
    // The mailbox copy is the one owned copy on this backend.
    boxes_.push(WireMessage{msg.src, msg.dst, msg.tag, msg.transfer_s,
                            Bytes(msg.payload.begin(), msg.payload.end())});
  }

  std::optional<WireMessage> try_recv(int dst, int src, int tag) override {
    check_rank_pair(dst, src);
    std::optional<WireMessage> msg = boxes_.pop(dst, src, tag);
    if (msg.has_value()) note_consumed_frame();
    return msg;
  }

  bool has_message(int dst, int src, int tag) override {
    check_rank_pair(dst, src);
    return boxes_.has(dst, src, tag);
  }

  void clear_pending() override {
    boxes_.clear();
    reset_pending_counters();
  }

  void discard_peer(int rank) override {
    note_consumed_frames(boxes_.erase_rank(rank));
  }

  std::string describe_pending(int dst, int src) override {
    return boxes_.describe(dst, src);
  }

 private:
  MailboxSet boxes_;
};

}  // namespace fca::comm
