// Shared-memory ring-buffer backend: multi-process runs on one host
// (DESIGN.md §11).
//
// One lock-free SPSC byte ring per ordered (src, dst) pair lives in a shared
// mapping (POSIX shm object when named, anonymous MAP_SHARED otherwise —
// the latter survives fork, which the tests use). Rank r's process is the
// only producer of rings (r, *) and the only consumer of rings (*, r), so
// each ring needs exactly two monotonic cursors:
//
//   head — bytes produced; advanced by the producer with release order after
//          the complete frame is in the buffer, so a consumer acquiring head
//          always sees whole frames.
//   tail — bytes consumed; advanced by the consumer with release order after
//          copying out, so the producer acquiring tail never overwrites
//          unread data.
//
// Frames (framing.hpp) wrap around the ring; received frames are demuxed
// into per-(src, dst, tag) FIFO queues in process memory. A full ring makes
// the producer wait for consumer progress (bounded by io_timeout_s) — except
// in the all-local mode, where the producer *is* the consumer and drains the
// ring into the demux queues itself.
//
// The rendezvous handshake blob is embedded in the region header: the
// creator writes it before publishing `ready`, attachers read it after.
// The creator writes only the region and ring headers (the kernel hands out
// zeroed pages), so a ring's body becomes resident when its edge is first
// used, not when the world is built.
#pragma once

#include <atomic>

#include "comm/transport/transport.hpp"

namespace fca::comm {

struct Handshake;

class ShmTransport : public Transport {
 public:
  ShmTransport(const TransportOptions& options, int world,
               Handshake* handshake);
  ~ShmTransport() override;

  ShmTransport(const ShmTransport&) = delete;
  ShmTransport& operator=(const ShmTransport&) = delete;

  std::string_view name() const override { return "shm"; }

  void send(const WireView& msg) override;
  std::optional<WireMessage> try_recv(int dst, int src, int tag) override;
  bool has_message(int dst, int src, int tag) override;
  std::optional<WireMessage> wait_recv(int dst, int src, int tag) override;
  void clear_pending() override;
  void discard_peer(int rank) override;
  std::string describe_pending(int dst, int src) override;

  size_t ring_capacity() const { return ring_capacity_; }

 private:
  struct RingHeader {
    alignas(64) std::atomic<uint64_t> head;
    alignas(64) std::atomic<uint64_t> tail;
  };

  std::byte* region_base() const { return static_cast<std::byte*>(map_); }
  RingHeader& ring_header(int src, int dst) const;
  std::byte* ring_data(int src, int dst) const;
  bool ring_write(int src, int dst, const WireView& msg);
  /// Moves every complete frame of ring (src, dst) into the demux queues.
  /// Only legal when this process is the ring's consumer.
  void drain_ring(int src, int dst);
  void drain_all_inbound();
  bool consumes(int dst) const {
    return self_rank_ == TransportOptions::kAllRanks || dst == self_rank_;
  }
  bool produces(int src) const {
    return self_rank_ == TransportOptions::kAllRanks || src == self_rank_;
  }

  std::string shm_name_;
  bool created_ = false;
  int fd_ = -1;
  void* map_ = nullptr;
  size_t map_size_ = 0;
  size_t ring_capacity_ = 0;
  size_t ring_stride_ = 0;   // header + capacity, 64-byte aligned
  size_t rings_offset_ = 0;  // first ring block within the region
  double io_timeout_s_ = 30.0;
  /// Ring-full stall schedule: the configured retry policy with the backoff
  /// scaled down to ring timescales (a consumer drains in microseconds, not
  /// the tens of milliseconds a TCP dial needs).
  RetryPolicy stall_retry_;
  uint64_t stall_episodes_ = 0;
  MailboxSet queues_;
};

}  // namespace fca::comm
