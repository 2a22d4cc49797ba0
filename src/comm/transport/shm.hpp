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
//
// Batches (send_many, recv_many) move each ring's bytes on the kernel pool
// (parallel_for_range), one ring per task, once one ring of the batch
// carries kFanOutFrameBytes or more: the writes of a broadcast, the drains
// (copy + CRC) of a gather, straight into the slots' reused storage. Tasks
// touch only their own ring and slot. Counters, the demux queues, a full
// ring (which may need a self-drain or a stall) and a remote sender still
// being waited on are all handled on the calling thread, in slot order.
// Batches with two messages on one ring run serially.
#pragma once

#include <atomic>
#include <exception>
#include <vector>

#include "comm/transport/transport.hpp"

namespace fca::comm {

struct Handshake;

/// Fewest bytes one ring of a shm batch must carry (a frame to write, or
/// bytes waiting to drain) for the batch to go to the kernel pool; batches
/// of smaller frames (FedClassAvg's ~1.4 KB classifier pairs) stay on the
/// caller. A constant, so the split never depends on the workload or host.
/// Set at the measured crossover. A 20-client star (bench_transport's star
/// loop, 1 MiB rings, 4-vCPU host, p50 of 10 alternating runs), pool vs
/// caller: at 1.4 KB the broadcast took 31 vs 21 us and the gather 24 vs
/// 9 us; at 16 KiB the broadcast won (38 vs 55 us) and the gather lost
/// (42 vs 37 us); from 32 KiB the pool won both in every run (57 vs 103
/// and 63 vs 85 us).
inline constexpr size_t kFanOutFrameBytes = size_t{32} << 10;

class ShmTransport : public Transport {
 public:
  ShmTransport(const TransportOptions& options, int world,
               Handshake* handshake);
  ~ShmTransport() override;

  ShmTransport(const ShmTransport&) = delete;
  ShmTransport& operator=(const ShmTransport&) = delete;

  std::string_view name() const override { return "shm"; }

  void send(const WireView& msg) override;
  void send_many(std::span<const WireView> msgs,
                 std::span<std::exception_ptr> errors) override;
  std::optional<WireMessage> try_recv(int dst, int src, int tag) override;
  void recv_many(int dst, int tag, std::span<RecvSlot> slots) override;
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
  /// Writes one frame if the ring has room; false (nothing written) if not.
  /// Touches only ring (msg.src, msg.dst).
  bool ring_write(int src, int dst, const WireView& msg);
  /// send()'s argument checks (ranks, producer, frame fits a ring).
  void check_send(const WireView& msg) const;
  /// Parses every complete frame of ring (src, dst), in ring order. With a
  /// non-null `take`, the first frame on `take_tag` goes into take->payload
  /// (cleared, then appended to, so its capacity is reused) and sets
  /// take->received; every other frame is appended to `spill`. A corrupt
  /// frame stops the drain: the ring is skipped to its head, the frames
  /// before it end up in `spill` (a taken one moved back, in ring order),
  /// and the error, attributed to `src`, is returned. Touches only this
  /// ring, `*take` and `spill`. Only legal when this process is the ring's
  /// consumer.
  std::exception_ptr drain_ring_into(int src, int dst, int take_tag,
                                     RecvSlot* take,
                                     std::vector<WireMessage>& spill);
  /// Moves every complete frame of ring (src, dst) into the demux queues;
  /// throws drain_ring_into's error after queueing the frames before it.
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
