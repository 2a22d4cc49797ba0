#include "comm/transport/shm.hpp"

#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <time.h>
#include <unistd.h>

#include <algorithm>
#include <bit>
#include <cerrno>
#include <cstring>
#include <limits>
#include <sstream>

#include "comm/transport/error.hpp"
#include "comm/transport/framing.hpp"
#include "comm/transport/handshake.hpp"
#include "utils/error.hpp"
#include "utils/threadpool.hpp"

namespace fca::comm {

namespace {

constexpr uint32_t kRegionMagic = 0x4643534Du;  // "FCSM"
// v2: the frames inside the rings carry a format version + CRC32
// (framing.hpp), so a v1 process must be refused at attach time — its frames
// would all fail integrity checks anyway.
constexpr uint32_t kRegionVersion = 2;
constexpr size_t kMaxHandshakeBytes = 4096;
/// Auto ring sizing: a fixed region budget divided across world^2 rings,
/// clamped so tiny worlds get roomy rings and huge worlds stay mappable.
constexpr size_t kRegionBudgetBytes = 64u << 20;
constexpr size_t kMinRingCapacity = 64u << 10;
constexpr size_t kMaxRingCapacity = 1u << 20;

struct RegionHeader {
  uint32_t magic;
  uint32_t version;
  uint32_t world;
  uint32_t handshake_len;
  uint64_t ring_capacity;
  std::atomic<uint32_t> ready;
  std::byte handshake[kMaxHandshakeBytes];
};

static_assert(std::atomic<uint64_t>::is_always_lock_free &&
                  std::atomic<uint32_t>::is_always_lock_free,
              "shm rings require lock-free atomics");

size_t align_up(size_t n, size_t a) { return (n + a - 1) / a * a; }

void sleep_briefly() {
  timespec ts{0, 200 * 1000};  // 200 µs
  nanosleep(&ts, nullptr);
}

void sleep_seconds(double s) {
  if (s <= 0.0) return;
  timespec ts{};
  ts.tv_sec = static_cast<time_t>(s);
  ts.tv_nsec = static_cast<long>((s - static_cast<double>(ts.tv_sec)) * 1e9);
  nanosleep(&ts, nullptr);
}

double monotonic_seconds() {
  timespec ts{};
  clock_gettime(CLOCK_MONOTONIC, &ts);
  return static_cast<double>(ts.tv_sec) + 1e-9 * static_cast<double>(ts.tv_nsec);
}

size_t auto_ring_capacity(int world) {
  const size_t rings = static_cast<size_t>(world) * static_cast<size_t>(world);
  const size_t per = kRegionBudgetBytes / std::max<size_t>(rings, 1);
  // bit_floor keeps the auto size a power of two (the modular-arithmetic
  // requirement explicit capacities are validated against).
  return std::clamp(std::bit_floor(per), kMinRingCapacity, kMaxRingCapacity);
}

/// The configured retry policy rescaled to ring-full stalls: a healthy
/// consumer drains in microseconds, so the backoff starts at 200 µs and caps
/// at 5 ms, and the attempt budget is effectively unbounded — the io
/// timeout, not the attempt count, decides when the consumer is declared
/// dead.
RetryPolicy stall_policy(const RetryPolicy& base) {
  RetryPolicy p = base;
  p.max_attempts = 1 << 30;
  p.base_backoff_s = 200e-6;
  p.max_backoff_s = 5e-3;
  return p;
}

}  // namespace

ShmTransport::ShmTransport(const TransportOptions& options, int world,
                           Handshake* handshake)
    : Transport(world, options.self_rank),
      shm_name_(options.shm_name),
      io_timeout_s_(options.io_timeout_s),
      stall_retry_(stall_policy(options.retry)) {
  stall_retry_.validate();
  if (options.shm_ring_capacity != 0) {
    const size_t cap = options.shm_ring_capacity;
    FCA_CHECK_MSG(std::has_single_bit(cap),
                  "shm ring capacity " << cap << " is not a power of two");
    FCA_CHECK_MSG(
        cap >= kMinShmRingCapacity && cap <= kMaxShmRingCapacity,
        "shm ring capacity " << cap << " outside [" << kMinShmRingCapacity
                             << ", " << kMaxShmRingCapacity
                             << "] — set FCA_SHM_RING_CAPACITY to a power of "
                                "two in range, or unset it for auto sizing");
    ring_capacity_ = cap;
  } else {
    ring_capacity_ = auto_ring_capacity(world);
  }
  ring_stride_ = align_up(sizeof(RingHeader), 64) + ring_capacity_;
  rings_offset_ = align_up(sizeof(RegionHeader), 64);
  // world^2 rings: checked, since ftruncate takes the size as an off_t and
  // a wrapped product would map a region too small for its rings. Nothing
  // is created or mapped before this.
  size_t rings = 0;
  size_t ring_bytes = 0;
  if (__builtin_mul_overflow(static_cast<size_t>(world),
                             static_cast<size_t>(world), &rings) ||
      __builtin_mul_overflow(rings, ring_stride_, &ring_bytes) ||
      __builtin_add_overflow(rings_offset_, ring_bytes, &map_size_) ||
      map_size_ > static_cast<size_t>(std::numeric_limits<off_t>::max())) {
    std::ostringstream os;
    os << "a shm region for a world of " << world << " ranks with "
       << ring_capacity_ << "-byte rings needs " << world << "^2 x "
       << ring_stride_ << " + " << rings_offset_
       << " bytes, more than an off_t can size";
    throw TransportError(TransportErrc::kHandshakeRejected,
                         TransportError::kNoPeer, os.str());
  }

  created_ = options.shm_create;
  FCA_CHECK_MSG(self_rank_ == TransportOptions::kAllRanks || !shm_name_.empty(),
                "a multi-process shm world needs a --shm-name both sides "
                "agree on");
  if (shm_name_.empty()) {
    // Process-private world (plus fork children): anonymous shared mapping.
    // MAP_NORESERVE: the region is sized world^2 rings, but only the rings
    // of edges that carry frames ever become resident, so reserving swap for
    // all of it would refuse large worlds that need a small fraction of it.
    map_ = mmap(nullptr, map_size_, PROT_READ | PROT_WRITE,
                MAP_SHARED | MAP_ANONYMOUS | MAP_NORESERVE, -1, 0);
    FCA_CHECK_MSG(map_ != MAP_FAILED, "mmap of " << map_size_
                                                 << " shm bytes failed: "
                                                 << std::strerror(errno));
    created_ = true;
  } else if (created_) {
    fd_ = shm_open(shm_name_.c_str(), O_CREAT | O_EXCL | O_RDWR, 0600);
    FCA_CHECK_MSG(fd_ >= 0, "shm_open(" << shm_name_ << ") failed: "
                                        << std::strerror(errno)
                                        << " (stale region from a previous "
                                           "run? shm_unlink it)");
    FCA_CHECK_MSG(ftruncate(fd_, static_cast<off_t>(map_size_)) == 0,
                  "ftruncate(" << shm_name_ << ", " << map_size_
                               << ") failed: " << std::strerror(errno));
    map_ = mmap(nullptr, map_size_, PROT_READ | PROT_WRITE, MAP_SHARED, fd_, 0);
    FCA_CHECK_MSG(map_ != MAP_FAILED,
                  "mmap(" << shm_name_ << ") failed: " << std::strerror(errno));
  } else {
    // Attach with retries: the creator may not have run yet.
    const double deadline = monotonic_seconds() + io_timeout_s_;
    while (true) {
      fd_ = shm_open(shm_name_.c_str(), O_RDWR, 0600);
      if (fd_ >= 0) {
        struct stat st {};
        FCA_CHECK(fstat(fd_, &st) == 0);
        if (static_cast<size_t>(st.st_size) >= map_size_) break;
        close(fd_);
        fd_ = -1;
      }
      if (monotonic_seconds() >= deadline) {
        std::ostringstream os;
        os << "timed out attaching to shm region " << shm_name_
           << " — did the creator (rank 0) start?";
        throw TransportError(TransportErrc::kPeerUnreachable, 0, os.str());
      }
      sleep_briefly();
    }
    map_ = mmap(nullptr, map_size_, PROT_READ | PROT_WRITE, MAP_SHARED, fd_, 0);
    FCA_CHECK_MSG(map_ != MAP_FAILED,
                  "mmap(" << shm_name_ << ") failed: " << std::strerror(errno));
  }

  auto* header = reinterpret_cast<RegionHeader*>(map_);
  if (created_) {
    // A fresh shm object (O_EXCL + ftruncate) and an anonymous mapping are
    // already zero-filled by the kernel, so every ring starts empty (head ==
    // tail == 0) without a write. Writing only the region header keeps every
    // unused ring non-resident, header page included: a ring costs memory
    // only once an edge first carries a frame.
    header->magic = kRegionMagic;
    header->version = kRegionVersion;
    header->world = static_cast<uint32_t>(world);
    header->ring_capacity = ring_capacity_;
    if (handshake != nullptr) {
      const Bytes blob = handshake->serialize();
      FCA_CHECK_MSG(blob.size() <= kMaxHandshakeBytes,
                    "handshake blob of " << blob.size()
                                         << " bytes exceeds the region slot");
      std::memcpy(header->handshake, blob.data(), blob.size());
      header->handshake_len = static_cast<uint32_t>(blob.size());
    }
    header->ready.store(1, std::memory_order_release);
  } else {
    const double deadline = monotonic_seconds() + io_timeout_s_;
    while (header->ready.load(std::memory_order_acquire) == 0) {
      if (monotonic_seconds() >= deadline) {
        std::ostringstream os;
        os << "shm region " << shm_name_ << " never became ready";
        throw TransportError(TransportErrc::kTimeout, 0, os.str());
      }
      sleep_briefly();
    }
    const auto reject = [](const std::string& what) {
      throw TransportError(TransportErrc::kHandshakeRejected,
                           TransportError::kNoPeer, what);
    };
    if (header->magic != kRegionMagic) {
      reject("shm region " + shm_name_ + " has a foreign magic");
    }
    if (header->version != kRegionVersion) {
      std::ostringstream os;
      os << "shm region version " << header->version << ", expected "
         << kRegionVersion << " — run the same build on every rank";
      reject(os.str());
    }
    if (header->world != static_cast<uint32_t>(world)) {
      std::ostringstream os;
      os << "shm region world " << header->world << ", expected " << world;
      reject(os.str());
    }
    if (header->ring_capacity != ring_capacity_) {
      std::ostringstream os;
      os << "shm ring capacity mismatch: region " << header->ring_capacity
         << ", local " << ring_capacity_
         << " — both sides must agree on FCA_SHM_RING_CAPACITY";
      reject(os.str());
    }
    if (header->handshake_len > kMaxHandshakeBytes) {
      std::ostringstream os;
      os << "shm region handshake claims " << header->handshake_len
         << " bytes; its slot holds " << kMaxHandshakeBytes;
      reject(os.str());
    }
    if (handshake != nullptr && header->handshake_len > 0) {
      *handshake = Handshake::parse(std::span<const std::byte>(
          header->handshake, header->handshake_len));
    }
  }
}

ShmTransport::~ShmTransport() {
  if (map_ != nullptr && map_ != MAP_FAILED) munmap(map_, map_size_);
  if (fd_ >= 0) close(fd_);
  if (created_ && !shm_name_.empty()) shm_unlink(shm_name_.c_str());
}

ShmTransport::RingHeader& ShmTransport::ring_header(int src, int dst) const {
  const size_t index = static_cast<size_t>(src) * static_cast<size_t>(world_) +
                       static_cast<size_t>(dst);
  return *reinterpret_cast<RingHeader*>(region_base() + rings_offset_ +
                                        index * ring_stride_);
}

std::byte* ShmTransport::ring_data(int src, int dst) const {
  const size_t index = static_cast<size_t>(src) * static_cast<size_t>(world_) +
                       static_cast<size_t>(dst);
  return region_base() + rings_offset_ + index * ring_stride_ +
         align_up(sizeof(RingHeader), 64);
}

bool ShmTransport::ring_write(int src, int dst, const WireView& msg) {
  RingHeader& r = ring_header(src, dst);
  const uint64_t frame = framing::frame_size(msg.payload.size());
  const uint64_t head = r.head.load(std::memory_order_relaxed);
  const uint64_t tail = r.tail.load(std::memory_order_acquire);
  if (ring_capacity_ - (head - tail) < frame) return false;

  std::byte header[framing::kHeaderBytes];
  framing::encode_header(
      {msg.src, msg.dst, msg.tag, static_cast<uint32_t>(msg.payload.size()),
       msg.transfer_s, 0},
      header, msg.payload);
  std::byte* data = ring_data(src, dst);
  auto copy_in = [&](uint64_t at, const std::byte* p, size_t n) {
    if (n == 0) return;  // an empty payload's data() may be null
    const size_t pos = static_cast<size_t>(at % ring_capacity_);
    const size_t first = std::min(n, ring_capacity_ - pos);
    std::memcpy(data + pos, p, first);
    if (first < n) std::memcpy(data, p + first, n - first);
  };
  copy_in(head, header, framing::kHeaderBytes);
  copy_in(head + framing::kHeaderBytes, msg.payload.data(),
          msg.payload.size());
  r.head.store(head + frame, std::memory_order_release);
  return true;
}

std::exception_ptr ShmTransport::drain_ring_into(
    int src, int dst, int take_tag, RecvSlot* take,
    std::vector<WireMessage>& spill) {
  RingHeader& r = ring_header(src, dst);
  const uint64_t head = r.head.load(std::memory_order_acquire);
  uint64_t tail = r.tail.load(std::memory_order_relaxed);
  if (head == tail) return nullptr;
  const std::byte* data = ring_data(src, dst);
  auto copy_out = [&](uint64_t at, std::byte* p, size_t n) {
    const size_t pos = static_cast<size_t>(at % ring_capacity_);
    const size_t first = std::min(n, ring_capacity_ - pos);
    std::memcpy(p, data + pos, first);
    if (first < n) std::memcpy(p + first, data, n - first);
  };
  // Appends ring bytes [at, at + n) to `out` without zero-filling it first.
  auto append_out = [&](uint64_t at, Bytes& out, size_t n) {
    const size_t pos = static_cast<size_t>(at % ring_capacity_);
    const size_t first = std::min(n, ring_capacity_ - pos);
    out.reserve(n);
    out.insert(out.end(), data + pos, data + pos + first);
    out.insert(out.end(), data, data + (n - first));
  };
  bool took = false;
  size_t taken_at = 0;  // the taken frame's place among the spilled ones
  // The producer publishes head only after the whole frame is in the
  // buffer, so everything below head parses as complete frames.
  try {
    while (head - tail >= framing::kHeaderBytes) {
      std::byte raw[framing::kHeaderBytes];
      copy_out(tail, raw, framing::kHeaderBytes);
      const framing::FrameHeader h = framing::decode_header(raw);
      if (h.src != src || h.dst != dst) {
        std::ostringstream os;
        os << "frame addressed (" << h.src << " -> " << h.dst
           << ") found in ring (" << src << " -> " << dst << ")";
        framing::fail_corrupt(os.str());
      }
      if (framing::frame_size(h.payload_len) > head - tail) {
        std::ostringstream os;
        os << "frame claims " << h.payload_len
           << " payload byte(s) beyond the published ring contents";
        framing::fail_corrupt(os.str());
      }
      if (take != nullptr && !take->received && h.tag == take_tag) {
        take->payload.clear();  // keeps the capacity
        append_out(tail + framing::kHeaderBytes, take->payload,
                   h.payload_len);
        framing::verify_frame(h, raw, take->payload);
        take->transfer_s = h.transfer_s;
        take->received = took = true;
        taken_at = spill.size();
      } else {
        WireMessage msg;
        msg.src = h.src;
        msg.dst = h.dst;
        msg.tag = h.tag;
        msg.transfer_s = h.transfer_s;
        append_out(tail + framing::kHeaderBytes, msg.payload, h.payload_len);
        framing::verify_frame(h, raw, msg.payload);
        spill.push_back(std::move(msg));
      }
      tail += framing::frame_size(h.payload_len);
    }
  } catch (const TransportError& e) {
    // Keep the frames consumed before the bad one, then condemn the
    // producer: nothing after a desynchronized frame can be trusted.
    if (took) {
      spill.insert(spill.begin() + static_cast<std::ptrdiff_t>(taken_at),
                   WireMessage{src, dst, take_tag, take->transfer_s,
                               std::move(take->payload)});
      take->received = false;
    }
    r.tail.store(head, std::memory_order_release);
    return std::make_exception_ptr(TransportError(e, src));
  }
  r.tail.store(tail, std::memory_order_release);
  return nullptr;
}

void ShmTransport::drain_ring(int src, int dst) {
  std::vector<WireMessage> spill;
  const std::exception_ptr error =
      drain_ring_into(src, dst, 0, nullptr, spill);
  for (WireMessage& msg : spill) queues_.push(std::move(msg));
  if (error) std::rethrow_exception(error);
}

void ShmTransport::drain_all_inbound() {
  for (int d = 0; d < world_; ++d) {
    if (!consumes(d)) continue;
    for (int s = 0; s < world_; ++s) drain_ring(s, d);
  }
}

void ShmTransport::check_send(const WireView& msg) const {
  check_rank_pair(msg.dst, msg.src);
  FCA_CHECK_MSG(produces(msg.src),
                "rank " << self_rank_ << " cannot send as rank " << msg.src);
  FCA_CHECK_MSG(
      framing::frame_size(msg.payload.size()) <= ring_capacity_,
      "message of " << msg.payload.size() << " bytes exceeds the shm ring "
                    << "capacity of " << ring_capacity_
                    << " — raise FCA_SHM_RING_CAPACITY");
}

void ShmTransport::send(const WireView& msg) {
  check_send(msg);
  note_sent_frame(msg.payload.size());
  const double deadline = monotonic_seconds() + io_timeout_s_;
  std::optional<RetrySchedule> stall;
  while (!ring_write(msg.src, msg.dst, msg)) {
    if (consumes(msg.dst)) {
      // All-local world: the consumer is this very process, so waiting
      // would deadlock — drain the full ring into the demux queues instead.
      drain_ring(msg.src, msg.dst);
      continue;
    }
    if (!stall.has_value()) {
      stall.emplace(stall_retry_, "shm.ring_full", stall_episodes_++);
    }
    const std::optional<double> backoff = stall->next_backoff_s();
    if (!backoff.has_value() || monotonic_seconds() >= deadline) {
      std::ostringstream os;
      os << "shm ring (" << msg.src << " -> " << msg.dst
         << ") stayed full for " << io_timeout_s_ << "s ("
         << stall->attempts()
         << " backoff(s)) — is the peer process alive?";
      throw TransportError(TransportErrc::kRingStalled, msg.dst, os.str());
    }
    note_retry();
    sleep_seconds(*backoff);
  }
}

namespace {

/// True when two of `keys` (ring indices) are equal: those messages share a
/// ring, and only a serial loop keeps their order.
bool shares_a_ring(std::vector<size_t> keys) {
  std::sort(keys.begin(), keys.end());
  return std::adjacent_find(keys.begin(), keys.end()) != keys.end();
}

}  // namespace

void ShmTransport::send_many(std::span<const WireView> msgs,
                             std::span<std::exception_ptr> errors) {
  FCA_CHECK(errors.size() == msgs.size());
  size_t largest = 0;
  for (const WireView& m : msgs) largest = std::max(largest, m.payload.size());
  if (largest < kFanOutFrameBytes) {
    Transport::send_many(msgs, errors);
    return;
  }
  std::vector<size_t> rings;
  rings.reserve(msgs.size());
  for (const WireView& m : msgs) {
    check_send(m);  // every message, before the first write
    rings.push_back(static_cast<size_t>(m.src) * static_cast<size_t>(world_) +
                    static_cast<size_t>(m.dst));
  }
  if (shares_a_ring(std::move(rings))) {
    Transport::send_many(msgs, errors);
    return;
  }
  std::vector<char> written(msgs.size(), 0);
  parallel_for_range(
      0, static_cast<int64_t>(msgs.size()),
      [&](int64_t lo, int64_t hi) {
        for (int64_t i = lo; i < hi; ++i) {
          const WireView& m = msgs[static_cast<size_t>(i)];
          written[static_cast<size_t>(i)] = ring_write(m.src, m.dst, m) ? 1 : 0;
        }
      },
      1);
  for (size_t i = 0; i < msgs.size(); ++i) {
    if (written[i] != 0) {
      note_sent_frame(msgs[i].payload.size());
      continue;
    }
    // A full ring: send() self-drains it (all-local) or stalls for the
    // remote consumer, both of which belong on this thread.
    try {
      send(msgs[i]);
    } catch (const TransportError& e) {
      errors[i] = std::current_exception();
      if (e.peer_scoped()) continue;
      // The batch stops here, but the later frames the pool wrote are
      // already in their rings: count them, so the counters match the
      // rings.
      for (size_t j = i + 1; j < msgs.size(); ++j) {
        if (written[j] != 0) note_sent_frame(msgs[j].payload.size());
      }
      return;
    }
  }
}

void ShmTransport::recv_many(int dst, int tag, std::span<RecvSlot> slots) {
  size_t largest = 0;
  bool remote_wait = false;
  std::vector<size_t> rings;
  rings.reserve(slots.size());
  for (const RecvSlot& s : slots) {
    check_rank_pair(dst, s.src);
    FCA_CHECK_MSG(consumes(dst),
                  "rank " << self_rank_ << " cannot receive as rank " << dst);
    const RingHeader& r = ring_header(s.src, dst);
    largest = std::max<size_t>(largest,
                               r.head.load(std::memory_order_acquire) -
                                   r.tail.load(std::memory_order_relaxed));
    remote_wait = remote_wait || (s.wait && !produces(s.src));
    rings.push_back(static_cast<size_t>(s.src));
  }
  if (largest < kFanOutFrameBytes || remote_wait ||
      shares_a_ring(std::move(rings))) {
    Transport::recv_many(dst, tag, slots);
    return;
  }
  // A frame already queued for (src, dst, tag) is older than anything in
  // the ring, so it is the one try_recv would return.
  std::vector<char> queued(slots.size(), 0);
  for (size_t i = 0; i < slots.size(); ++i) {
    RecvSlot& s = slots[i];
    std::optional<WireMessage> msg = queues_.pop(dst, s.src, tag);
    if (!msg.has_value()) continue;
    s.payload = std::move(msg->payload);
    s.transfer_s = msg->transfer_s;
    s.received = true;
    queued[i] = 1;
    note_consumed_frame();
  }
  std::vector<std::vector<WireMessage>> spills(slots.size());
  parallel_for_range(
      0, static_cast<int64_t>(slots.size()),
      [&](int64_t lo, int64_t hi) {
        for (int64_t i = lo; i < hi; ++i) {
          RecvSlot& s = slots[static_cast<size_t>(i)];
          s.error = drain_ring_into(s.src, dst, tag, &s,
                                    spills[static_cast<size_t>(i)]);
        }
      },
      1);
  for (size_t i = 0; i < slots.size(); ++i) {
    for (WireMessage& msg : spills[i]) queues_.push(std::move(msg));
    RecvSlot& s = slots[i];
    if (s.error) {
      s.received = false;
    } else if (s.received && queued[i] == 0) {
      note_consumed_frame();
    }
  }
}

std::optional<WireMessage> ShmTransport::try_recv(int dst, int src, int tag) {
  check_rank_pair(dst, src);
  FCA_CHECK_MSG(consumes(dst),
                "rank " << self_rank_ << " cannot receive as rank " << dst);
  drain_ring(src, dst);
  std::optional<WireMessage> msg = queues_.pop(dst, src, tag);
  if (msg.has_value()) note_consumed_frame();
  return msg;
}

std::optional<WireMessage> ShmTransport::wait_recv(int dst, int src,
                                                   int tag) {
  std::optional<WireMessage> msg = try_recv(dst, src, tag);
  if (msg.has_value() || produces(src)) return msg;
  // The sender is a remote process: wait for the frame to land.
  const double deadline = monotonic_seconds() + io_timeout_s_;
  while (!msg.has_value() && monotonic_seconds() < deadline) {
    sleep_briefly();
    msg = try_recv(dst, src, tag);
  }
  return msg;
}

bool ShmTransport::has_message(int dst, int src, int tag) {
  check_rank_pair(dst, src);
  if (!consumes(dst)) return false;
  drain_ring(src, dst);
  return queues_.has(dst, src, tag);
}

void ShmTransport::clear_pending() {
  drain_all_inbound();
  queues_.clear();
  reset_pending_counters();
}

void ShmTransport::discard_peer(int rank) {
  // Pull whatever the condemned rank already published (complete frames
  // only — head is release-published per frame), then drop it along with
  // anything queued for the rank. A desynchronized ring from a peer that
  // died mid-corruption is already condemned; swallow it here.
  for (int d = 0; d < world_; ++d) {
    if (!consumes(d)) continue;
    try {
      drain_ring(rank, d);
    } catch (const TransportError&) {
    }
  }
  note_consumed_frames(queues_.erase_rank(rank));
}

std::string ShmTransport::describe_pending(int dst, int src) {
  if (consumes(dst)) drain_ring(src, dst);
  return queues_.describe(dst, src);
}

}  // namespace fca::comm
