// Transport tier: the pluggable comm backends (comm/transport/) behind
// Network. Covers the shared framing codec, the rendezvous handshake blob,
// per-backend fabric mechanics (every backend must behave exactly like the
// inproc oracle), real cross-process operation via fork (shm rings, tcp
// rendezvous), and the headline property: one seeded federated run produces
// byte-identical curves, survivor sets and traffic totals on every backend.
#include "comm/transport/transport.hpp"

#include <gtest/gtest.h>

#include <sys/socket.h>
#include <sys/wait.h>
#include <netinet/in.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <fstream>
#include <limits>
#include <span>
#include <string>
#include <thread>

#include "comm/endpoint.hpp"
#include "comm/network.hpp"
#include "comm/transport/framing.hpp"
#include "comm/transport/handshake.hpp"
#include "comm/transport/shm.hpp"
#include "core/fedclassavg.hpp"
#include "core/trainer.hpp"
#include "fl_fixtures.hpp"
#include "utils/error.hpp"

namespace fca::comm {
namespace {

Bytes make_payload(size_t n, std::byte fill = std::byte{0xAB}) {
  return Bytes(n, fill);
}

WireMessage make_msg(int src, int dst, int tag, Bytes payload,
                     double transfer_s = 0.0) {
  WireMessage m;
  m.src = src;
  m.dst = dst;
  m.tag = tag;
  m.transfer_s = transfer_s;
  m.payload = std::move(payload);
  return m;
}

// ---------------------------------------------------------------------------
// Framing codec
// ---------------------------------------------------------------------------

TEST(Framing, HeaderRoundTripsBitExactly) {
  framing::FrameHeader h;
  h.src = 3;
  h.dst = 0;
  h.tag = -7;
  h.payload_len = 12345;
  h.transfer_s = 0.1 + 1e-17;  // a value that must survive bit-exactly
  std::byte buf[framing::kHeaderBytes];
  framing::encode_header(h, buf, {});
  const framing::FrameHeader back = framing::decode_header(buf);
  EXPECT_EQ(back.src, h.src);
  EXPECT_EQ(back.dst, h.dst);
  EXPECT_EQ(back.tag, h.tag);
  EXPECT_EQ(back.payload_len, h.payload_len);
  EXPECT_EQ(std::bit_cast<uint64_t>(back.transfer_s),
            std::bit_cast<uint64_t>(h.transfer_s));
}

TEST(Framing, BadMagicThrows) {
  std::byte buf[framing::kHeaderBytes] = {};
  framing::encode_header({}, buf, {});
  buf[0] = std::byte{0x00};
  EXPECT_THROW(framing::decode_header(buf), Error);
}

TEST(Framing, WrongVersionThrowsTyped) {
  std::byte buf[framing::kHeaderBytes] = {};
  framing::encode_header({}, buf, {});
  const uint32_t version = framing::kFrameVersion + 1;
  std::memcpy(buf + 4, &version, sizeof(version));
  try {
    framing::decode_header(buf);
    ADD_FAILURE() << "cross-version frame accepted";
  } catch (const TransportError& e) {
    EXPECT_EQ(e.code(), TransportErrc::kFrameCorrupt);
  }
}

TEST(Framing, CrcFlipDetectedAtEveryOffset) {
  const Bytes payload = make_payload(33, std::byte{0x5A});
  Bytes frame;
  framing::append_frame(frame, 1, 2, 9, 0.25, payload);
  ASSERT_EQ(frame.size(), framing::frame_size(payload.size()));
  // Sanity: the untouched frame verifies.
  const framing::FrameHeader good = framing::decode_header(frame.data());
  framing::verify_frame(
      good, frame.data(),
      std::span<const std::byte>(frame.data() + framing::kHeaderBytes,
                                 good.payload_len));
  // A single flipped bit anywhere in the frame must be detected: either
  // decode refuses the header (magic/version bytes) or the CRC mismatches.
  for (size_t offset = 0; offset < frame.size(); ++offset) {
    Bytes bad = frame;
    bad[offset] ^= std::byte{0x10};
    bool detected = false;
    try {
      const framing::FrameHeader h = framing::decode_header(bad.data());
      if (framing::frame_size(h.payload_len) != bad.size()) {
        detected = true;  // length field corrupt: stream-level desync
      } else {
        framing::verify_frame(
            h, bad.data(),
            std::span<const std::byte>(bad.data() + framing::kHeaderBytes,
                                       h.payload_len));
      }
    } catch (const TransportError& e) {
      EXPECT_EQ(e.code(), TransportErrc::kFrameCorrupt);
      detected = true;
    }
    EXPECT_TRUE(detected) << "flip at offset " << offset
                          << " was accepted silently";
  }
}

TEST(Framing, WriterReaderRoundTrip) {
  utils::ByteWriter w;
  w.u32(7);
  w.u64(0xDEADBEEFCAFEF00Dull);
  w.i32(-42);
  w.f64(-0.0);
  w.str("hello");
  w.bytes(make_payload(3, std::byte{9}));
  const Bytes blob = w.take();
  utils::ByteReader r(blob);
  EXPECT_EQ(r.u32(), 7u);
  EXPECT_EQ(r.u64(), 0xDEADBEEFCAFEF00Dull);
  EXPECT_EQ(r.i32(), -42);
  EXPECT_EQ(std::bit_cast<uint64_t>(r.f64()), std::bit_cast<uint64_t>(-0.0));
  EXPECT_EQ(r.str(), "hello");
  EXPECT_TRUE(std::ranges::equal(r.bytes(), make_payload(3, std::byte{9})));
  EXPECT_EQ(r.remaining(), 0u);
}

TEST(Framing, ReaderRejectsTruncation) {
  utils::ByteWriter w;
  w.u64(1);
  const Bytes blob = w.take();
  utils::ByteReader r(std::span<const std::byte>(blob.data(), 4));
  EXPECT_THROW(r.u64(), Error);
}

// ---------------------------------------------------------------------------
// Handshake + fault-plan serialization (the rendezvous context)
// ---------------------------------------------------------------------------

FaultConfig sample_fault_config() {
  FaultConfig fc;
  fc.drop_rate = 0.125;
  fc.straggler_rate = 0.25;
  fc.straggler_delay_s = 3.5;
  fc.round_deadline_s = 1.25;
  fc.crash_rate = 0.0625;
  fc.crash_rounds = 2;
  fc.crash_schedule = parse_crash_schedule("2@3x2,4@7");
  fc.fault_seed = 0xFEEDFACE12345678ull;
  return fc;
}

TEST(Handshake, FaultConfigRoundTripsBitExactly) {
  const FaultConfig fc = sample_fault_config();
  EXPECT_EQ(parse_fault_config(serialize_fault_config(fc)), fc);
  EXPECT_EQ(parse_fault_config(serialize_fault_config(FaultConfig{})),
            FaultConfig{});
}

TEST(Handshake, FaultStatsRoundTrip) {
  FaultStats fs;
  fs.dropped_messages = 11;
  fs.dropped_bytes = 1u << 20;
  fs.delayed_messages = 3;
  fs.deadline_misses = 2;
  fs.crashed_client_rounds = 5;
  fs.rejoins = 4;
  fs.aborted_rounds = 1;
  EXPECT_EQ(parse_fault_stats(serialize_fault_stats(fs)), fs);
}

TEST(Handshake, BlobRoundTripsResumeContext) {
  // A resumed multi-process run ships its full context through the
  // handshake: the seed, the round cursor, the fault schedule and the
  // counters accumulated before the split.
  Handshake hs;
  hs.seed = 987654321;
  hs.next_round = 5;
  hs.faults = sample_fault_config();
  hs.fault_stats.dropped_messages = 7;
  hs.fault_stats.deadline_misses = 1;
  const Handshake back = Handshake::parse(hs.serialize());
  EXPECT_EQ(back.seed, hs.seed);
  EXPECT_EQ(back.next_round, hs.next_round);
  EXPECT_EQ(back.faults, hs.faults);
  EXPECT_EQ(back.fault_stats, hs.fault_stats);
}

TEST(Handshake, ParseRejectsGarbage) {
  EXPECT_THROW(Handshake::parse(make_payload(8, std::byte{0x42})), Error);
  EXPECT_THROW(Handshake::parse({}), Error);
}

/// A representative v2 blob: resume cursor, fault schedule, world shape,
/// config digest and flags all populated, so every wire field is non-trivial.
Bytes sample_handshake_blob() {
  Handshake hs;
  hs.seed = 0xA5A5'0001'BEEF'CAFEull;
  hs.next_round = 7;
  hs.faults = sample_fault_config();
  hs.fault_stats.dropped_messages = 3;
  hs.world_size = 5;
  hs.population = 4;
  hs.config_digest = 0x1234'5678'9ABC'DEF0ull;
  hs.flags = Handshake::kFlagTracing;
  return hs.serialize();
}

void expect_rejected(std::span<const std::byte> blob,
                     const std::string& what) {
  try {
    (void)Handshake::parse(blob);
    FAIL() << what << ": malformed blob was accepted";
  } catch (const TransportError& e) {
    EXPECT_EQ(e.code(), TransportErrc::kHandshakeRejected) << what;
    // Setup-time failure: not attributable to one peer, so the degradation
    // machinery must not condemn anyone over it.
    EXPECT_FALSE(e.peer_scoped()) << what;
  }
}

TEST(Handshake, EveryTruncationRejectedTyped) {
  // Cutting the blob at ANY byte boundary must surface as the one typed
  // setup error — never a crash, never a default-initialized context.
  const Bytes blob = sample_handshake_blob();
  ASSERT_GT(blob.size(), 30u);
  for (size_t len = 0; len < blob.size(); ++len) {
    expect_rejected(std::span(blob.data(), len),
                    "truncated to " + std::to_string(len) + " bytes");
  }
  // The untruncated blob still parses — the loop above exercised real
  // prefixes of a valid message, not garbage.
  EXPECT_NO_THROW((void)Handshake::parse(blob));
}

TEST(Handshake, VersionSkewRejectedBothDirections) {
  Bytes blob = sample_handshake_blob();
  // Wire layout starts with magic(u32) then version(u32), little-endian.
  for (uint32_t version : {0u, 1u, 3u, 0xFFFFFFFFu}) {
    Bytes skewed = blob;
    std::memcpy(skewed.data() + 4, &version, sizeof(version));
    expect_rejected(skewed, "version " + std::to_string(version));
  }
  Bytes bad_magic = blob;
  bad_magic[0] ^= std::byte{0xFF};
  expect_rejected(bad_magic, "corrupted magic");
}

TEST(Handshake, CorruptedFaultConfigRejectedNotDefaulted) {
  // Flip the embedded FaultConfig's own wire-version field: the outer
  // framing is intact, so only the nested parse can catch it — and it must
  // translate to kHandshakeRejected, not adopt a default (fault-free!)
  // schedule that would silently desynchronize the world.
  const Bytes blob = sample_handshake_blob();
  const Bytes inner = serialize_fault_config(sample_fault_config());
  const auto it = std::search(blob.begin(), blob.end(), inner.begin(),
                              inner.end());
  ASSERT_NE(it, blob.end()) << "fault config bytes not found in the blob";
  Bytes corrupted = blob;
  corrupted[static_cast<size_t>(it - blob.begin())] ^= std::byte{0x20};
  expect_rejected(corrupted, "fault config version flip");

  // Shrinking the nested length prefix truncates the FaultConfig mid-field.
  const size_t len_at = static_cast<size_t>(it - blob.begin()) - 4;
  Bytes shortened = blob;
  uint32_t short_len = 5;
  std::memcpy(shortened.data() + len_at, &short_len, sizeof(short_len));
  expect_rejected(shortened, "fault config length shrunk");
}

TEST(Handshake, SingleByteFlipFuzzNeverCrashes) {
  // Deterministic one-byte fuzz over the whole blob: every mutation either
  // parses (flips inside value fields yield a different but well-formed
  // context) or throws the typed rejection. Nothing may crash, hang, or
  // throw an untyped error.
  const Bytes blob = sample_handshake_blob();
  for (size_t i = 0; i < blob.size(); ++i) {
    for (const std::byte flip : {std::byte{0x01}, std::byte{0xFF}}) {
      Bytes mutated = blob;
      mutated[i] ^= flip;
      try {
        (void)Handshake::parse(mutated);
      } catch (const TransportError& e) {
        EXPECT_EQ(e.code(), TransportErrc::kHandshakeRejected)
            << "byte " << i << " flip 0x" << std::hex
            << std::to_integer<int>(flip);
      }
    }
  }
}

TEST(Handshake, ReproducesExactFaultSchedule) {
  // The property the handshake exists for: a process that only saw the blob
  // derives the identical fault schedule as the one that configured it.
  const FaultConfig original = sample_fault_config();
  const FaultConfig parsed =
      parse_fault_config(serialize_fault_config(original));
  const FaultPlan a(original, 8);
  const FaultPlan b(parsed, 8);
  for (int round = 1; round <= 10; ++round) {
    for (int rank = 0; rank < 8; ++rank) {
      EXPECT_EQ(a.crashed(round, rank), b.crashed(round, rank));
      EXPECT_EQ(a.straggling(round, rank), b.straggling(round, rank));
      EXPECT_EQ(a.rejoined(round, rank), b.rejoined(round, rank));
    }
  }
  for (uint64_t seq = 1; seq <= 64; ++seq) {
    EXPECT_EQ(a.drop_message(1, 0, 2, seq), b.drop_message(1, 0, 2, seq));
  }
}

// ---------------------------------------------------------------------------
// Backend mechanics — every backend must match the inproc oracle
// ---------------------------------------------------------------------------

struct BackendCase {
  const char* name;
  TransportKind kind;
};

class TransportBackend : public ::testing::TestWithParam<BackendCase> {
 protected:
  std::unique_ptr<Transport> make(int world) {
    TransportOptions opts;
    opts.kind = GetParam().kind;
    return make_transport(opts, world);
  }
};

TEST_P(TransportBackend, SendThenRecvRoundTrips) {
  auto t = make(3);
  t->send(make_msg(0, 2, 7, make_payload(10), 0.25));
  const WireMessage got = t->recv(2, 0, 7);
  EXPECT_EQ(got.src, 0);
  EXPECT_EQ(got.dst, 2);
  EXPECT_EQ(got.tag, 7);
  EXPECT_DOUBLE_EQ(got.transfer_s, 0.25);
  EXPECT_EQ(got.payload, make_payload(10));
}

TEST_P(TransportBackend, FifoOrderPerChannelAndIndependentTags) {
  auto t = make(2);
  t->send(make_msg(0, 1, 1, make_payload(1, std::byte{1})));
  t->send(make_msg(0, 1, 1, make_payload(1, std::byte{2})));
  t->send(make_msg(0, 1, 9, make_payload(1, std::byte{9})));
  EXPECT_EQ(t->recv(1, 0, 9).payload[0], std::byte{9});
  EXPECT_EQ(t->recv(1, 0, 1).payload[0], std::byte{1});
  EXPECT_EQ(t->recv(1, 0, 1).payload[0], std::byte{2});
}

TEST_P(TransportBackend, PendingAndClearPending) {
  auto t = make(2);
  EXPECT_EQ(t->pending_messages(), 0u);
  EXPECT_FALSE(t->has_message(1, 0, 1));
  t->send(make_msg(0, 1, 1, make_payload(4)));
  t->send(make_msg(1, 0, 2, make_payload(4)));
  EXPECT_EQ(t->pending_messages(), 2u);
  EXPECT_TRUE(t->has_message(1, 0, 1));
  t->clear_pending();
  EXPECT_EQ(t->pending_messages(), 0u);
  EXPECT_FALSE(t->try_recv(1, 0, 1).has_value());
}

TEST_P(TransportBackend, RecvWithoutSendThrowsDiagnostic) {
  auto t = make(2);
  EXPECT_THROW(t->recv(1, 0, 1), Error);
  t->send(make_msg(0, 1, 1, make_payload(1)));
  try {
    t->recv(1, 0, 2);  // wrong tag
    FAIL() << "expected recv to throw";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("tag=1"), std::string::npos)
        << e.what();
  }
  try {
    t->recv(0, 1, 1);  // swapped direction
    FAIL() << "expected recv to throw";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("swapped src/dst"),
              std::string::npos)
        << e.what();
  }
}

TEST_P(TransportBackend, RecvWithDeadlineConsumesLateMessages) {
  // The deadline is Network's (recv_within), read from the transfer time
  // the backend carried in the frame. At 2 B/s a 10-byte message takes 5 s
  // and a 1-byte one 0.5 s.
  CostModel cost;
  cost.bandwidth_bps = 2.0;
  Network net(2, cost, {}, make(2));
  net.send(0, 1, 1, make_payload(10));
  net.send(0, 1, 1, make_payload(1));
  EXPECT_FALSE(net.recv_within(1, 0, 1, 1.0).has_value());
  EXPECT_EQ(net.fault_stats().deadline_misses, 1u);  // the 5s message...
  const std::optional<Bytes> on_time = net.recv_within(1, 0, 1, 1.0);
  ASSERT_TRUE(on_time.has_value());  // ...was consumed, exposing the next
  EXPECT_EQ(on_time->size(), 1u);
  EXPECT_EQ(net.fault_stats().deadline_misses, 1u);
  EXPECT_EQ(net.pending_messages(), 0u);
  EXPECT_THROW(net.recv_within(1, 0, 1, 0.0), Error);
  EXPECT_THROW(
      net.recv_within(1, 0, 1, std::numeric_limits<double>::quiet_NaN()),
      Error);
}

TEST_P(TransportBackend, WireBytesUseTheSharedFrameFormula) {
  // The backend-invariance contract: moving the same traffic costs the same
  // accounted wire bytes on every backend, computed as header + payload.
  auto t = make(2);
  t->send(make_msg(0, 1, 1, make_payload(100)));
  t->send(make_msg(1, 0, 2, make_payload(3)));
  (void)t->recv(1, 0, 1);
  (void)t->recv(0, 1, 2);
  EXPECT_EQ(t->wire_bytes(),
            framing::frame_size(100) + framing::frame_size(3));
}

TEST_P(TransportBackend, RankBoundsChecked) {
  auto t = make(2);
  EXPECT_THROW(t->send(make_msg(0, 2, 1, make_payload(1))), Error);
  EXPECT_THROW(t->send(make_msg(-1, 1, 1, make_payload(1))), Error);
}

INSTANTIATE_TEST_SUITE_P(
    AllBackends, TransportBackend,
    ::testing::Values(BackendCase{"inproc", TransportKind::kInproc},
                      BackendCase{"shm", TransportKind::kShm},
                      BackendCase{"tcp", TransportKind::kTcp}),
    [](const ::testing::TestParamInfo<BackendCase>& info) {
      return info.param.name;
    });

TEST(TransportFactory, ParseAndEnvOverride) {
  EXPECT_EQ(parse_transport_kind("shm"), TransportKind::kShm);
  EXPECT_THROW(parse_transport_kind("carrier-pigeon"), Error);
  ASSERT_EQ(setenv("FCA_TRANSPORT", "tcp", 1), 0);
  ASSERT_EQ(setenv("FCA_SHM_RING_CAPACITY", "262144", 1), 0);
  const TransportOptions opts = transport_options_from_env();
  EXPECT_EQ(opts.kind, TransportKind::kTcp);
  EXPECT_EQ(opts.shm_ring_capacity, 262144u);
  unsetenv("FCA_TRANSPORT");
  unsetenv("FCA_SHM_RING_CAPACITY");
}

TEST(TransportFactory, InprocRejectsMultiProcess) {
  TransportOptions opts;
  opts.self_rank = 0;
  EXPECT_THROW(make_transport(opts, 2), Error);
}

// ---------------------------------------------------------------------------
// shm: ring pressure and real cross-process operation
// ---------------------------------------------------------------------------

TEST(ShmTransport, AllLocalSelfDrainsAFullRing) {
  // Many messages larger than a ring's free space force the producer down
  // the self-drain path (all-local mode drains its own rings instead of
  // waiting for another process).
  TransportOptions opts;
  opts.kind = TransportKind::kShm;
  opts.shm_ring_capacity = 1u << 16;
  auto t = make_transport(opts, 2);
  constexpr int kMessages = 64;
  const size_t payload = 4096;  // 64 * (28 + 4096) >> 64 KiB ring
  for (int i = 0; i < kMessages; ++i) {
    t->send(make_msg(0, 1, 1, make_payload(payload, std::byte(i & 0xFF))));
  }
  for (int i = 0; i < kMessages; ++i) {
    EXPECT_EQ(t->recv(1, 0, 1).payload[0], std::byte(i & 0xFF)) << i;
  }
  EXPECT_EQ(t->pending_messages(), 0u);
}

TEST(ShmTransport, OversizedFrameIsDiagnosed) {
  TransportOptions opts;
  opts.kind = TransportKind::kShm;
  opts.shm_ring_capacity = 1u << 16;
  auto t = make_transport(opts, 2);
  try {
    t->send(make_msg(0, 1, 1, make_payload(1u << 16)));
    FAIL() << "expected the oversized frame to throw";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("FCA_SHM_RING_CAPACITY"),
              std::string::npos)
        << e.what();
  }
}

Bytes patterned_payload(size_t n, int salt) {
  Bytes b(n);
  for (size_t i = 0; i < n; ++i) {
    b[i] = static_cast<std::byte>((i * 167 + static_cast<size_t>(salt) * 29) &
                                  0xFF);
  }
  return b;
}

bool same_bytes(const Bytes& got, const Bytes& want) {
  return got.size() == want.size() &&
         std::memcmp(got.data(), want.data(), want.size()) == 0;
}

TEST(ShmTransport, FannedBroadcastRetriesFullRingsSerially) {
  // Frames large enough for send_many to write the rings on the kernel
  // pool, into 128 KiB rings that cannot hold two of them: the rings that
  // already carry a frame are full, so their writes fail in the fan-out and
  // are retried on the caller, which self-drains them (all-local world).
  constexpr size_t kCapacity = 1u << 17;
  constexpr size_t kFrame = 80u << 10;
  static_assert(kFrame >= kFanOutFrameBytes);
  static_assert(2 * framing::frame_size(kFrame) > kCapacity);
  TransportOptions opts;
  opts.kind = TransportKind::kShm;
  opts.shm_ring_capacity = kCapacity;
  auto t = make_transport(opts, 6);
  const Bytes older1 = patterned_payload(kFrame, 1);
  const Bytes older3 = patterned_payload(kFrame - 9, 3);
  t->send(make_msg(0, 1, 4, older1));
  t->send(make_msg(0, 3, 4, older3));
  const uint64_t wire_before = t->wire_bytes();

  const Bytes payload = patterned_payload(kFrame, 9);
  std::vector<WireView> views;
  for (int dst = 1; dst <= 5; ++dst) views.push_back({0, dst, 4, 0.5, payload});
  std::vector<std::exception_ptr> errors(views.size());
  t->send_many(views, errors);
  for (const std::exception_ptr& e : errors) EXPECT_FALSE(e);
  EXPECT_EQ(t->wire_bytes() - wire_before, 5 * framing::frame_size(kFrame));
  EXPECT_EQ(t->pending_messages(), 7u);

  // Per-ring FIFO: the older frame, then the broadcast's, byte for byte.
  for (int dst = 1; dst <= 5; ++dst) {
    if (dst == 1 || dst == 3) {
      const WireMessage first = t->recv(dst, 0, 4);
      EXPECT_TRUE(same_bytes(first.payload, dst == 1 ? older1 : older3))
          << "rank " << dst;
    }
    const WireMessage got = t->recv(dst, 0, 4);
    EXPECT_TRUE(same_bytes(got.payload, payload)) << "rank " << dst;
    EXPECT_EQ(got.transfer_s, 0.5);
  }
  EXPECT_EQ(t->pending_messages(), 0u);
}

/// A shm backend whose single sends fail with a batch-stopping error once
/// armed. Only the serial full-ring retry of send_many calls send().
class FailingRetryShm : public ShmTransport {
 public:
  using ShmTransport::ShmTransport;
  void send(const WireView& msg) override {
    if (armed) {
      throw TransportError(TransportErrc::kHandshakeRejected, msg.dst,
                           "injected batch-stopping failure");
    }
    ShmTransport::send(msg);
  }
  bool armed = false;
};

TEST(ShmTransport, FannedBroadcastCountsFramesWrittenPastAStoppingError) {
  // Ring (0 -> 1) is full, so its frame is retried serially after the
  // pool wrote the other four, and the retry fails with an error that
  // stops the batch. The four frames are in their rings all the same, and
  // the counters must say so.
  constexpr size_t kCapacity = 1u << 17;
  constexpr size_t kFrame = 80u << 10;
  static_assert(kFrame >= kFanOutFrameBytes);
  static_assert(2 * framing::frame_size(kFrame) > kCapacity);
  TransportOptions opts;
  opts.kind = TransportKind::kShm;
  opts.shm_ring_capacity = kCapacity;
  FailingRetryShm t(opts, 6, nullptr);
  const Bytes older = patterned_payload(kFrame, 1);
  t.send(make_msg(0, 1, 4, older));
  const uint64_t wire_before = t.wire_bytes();
  t.armed = true;

  const Bytes payload = patterned_payload(kFrame, 9);
  std::vector<WireView> views;
  for (int dst = 1; dst <= 5; ++dst) views.push_back({0, dst, 4, 0.5, payload});
  std::vector<std::exception_ptr> errors(views.size());
  t.send_many(views, errors);
  EXPECT_TRUE(errors[0]);
  for (size_t i = 1; i < errors.size(); ++i) EXPECT_FALSE(errors[i]);
  EXPECT_EQ(t.wire_bytes() - wire_before, 4 * framing::frame_size(kFrame));
  EXPECT_EQ(t.pending_messages(), 5u);

  EXPECT_TRUE(same_bytes(t.recv(1, 0, 4).payload, older));
  for (int dst = 2; dst <= 5; ++dst) {
    EXPECT_TRUE(same_bytes(t.recv(dst, 0, 4).payload, payload))
        << "rank " << dst;
  }
  EXPECT_EQ(t.pending_messages(), 0u);
}

TEST(ShmTransport, FannedGatherKeepsFifoAndReusesStorage) {
  // Ring (1 -> 0) holds frames of two tags while the demux queue already
  // holds an older frame for the gathered key (1, 0, 5): the gather returns
  // the queued one, and the ring's frames stay queued in order.
  constexpr size_t kFrame = 80u << 10;
  static_assert(kFrame >= kFanOutFrameBytes);
  TransportOptions opts;
  opts.kind = TransportKind::kShm;
  opts.shm_ring_capacity = 1u << 20;
  auto t = make_transport(opts, 4);
  const Bytes a = patterned_payload(kFrame, 1);      // 1 -> 0, tag 5, queued
  const Bytes b = patterned_payload(kFrame + 3, 2);  // 1 -> 0, tag 7, ring
  const Bytes c = patterned_payload(kFrame + 5, 3);  // 1 -> 0, tag 5, ring
  const Bytes d = patterned_payload(kFrame + 7, 4);  // 2 -> 0, tag 5, ring
  const Bytes e = patterned_payload(100, 5);         // 3 -> 0, tag 7, ring
  t->send(make_msg(1, 0, 5, a, 0.25));
  ASSERT_TRUE(t->has_message(0, 1, 5));  // drains ring (1, 0) into the queue
  t->send(make_msg(1, 0, 7, b));
  t->send(make_msg(1, 0, 5, c));
  t->send(make_msg(2, 0, 5, d, 0.75));
  t->send(make_msg(3, 0, 7, e));

  std::vector<RecvSlot> slots(3);
  for (int i = 0; i < 3; ++i) {
    slots[static_cast<size_t>(i)].src = i + 1;
    // Stale storage, larger than any frame.
    slots[static_cast<size_t>(i)].payload = Bytes(2 * kFrame, std::byte{0xEE});
  }
  const std::byte* storage2 = slots[1].payload.data();
  t->recv_many(0, 5, slots);
  for (const RecvSlot& s : slots) EXPECT_FALSE(s.error) << "rank " << s.src;
  ASSERT_TRUE(slots[0].received);
  EXPECT_TRUE(same_bytes(slots[0].payload, a));
  EXPECT_EQ(slots[0].transfer_s, 0.25);
  ASSERT_TRUE(slots[1].received);
  EXPECT_TRUE(same_bytes(slots[1].payload, d));
  EXPECT_EQ(slots[1].transfer_s, 0.75);
  EXPECT_EQ(slots[1].payload.data(), storage2) << "the drain reallocated";
  EXPECT_FALSE(slots[2].received);

  EXPECT_EQ(t->pending_messages(), 3u);
  EXPECT_TRUE(same_bytes(t->recv(0, 1, 7).payload, b));
  EXPECT_TRUE(same_bytes(t->recv(0, 1, 5).payload, c));
  EXPECT_TRUE(same_bytes(t->recv(0, 3, 7).payload, e));
  EXPECT_EQ(t->pending_messages(), 0u);
}

/// Resident shared-memory pages of this process in KiB (RssShmem in
/// /proc/self/status), or -1 when the kernel does not report it.
long rss_shmem_kib() {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("RssShmem:", 0) == 0) {
      return std::stol(line.substr(std::strlen("RssShmem:")));
    }
  }
  return -1;
}

TEST(ShmTransport, UnusedRingsNeverBecomeResident) {
  // A 21-rank world with 1 MiB rings maps 441 MiB of rings, but a star
  // round only ever uses the 40 server <-> client edges. Creating the world
  // may touch the region and ring headers, never the ring bodies.
  const long before = rss_shmem_kib();
  if (before < 0) GTEST_SKIP() << "kernel does not report RssShmem";
  TransportOptions opts;
  opts.kind = TransportKind::kShm;
  opts.shm_ring_capacity = 1u << 20;
  auto t = make_transport(opts, 21);
  const long after = rss_shmem_kib();
  EXPECT_LT(after - before, 16L * 1024)
      << "building the world made " << (after - before)
      << " KiB of shm resident";
  // The lazily faulted rings still carry traffic.
  t->send(make_msg(0, 20, 3, make_payload(1000, std::byte{0x42})));
  const WireMessage got = t->recv(20, 0, 3);
  EXPECT_EQ(got.payload, make_payload(1000, std::byte{0x42}));
}

TEST(ShmTransport, SpscRingSurvivesAThreadedHammer) {
  // Two transports attached to one named region, driven from two threads:
  // the producer (rank 0) blasts frames of varying size while the consumer
  // (rank 1) drains concurrently — the cursors' acquire/release pairing is
  // what keeps every frame intact.
  const std::string name = "/fca_test_hammer_" + std::to_string(getpid());
  TransportOptions producer_opts;
  producer_opts.kind = TransportKind::kShm;
  producer_opts.self_rank = 0;
  producer_opts.shm_name = name;
  producer_opts.shm_create = true;
  producer_opts.shm_ring_capacity = 1u << 14;  // small: forces wrap + waits
  auto producer = make_transport(producer_opts, 2);
  TransportOptions consumer_opts = producer_opts;
  consumer_opts.self_rank = 1;
  consumer_opts.shm_create = false;
  auto consumer = make_transport(consumer_opts, 2);

  constexpr int kMessages = 2000;
  std::thread feeder([&] {
    for (int i = 0; i < kMessages; ++i) {
      const size_t n = 1 + static_cast<size_t>(i * 37 % 500);
      producer->send(make_msg(0, 1, 3, make_payload(n, std::byte(i & 0xFF))));
    }
  });
  int bad = 0;
  for (int i = 0; i < kMessages; ++i) {
    const WireMessage msg = consumer->recv(1, 0, 3);
    const size_t n = 1 + static_cast<size_t>(i * 37 % 500);
    if (msg.payload.size() != n || msg.payload[0] != std::byte(i & 0xFF)) {
      ++bad;
    }
  }
  feeder.join();
  EXPECT_EQ(bad, 0);
  EXPECT_FALSE(consumer->try_recv(1, 0, 3).has_value());
}

TEST(ShmTransport, ForkedProcessesExchangeHandshakeAndTraffic) {
  const std::string name = "/fca_test_fork_" + std::to_string(getpid());
  Handshake context;
  context.seed = 20260808;
  context.next_round = 3;
  context.faults = sample_fault_config();
  context.fault_stats.dropped_messages = 13;

  const pid_t pid = fork();
  ASSERT_GE(pid, 0) << "fork failed";
  if (pid == 0) {
    // Child = rank 1: attach, adopt the parent's context, prove it arrived
    // bit-exactly by echoing a digest of it, then ping-pong.
    int status = 1;
    try {
      TransportOptions opts;
      opts.kind = TransportKind::kShm;
      opts.self_rank = 1;
      opts.shm_name = name;
      opts.shm_create = false;
      Handshake hs;
      auto t = make_transport(opts, 2, &hs);
      const bool context_ok = hs.seed == context.seed &&
                              hs.next_round == context.next_round &&
                              hs.faults == context.faults &&
                              hs.fault_stats == context.fault_stats;
      const WireMessage ping = t->recv(1, 0, 5);
      WireMessage pong = make_msg(1, 0, 6, ping.payload);
      pong.payload.push_back(context_ok ? std::byte{1} : std::byte{0});
      t->send(std::move(pong));
      // Wait until the parent drained the pong before unmapping.
      const WireMessage done = t->recv(1, 0, 7);
      status = done.payload.empty() ? 0 : 2;
    } catch (...) {
      status = 3;
    }
    _exit(status);
  }
  // Parent = rank 0: create + publish the handshake.
  TransportOptions opts;
  opts.kind = TransportKind::kShm;
  opts.self_rank = 0;
  opts.shm_name = name;
  opts.shm_create = true;
  auto t = make_transport(opts, 2, &context);
  t->send(make_msg(0, 1, 5, make_payload(777, std::byte{0x5A})));
  const WireMessage pong = t->recv(0, 1, 6);
  ASSERT_EQ(pong.payload.size(), 778u);
  EXPECT_EQ(pong.payload[0], std::byte{0x5A});
  EXPECT_EQ(pong.payload.back(), std::byte{1})
      << "child saw a different handshake context";
  t->send(make_msg(0, 1, 7, {}));
  int wstatus = 0;
  ASSERT_EQ(waitpid(pid, &wstatus, 0), pid);
  ASSERT_TRUE(WIFEXITED(wstatus));
  EXPECT_EQ(WEXITSTATUS(wstatus), 0);
}

// ---------------------------------------------------------------------------
// tcp: rendezvous across fork
// ---------------------------------------------------------------------------

int reserve_loopback_port() {
  const int fd = socket(AF_INET, SOCK_STREAM, 0);
  EXPECT_GE(fd, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = 0;
  EXPECT_EQ(bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)), 0);
  socklen_t len = sizeof(addr);
  EXPECT_EQ(getsockname(fd, reinterpret_cast<sockaddr*>(&addr), &len), 0);
  const int port = ntohs(addr.sin_port);
  close(fd);
  return port;
}

TEST(TcpTransport, ForkedRendezvousExchangesHandshakeAndTraffic) {
  const int port = reserve_loopback_port();
  const std::string address = "127.0.0.1:" + std::to_string(port);
  Handshake context;
  context.seed = 424242;
  context.faults = sample_fault_config();

  const pid_t pid = fork();
  ASSERT_GE(pid, 0) << "fork failed";
  if (pid == 0) {
    int status = 1;
    try {
      TransportOptions opts;
      opts.kind = TransportKind::kTcp;
      opts.self_rank = 1;
      opts.connect_address = address;
      Handshake hs;
      auto t = make_transport(opts, 2, &hs);
      const bool context_ok =
          hs.seed == context.seed && hs.faults == context.faults;
      const WireMessage ping = t->recv(1, 0, 5);
      WireMessage pong = make_msg(1, 0, 6, ping.payload);
      pong.payload.push_back(context_ok ? std::byte{1} : std::byte{0});
      t->send(std::move(pong));
      const WireMessage done = t->recv(1, 0, 7);
      status = done.payload.empty() ? 0 : 2;
    } catch (...) {
      status = 3;
    }
    _exit(status);
  }
  TransportOptions opts;
  opts.kind = TransportKind::kTcp;
  opts.self_rank = 0;
  opts.bind_address = address;
  auto t = make_transport(opts, 2, &context);
  t->send(make_msg(0, 1, 5, make_payload(4096, std::byte{0xC3})));
  const WireMessage pong = t->recv(0, 1, 6);
  ASSERT_EQ(pong.payload.size(), 4097u);
  EXPECT_EQ(pong.payload[0], std::byte{0xC3});
  EXPECT_EQ(pong.payload.back(), std::byte{1})
      << "child saw a different handshake context";
  t->send(make_msg(0, 1, 7, {}));
  int wstatus = 0;
  ASSERT_EQ(waitpid(pid, &wstatus, 0), pid);
  ASSERT_TRUE(WIFEXITED(wstatus));
  EXPECT_EQ(WEXITSTATUS(wstatus), 0);
}

// ---------------------------------------------------------------------------
// Network-level satellites: overflow-checked accounting, deadline inputs
// ---------------------------------------------------------------------------

TEST(NetworkAccounting, TrafficStatsAccumulationIsOverflowChecked) {
  TrafficStats a;
  a.payload_bytes = std::numeric_limits<uint64_t>::max() - 1;
  TrafficStats b;
  b.payload_bytes = 2;
  EXPECT_THROW(a += b, Error);
  a.payload_bytes = 40;
  b.messages = std::numeric_limits<uint64_t>::max();
  TrafficStats c;
  c.messages = 1;
  EXPECT_THROW(b += c, Error);
}

TEST(NetworkAccounting, RestoredNearOverflowCountersFailLoudly) {
  Network net(2);
  std::vector<TrafficStats> sent(2);
  sent[0].payload_bytes = std::numeric_limits<uint64_t>::max() - 4;
  net.restore_stats(sent);
  // The very next send would wrap the rank's byte counter.
  EXPECT_THROW(net.send(0, 1, 1, make_payload(16)), Error);
}

TEST(NetworkDeadlines, EndpointRejectsNonPositiveDeadlinesOnAnyFabric) {
  Network net(2);  // reliable fabric: historically the deadline was ignored
  Endpoint server(net, 0);
  Endpoint client(net, 1);
  client.send(0, 1, make_payload(1));
  EXPECT_THROW(server.recv_with_deadline(1, 1, 0.0), Error);
  EXPECT_THROW(server.recv_with_deadline(1, 1, -2.5), Error);
  EXPECT_THROW(
      server.recv_with_deadline(1, 1,
                                std::numeric_limits<double>::quiet_NaN()),
      Error);
  // +infinity stays the documented "no deadline".
  EXPECT_TRUE(
      server
          .recv_with_deadline(1, 1, std::numeric_limits<double>::infinity())
          .has_value());
  EXPECT_THROW(net.recv_within(1, 0, 1, 0.0), Error);
}

TEST(NetworkDeadlines, FederatedRunRejectsNonPositiveRoundDeadline) {
  core::ExperimentConfig cfg = test::tiny_experiment_config();
  cfg.faults.drop_rate = 0.1;
  cfg.faults.round_deadline_s = -1.0;
  core::Experiment exp(cfg);
  EXPECT_THROW(test::resident_run(exp), Error);
}

}  // namespace
}  // namespace fca::comm

// ---------------------------------------------------------------------------
// The headline acceptance test: one seeded faulty federated run is
// byte-identical on every backend — curve, survivor sets, fault decisions,
// traffic totals — and the backends even agree on accounted wire bytes.
// ---------------------------------------------------------------------------

namespace fca {
namespace {

struct BackendRun {
  fl::RunResult result;
  uint64_t wire_bytes = 0;
};

BackendRun run_on_backend(comm::TransportKind kind) {
  core::ExperimentConfig cfg = test::tiny_experiment_config();
  cfg.rounds = 4;
  cfg.client_parallelism = 2;  // lanes + transport must still be bit-stable
  cfg.faults.drop_rate = 0.2;
  cfg.faults.straggler_rate = 0.2;
  cfg.faults.straggler_delay_s = 10.0;
  cfg.faults.round_deadline_s = 1.0;
  cfg.faults.crash_schedule = comm::parse_crash_schedule("2@2");
  cfg.faults.fault_seed = 7;
  cfg.transport.kind = kind;
  core::Experiment exp(cfg);
  core::FedClassAvg strategy(exp.fedclassavg_config());
  core::CompletedRun done = exp.execute(strategy);
  return {std::move(done.result),
          done.run->network().transport().wire_bytes()};
}

TEST(CrossBackendDeterminism, FaultyRunIsByteIdenticalOnEveryBackend) {
  const BackendRun inproc = run_on_backend(comm::TransportKind::kInproc);
  const BackendRun shm = run_on_backend(comm::TransportKind::kShm);
  const BackendRun tcp = run_on_backend(comm::TransportKind::kTcp);
  // The schedule injected something; agreeing on a no-op proves nothing.
  EXPECT_GT(inproc.result.total_faults.injected_total(), 0u);
  test::expect_bit_identical(inproc.result, shm.result);
  test::expect_bit_identical(inproc.result, tcp.result);
  EXPECT_GT(inproc.wire_bytes, 0u);
  EXPECT_EQ(inproc.wire_bytes, shm.wire_bytes);
  EXPECT_EQ(inproc.wire_bytes, tcp.wire_bytes);
}

}  // namespace
}  // namespace fca
