#include "comm/endpoint.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <limits>
#include <memory>
#include <string>
#include <thread>

#include "utils/error.hpp"

namespace fca::comm {
namespace {

Bytes make_payload(size_t n, std::byte fill = std::byte{0xAB}) {
  return Bytes(n, fill);
}

TEST(Network, SendThenRecvRoundTrips) {
  Network net(3);
  net.send(0, 2, 7, make_payload(10));
  const Bytes got = net.recv(2, 0, 7);
  EXPECT_EQ(got.size(), 10u);
  EXPECT_EQ(got[0], std::byte{0xAB});
}

TEST(Network, FifoOrderPerChannel) {
  Network net(2);
  net.send(0, 1, 1, make_payload(1, std::byte{1}));
  net.send(0, 1, 1, make_payload(1, std::byte{2}));
  EXPECT_EQ(net.recv(1, 0, 1)[0], std::byte{1});
  EXPECT_EQ(net.recv(1, 0, 1)[0], std::byte{2});
}

TEST(Network, TagsAreIndependentChannels) {
  Network net(2);
  net.send(0, 1, 5, make_payload(1, std::byte{5}));
  net.send(0, 1, 6, make_payload(1, std::byte{6}));
  EXPECT_EQ(net.recv(1, 0, 6)[0], std::byte{6});
  EXPECT_EQ(net.recv(1, 0, 5)[0], std::byte{5});
}

TEST(Network, RecvWithoutSendThrows) {
  Network net(2);
  EXPECT_THROW(net.recv(1, 0, 1), Error);
  net.send(0, 1, 1, make_payload(1));
  EXPECT_THROW(net.recv(1, 0, 2), Error);  // wrong tag
  EXPECT_THROW(net.recv(0, 1, 1), Error);  // wrong direction
}

TEST(Network, RankBoundsChecked) {
  Network net(2);
  EXPECT_THROW(net.send(0, 2, 1, make_payload(1)), Error);
  EXPECT_THROW(net.send(-1, 1, 1, make_payload(1)), Error);
  EXPECT_THROW(Network(0), Error);
}

TEST(Network, HasMessageAndPending) {
  Network net(2);
  EXPECT_FALSE(net.has_message(1, 0, 1));
  EXPECT_EQ(net.pending_messages(), 0u);
  net.send(0, 1, 1, make_payload(4));
  EXPECT_TRUE(net.has_message(1, 0, 1));
  EXPECT_EQ(net.pending_messages(), 1u);
  net.recv(1, 0, 1);
  EXPECT_EQ(net.pending_messages(), 0u);
}

TEST(Network, TrafficAccounting) {
  Network net(3);
  net.send(1, 0, 1, make_payload(100));
  net.send(1, 2, 1, make_payload(50));
  net.send(2, 0, 1, make_payload(25));
  const TrafficStats r1 = net.rank_stats(1);
  EXPECT_EQ(r1.messages, 2u);
  EXPECT_EQ(r1.payload_bytes, 150u);
  const TrafficStats total = net.total_stats();
  EXPECT_EQ(total.messages, 3u);
  EXPECT_EQ(total.payload_bytes, 175u);
}

TEST(Network, CostModelAccumulatesSimTime) {
  CostModel cost;
  cost.latency_s = 0.01;
  cost.bandwidth_bps = 1000.0;
  Network net(2, cost);
  net.send(0, 1, 1, make_payload(500));
  const TrafficStats s = net.rank_stats(0);
  EXPECT_NEAR(s.sim_seconds, 0.01 + 0.5, 1e-9);
}

TEST(Network, DefaultCostModelIsZeroLatencyInfiniteBandwidth) {
  Network net(2);
  net.send(0, 1, 1, make_payload(1 << 20));
  EXPECT_NEAR(net.rank_stats(0).sim_seconds, 0.0, 1e-12);
}

TEST(Endpoint, SendRecvThroughEndpoints) {
  Network net(3);
  Endpoint server(net, 0);
  Endpoint client(net, 1);
  const Bytes payload = make_payload(8, std::byte{0x42});
  server.send(1, 3, payload);
  EXPECT_TRUE(net.has_message(1, 0, 3));
  const Bytes got = client.recv(0, 3);
  EXPECT_EQ(got, payload);
  EXPECT_EQ(server.rank(), 0);
  EXPECT_EQ(client.world_size(), 3);
}

TEST(Endpoint, BroadcastThenCollectReplies) {
  Network net(4);
  Endpoint server(net, 0);
  const Bytes payload = make_payload(16);
  server.bcast_send({1, 2, 3}, 9, payload);
  for (int r = 1; r <= 3; ++r) {
    Endpoint c(net, r);
    EXPECT_EQ(c.recv(0, 9).size(), 16u);
    c.send(0, 10, make_payload(static_cast<size_t>(r)));
  }
  for (int r = 1; r <= 3; ++r) {
    EXPECT_EQ(server.recv(r, 10).size(), static_cast<size_t>(r));
  }
  // Broadcast traffic was metered per destination.
  EXPECT_EQ(net.rank_stats(0).payload_bytes, 48u);
}

TEST(Network, ThreadSafeConcurrentSends) {
  Network net(5);
  std::vector<std::thread> threads;
  for (int r = 1; r <= 4; ++r) {
    threads.emplace_back([&net, r] {
      for (int i = 0; i < 100; ++i) {
        net.send(r, 0, 1, make_payload(4));
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(net.total_stats().messages, 400u);
  EXPECT_EQ(net.pending_messages(), 400u);
  for (int i = 0; i < 400; ++i) {
    // Drain in any source order.
    bool got = false;
    for (int r = 1; r <= 4 && !got; ++r) {
      if (net.has_message(0, r, 1)) {
        net.recv(0, r, 1);
        got = true;
      }
    }
    EXPECT_TRUE(got);
  }
  EXPECT_EQ(net.pending_messages(), 0u);
}

TEST(Network, ConcurrentTrafficAccountingIsExact) {
  // 8 sender threads hammer one rank each while a reader thread polls the
  // stats snapshots; after the join, per-rank and total accounting must be
  // exact — the guarantee RoundExecutor's parallel client lanes rely on.
  CostModel cost;
  cost.latency_s = 0.001;
  cost.bandwidth_bps = 1e6;
  Network net(9, cost);
  constexpr int kSendersCount = 8;
  constexpr int kPerSender = 250;
  std::atomic<bool> stop_reader{false};
  std::thread reader([&net, &stop_reader] {
    while (!stop_reader.load()) {
      // Snapshots must be internally consistent (never torn): messages and
      // bytes move together under one lock.
      const TrafficStats t = net.total_stats();
      EXPECT_EQ(t.payload_bytes, t.messages * 100u);
      for (int r = 1; r <= kSendersCount; ++r) {
        const TrafficStats s = net.rank_stats(r);
        EXPECT_EQ(s.payload_bytes, s.messages * 100u);
      }
    }
  });
  std::vector<std::thread> senders;
  for (int r = 1; r <= kSendersCount; ++r) {
    senders.emplace_back([&net, r] {
      for (int i = 0; i < kPerSender; ++i) {
        net.send(r, 0, 3, make_payload(100));
      }
    });
  }
  for (auto& t : senders) t.join();
  stop_reader.store(true);
  reader.join();

  for (int r = 1; r <= kSendersCount; ++r) {
    const TrafficStats s = net.rank_stats(r);
    EXPECT_EQ(s.messages, static_cast<uint64_t>(kPerSender));
    EXPECT_EQ(s.payload_bytes, static_cast<uint64_t>(kPerSender) * 100u);
    EXPECT_NEAR(s.sim_seconds, kPerSender * (0.001 + 100.0 / 1e6), 1e-9);
  }
  const TrafficStats total = net.total_stats();
  EXPECT_EQ(total.messages, static_cast<uint64_t>(kSendersCount * kPerSender));
  EXPECT_EQ(total.payload_bytes,
            static_cast<uint64_t>(kSendersCount * kPerSender) * 100u);
}

TEST(CostModel, NetworkRevalidatesFieldAssignedModels) {
  CostModel cost;
  cost.latency_s = -1.0;
  EXPECT_THROW(Network(2, cost), Error);
  cost.latency_s = 0.0;
  cost.bandwidth_bps = 0.0;
  EXPECT_THROW(Network(2, cost), Error);
}

TEST(Network, RestoreStatsRejectsSizeMismatch) {
  Network net(3);
  EXPECT_THROW(net.restore_stats(std::vector<TrafficStats>(2)), Error);
  EXPECT_THROW(net.restore_stats(std::vector<TrafficStats>(4)), Error);
  EXPECT_NO_THROW(net.restore_stats(std::vector<TrafficStats>(3)));
}

TEST(Network, RecvErrorNamesEndpointsAndNearestMailbox) {
  Network net(3);
  net.send(0, 1, 7, make_payload(3));   // same pair, different tag
  net.send(1, 0, 9, make_payload(3));   // reverse direction
  try {
    net.recv(1, 0, 2);
    FAIL() << "recv of a missing message must throw";
  } catch (const Error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("src=0"), std::string::npos) << what;
    EXPECT_NE(what.find("dst=1"), std::string::npos) << what;
    EXPECT_NE(what.find("tag=2"), std::string::npos) << what;
    EXPECT_NE(what.find("2 message(s) pending"), std::string::npos) << what;
    EXPECT_NE(what.find("tag=7"), std::string::npos) << what;  // nearest box
  }
  net.recv(1, 0, 7);
  try {
    net.recv(1, 0, 2);
    FAIL() << "recv of a missing message must throw";
  } catch (const Error& e) {
    // With nothing pending for (0 -> 1), the reverse direction is hinted.
    const std::string what = e.what();
    EXPECT_NE(what.find("reverse direction"), std::string::npos) << what;
    EXPECT_NE(what.find("tag=9"), std::string::npos) << what;
  }
}

TEST(FaultPlan, CrashScheduleParsing) {
  const std::vector<CrashWindow> w = parse_crash_schedule("2@3x2,5@7");
  ASSERT_EQ(w.size(), 2u);
  EXPECT_EQ(w[0].rank, 2);
  EXPECT_EQ(w[0].first_round, 3);
  EXPECT_EQ(w[0].rounds, 2);
  EXPECT_EQ(w[1].rank, 5);
  EXPECT_EQ(w[1].first_round, 7);
  EXPECT_EQ(w[1].rounds, 1);
  EXPECT_TRUE(parse_crash_schedule("").empty());
  EXPECT_THROW(parse_crash_schedule("2"), Error);
  EXPECT_THROW(parse_crash_schedule("2@"), Error);
  EXPECT_THROW(parse_crash_schedule("@3"), Error);
  EXPECT_THROW(parse_crash_schedule("a@b"), Error);
  EXPECT_THROW(parse_crash_schedule("2@0"), Error);   // rounds are 1-based
  EXPECT_THROW(parse_crash_schedule("2@3x0"), Error);  // empty window
  // Every field is parsed whole: trailing characters, signs other than a
  // leading minus, blanks and out-of-range values are errors.
  EXPECT_THROW(parse_crash_schedule("2@3abc"), Error);
  EXPECT_THROW(parse_crash_schedule("2@3x2y"), Error);
  EXPECT_THROW(parse_crash_schedule("2x@3"), Error);
  EXPECT_THROW(parse_crash_schedule("2@x2"), Error);
  EXPECT_THROW(parse_crash_schedule("2@3x"), Error);
  EXPECT_THROW(parse_crash_schedule("+2@3"), Error);
  EXPECT_THROW(parse_crash_schedule(" 2@3"), Error);
  EXPECT_THROW(parse_crash_schedule("2@3x2147483648"), Error);
  EXPECT_THROW(parse_crash_schedule("2@3x2x2"), Error);
  const std::vector<CrashWindow> longest =
      parse_crash_schedule("2@1x2147483647");
  ASSERT_EQ(longest.size(), 1u);
  EXPECT_EQ(longest[0].rounds, 2147483647);
}

TEST(FaultPlan, CrashWindowReachingIntMaxDoesNotOverflow) {
  // first_round + rounds would overflow int here.
  FaultConfig cfg;
  cfg.crash_schedule = parse_crash_schedule("2@2x2147483647");
  FaultPlan plan(cfg, 4);
  EXPECT_FALSE(plan.crashed(1, 2));
  EXPECT_TRUE(plan.crashed(2, 2));
  EXPECT_TRUE(plan.crashed(1000000, 2));
  EXPECT_TRUE(plan.crashed(2147483647, 2));
  EXPECT_FALSE(plan.crashed(2147483647, 3));
}

TEST(FaultPlan, ConfigValidation) {
  FaultConfig cfg;
  cfg.drop_rate = 1.5;
  EXPECT_THROW(FaultPlan(cfg, 4), Error);
  cfg = {};
  cfg.round_deadline_s = 0.0;
  EXPECT_THROW(FaultPlan(cfg, 4), Error);
  cfg = {};
  cfg.crash_schedule = parse_crash_schedule("4@1");  // rank out of range
  EXPECT_THROW(FaultPlan(cfg, 4), Error);
  cfg.crash_schedule = parse_crash_schedule("0@1");  // server cannot crash
  EXPECT_THROW(FaultPlan(cfg, 4), Error);
}

TEST(FaultPlan, ScheduledCrashWindowsApply) {
  FaultConfig cfg;
  cfg.crash_schedule = parse_crash_schedule("2@3x2");
  FaultPlan plan(cfg, 4);
  EXPECT_TRUE(plan.enabled());
  EXPECT_FALSE(plan.crashed(2, 2));
  EXPECT_TRUE(plan.crashed(3, 2));
  EXPECT_TRUE(plan.crashed(4, 2));
  EXPECT_FALSE(plan.crashed(5, 2));
  EXPECT_TRUE(plan.rejoined(5, 2));
  EXPECT_FALSE(plan.rejoined(6, 2));
  EXPECT_FALSE(plan.crashed(3, 1));  // other ranks unaffected
  EXPECT_FALSE(plan.crashed(3, 0));  // the server never crashes
}

TEST(FaultPlan, DecisionsAreDeterministicPerSeed) {
  FaultConfig cfg;
  cfg.drop_rate = 0.3;
  cfg.straggler_rate = 0.3;
  cfg.crash_rate = 0.2;
  FaultPlan a(cfg, 8);
  FaultPlan b(cfg, 8);  // fresh instance, same seed
  cfg.fault_seed = 99;
  FaultPlan c(cfg, 8);
  int differs = 0;
  for (int round = 1; round <= 6; ++round) {
    for (int rank = 1; rank < 8; ++rank) {
      EXPECT_EQ(a.crashed(round, rank), b.crashed(round, rank));
      EXPECT_EQ(a.straggling(round, rank), b.straggling(round, rank));
      for (uint64_t seq = 0; seq < 10; ++seq) {
        EXPECT_EQ(a.drop_message(rank, 0, 2, seq),
                  b.drop_message(rank, 0, 2, seq));
        if (a.drop_message(rank, 0, 2, seq) !=
            c.drop_message(rank, 0, 2, seq)) {
          ++differs;
        }
      }
    }
  }
  EXPECT_GT(differs, 0) << "different fault seeds must differ somewhere";
}

TEST(FaultPlan, RandomCrashLastsCrashRounds) {
  FaultConfig cfg;
  cfg.crash_rate = 0.3;
  cfg.crash_rounds = 3;
  FaultPlan plan(cfg, 6);
  // An outage onset (up in round-1, down in round) means the crash draw
  // fired exactly at `round`, so the rank must stay dark for the full
  // crash_rounds window.
  int onsets = 0;
  for (int rank = 1; rank < 6; ++rank) {
    for (int round = 2; round <= 20; ++round) {
      if (plan.crashed(round, rank) && !plan.crashed(round - 1, rank)) {
        ++onsets;
        EXPECT_TRUE(plan.crashed(round + 1, rank))
            << "rank " << rank << " onset at round " << round;
        EXPECT_TRUE(plan.crashed(round + 2, rank))
            << "rank " << rank << " onset at round " << round;
        EXPECT_TRUE(plan.rejoined(round + cfg.crash_rounds, rank) ||
                    plan.crashed(round + cfg.crash_rounds, rank));
      }
    }
  }
  EXPECT_GT(onsets, 0) << "rate 0.3 over 5 ranks x 19 rounds must crash";
}

TEST(Network, DropRateOneLosesEveryInRoundMessage) {
  FaultConfig cfg;
  cfg.drop_rate = 1.0;
  Network net(3, CostModel{}, cfg);
  // Outside a round the fabric stays reliable (initialization traffic).
  net.send(0, 1, 1, make_payload(4));
  EXPECT_EQ(net.recv(1, 0, 1).size(), 4u);
  net.begin_round(1);
  net.send(0, 1, 1, make_payload(8));
  EXPECT_FALSE(net.try_recv(1, 0, 1).has_value());
  net.end_round();
  const FaultStats f = net.fault_stats();
  EXPECT_EQ(f.dropped_messages, 1u);
  EXPECT_EQ(f.dropped_bytes, 8u);
  // The sender still paid for the dropped bytes.
  EXPECT_EQ(net.rank_stats(0).payload_bytes, 12u);
  EXPECT_EQ(net.pending_messages(), 0u);
}

TEST(Network, CrashedRankTrafficIsBlackholed) {
  FaultConfig cfg;
  cfg.crash_schedule = parse_crash_schedule("2@1");
  Network net(3, CostModel{}, cfg);
  net.begin_round(1);
  net.send(0, 2, 1, make_payload(4));  // to the crashed rank
  net.send(2, 0, 1, make_payload(4));  // from the crashed rank
  net.send(0, 1, 1, make_payload(4));  // unaffected pair
  EXPECT_FALSE(net.try_recv(2, 0, 1).has_value());
  EXPECT_FALSE(net.try_recv(0, 2, 1).has_value());
  EXPECT_TRUE(net.try_recv(1, 0, 1).has_value());
  net.end_round();
  EXPECT_EQ(net.fault_stats().dropped_messages, 2u);
}

TEST(Network, StragglerMissesDeadlineAndIsConsumed) {
  FaultConfig cfg;
  cfg.straggler_rate = 1.0;
  cfg.straggler_delay_s = 5.0;
  cfg.round_deadline_s = 1.0;
  Network net(3, CostModel{}, cfg);
  net.begin_round(1);
  net.send(1, 0, 2, make_payload(4));
  // The message exists but is 5 s late against a 1 s deadline: consumed,
  // counted, reported missing — and the mailbox is clean afterwards.
  EXPECT_FALSE(net.recv_within(0, 1, 2, cfg.round_deadline_s).has_value());
  net.end_round();
  EXPECT_EQ(net.pending_messages(), 0u);
  const FaultStats f = net.fault_stats();
  EXPECT_EQ(f.delayed_messages, 1u);
  EXPECT_EQ(f.deadline_misses, 1u);
  // Straggler delay shows up in the sender's simulated time.
  EXPECT_NEAR(net.rank_stats(1).sim_seconds, 5.0, 1e-9);
}

TEST(Network, FaultStatsRoundTripThroughRestore) {
  Network net(2, CostModel{}, FaultConfig{});
  FaultStats f;
  f.dropped_messages = 3;
  f.dropped_bytes = 300;
  f.delayed_messages = 2;
  f.deadline_misses = 1;
  f.crashed_client_rounds = 4;
  f.rejoins = 2;
  f.aborted_rounds = 1;
  net.restore_fault_stats(f);
  EXPECT_TRUE(net.fault_stats() == f);
  EXPECT_EQ(net.fault_stats().injected_total(), 3u + 2u + 1u + 4u);
}

TEST(Endpoint, TryRecvStaysStrictOnReliableFabric) {
  Network net(2);  // no fault plan
  Endpoint client(net, 1);
  // try_recv of a missing message on a perfect fabric is still a protocol
  // bug and throws, preserving the historical strict check.
  EXPECT_THROW(client.try_recv(0, 1), Error);
  EXPECT_THROW(client.recv_with_deadline(0, 1, 1.0), Error);
}

TEST(Endpoint, TryRecvIsTolerantUnderActiveFaultPlan) {
  FaultConfig cfg;
  cfg.drop_rate = 0.5;
  Network net(2, CostModel{}, cfg);
  Endpoint client(net, 1);
  EXPECT_FALSE(client.try_recv(0, 1).has_value());
  EXPECT_FALSE(client.recv_with_deadline(0, 1, 1.0).has_value());
}

// -- collectives vs the loops they replace ----------------------------------
// Each scenario runs the same traffic on two networks over the backend
// FCA_TRANSPORT selects: one through the collective, one through the
// point-to-point loop it replaces. Payloads, survivors and every ledger
// must agree. The large payloads are big enough for the shm backend to
// move them on the kernel pool; the small ones stay on the caller. The
// loop's network wraps its backend in SerialBatches, so its sends and
// receives never reach a backend's send_many/recv_many override: they go
// one message at a time through the backend's own send and try_recv.

/// Forwards everything to the wrapped backend except the batch calls,
/// which stay Transport's serial loops over the forwarded single calls.
class SerialBatches : public Transport {
 public:
  explicit SerialBatches(std::unique_ptr<Transport> inner)
      : Transport(inner->world_size(), inner->self_rank()),
        inner_(std::move(inner)) {}

  std::string_view name() const override { return inner_->name(); }
  void send(const WireView& msg) override { inner_->send(msg); }
  std::optional<WireMessage> try_recv(int dst, int src, int tag) override {
    return inner_->try_recv(dst, src, tag);
  }
  std::optional<WireMessage> wait_recv(int dst, int src, int tag) override {
    return inner_->wait_recv(dst, src, tag);
  }
  bool has_message(int dst, int src, int tag) override {
    return inner_->has_message(dst, src, tag);
  }
  size_t pending_messages() const override {
    return inner_->pending_messages();
  }
  void clear_pending() override { inner_->clear_pending(); }
  void discard_peer(int rank) override { inner_->discard_peer(rank); }
  bool fallible() const override { return inner_->fallible(); }
  uint64_t retry_events() const override { return inner_->retry_events(); }
  void begin_round(int round) override { inner_->begin_round(round); }
  void end_round() override { inner_->end_round(); }
  uint64_t wire_bytes() const override { return inner_->wire_bytes(); }
  std::string describe_pending(int dst, int src) override {
    return inner_->describe_pending(dst, src);
  }

 private:
  std::unique_ptr<Transport> inner_;
};

struct CollectiveScenario {
  const char* name;
  FaultConfig faults;
  int kill_peer = ChaosConfig::kNoKill;  // condemned at its first traffic
};

std::vector<CollectiveScenario> collective_scenarios() {
  std::vector<CollectiveScenario> out;
  out.push_back({"reliable", FaultConfig{}});
  FaultConfig drops;
  drops.drop_rate = 0.3;
  drops.fault_seed = 11;
  out.push_back({"drop-rate", drops});
  FaultConfig straggle;
  straggle.straggler_rate = 0.5;
  straggle.straggler_delay_s = 2.0;
  straggle.round_deadline_s = 1.0;
  straggle.fault_seed = 12;
  out.push_back({"straggler-deadline", straggle});
  FaultConfig crash;
  crash.crash_schedule = parse_crash_schedule("3@1x2,6@2");
  out.push_back({"crashed-rank", crash});
  FaultConfig condemned;
  condemned.drop_rate = 0.1;
  condemned.fault_seed = 13;
  out.push_back({"condemned-peer", condemned, 4});
  return out;
}

constexpr int kCollectiveWorld = 9;
constexpr int kCollectiveRounds = 3;

/// The scenario's network; `serial` wraps its backend in SerialBatches.
std::unique_ptr<Network> collective_net(const CollectiveScenario& sc,
                                        bool serial) {
  TransportOptions opts = transport_options_from_env();
  if (sc.kill_peer != ChaosConfig::kNoKill) {
    opts.chaos.kill_peer = sc.kill_peer;
    opts.chaos.kill_after_bytes = 0;
  }
  std::unique_ptr<Transport> transport = make_transport(opts, kCollectiveWorld);
  if (serial) {
    transport = std::make_unique<SerialBatches>(std::move(transport));
  }
  return std::make_unique<Network>(kCollectiveWorld, CostModel{0.001, 1e8},
                                   sc.faults, std::move(transport));
}

/// Payload sizes: a classifier-sized frame and a model-sized one (the
/// latter capped below the ring size FCA_SHM_RING_CAPACITY may force).
std::vector<size_t> collective_sizes() {
  size_t big = 96u << 10;
  const TransportOptions opts = transport_options_from_env();
  if (opts.shm_ring_capacity != 0) {
    big = std::min(big, opts.shm_ring_capacity / 2 - 64);
  }
  return {1400, big};
}

Bytes patterned(size_t n, int salt) {
  Bytes b(n);
  for (size_t i = 0; i < n; ++i) {
    b[i] = static_cast<std::byte>((i * 131 + static_cast<size_t>(salt) * 17) &
                                  0xFF);
  }
  return b;
}

void expect_same_ledgers(const Network& a, const Network& b) {
  for (int r = 0; r < kCollectiveWorld; ++r) {
    const TrafficStats sa = a.rank_stats(r);
    const TrafficStats sb = b.rank_stats(r);
    EXPECT_EQ(sa.messages, sb.messages) << "rank " << r;
    EXPECT_EQ(sa.payload_bytes, sb.payload_bytes) << "rank " << r;
    EXPECT_EQ(sa.sim_seconds, sb.sim_seconds) << "rank " << r;
    EXPECT_EQ(a.peer_alive(r), b.peer_alive(r)) << "rank " << r;
  }
  EXPECT_EQ(a.total_stats().messages, b.total_stats().messages);
  EXPECT_EQ(a.total_stats().payload_bytes, b.total_stats().payload_bytes);
  EXPECT_EQ(a.total_stats().sim_seconds, b.total_stats().sim_seconds);
  EXPECT_TRUE(a.fault_stats() == b.fault_stats());
  EXPECT_EQ(a.pending_messages(), b.pending_messages());
}

TEST(Network, BroadcastMetersAndDropsLikeSerialSends) {
  // Destinations out of rank order: metering, seq values and fault
  // decisions follow the list, as a loop of sends would.
  const std::vector<int> dsts = {5, 2, 8, 1, 7, 3, 6, 4};
  for (const CollectiveScenario& sc : collective_scenarios()) {
    for (size_t bytes : collective_sizes()) {
      SCOPED_TRACE(std::string(sc.name) + ", " + std::to_string(bytes) +
                   " B");
      auto coll = collective_net(sc, false);
      auto loop = collective_net(sc, true);
      for (int round = 1; round <= kCollectiveRounds; ++round) {
        const Bytes payload = patterned(bytes, round);
        coll->begin_round(round);
        loop->begin_round(round);
        coll->broadcast(0, dsts, 9, payload);
        for (int dst : dsts) loop->send(0, dst, 9, payload);
        for (int dst : dsts) {
          const std::optional<Bytes> got = coll->try_recv(dst, 0, 9);
          EXPECT_EQ(got, loop->try_recv(dst, 0, 9)) << "rank " << dst;
          if (got.has_value()) {
            EXPECT_EQ(*got, payload) << "rank " << dst;
          }
        }
        coll->end_round();
        loop->end_round();
        expect_same_ledgers(*coll, *loop);
      }
    }
  }
}

TEST(Network, GatherMatchesPerSourceReceives) {
  const std::vector<int> srcs = {1, 2, 3, 4, 5, 6, 7, 8};
  for (const CollectiveScenario& sc : collective_scenarios()) {
    for (size_t bytes : collective_sizes()) {
      SCOPED_TRACE(std::string(sc.name) + ", " + std::to_string(bytes) +
                   " B");
      auto coll = collective_net(sc, false);
      auto loop = collective_net(sc, true);
      const double deadline = sc.faults.round_deadline_s;
      // Storage that outlives the rounds, as FederatedRun keeps it; it
      // starts larger than any payload and full of stale bytes.
      std::vector<Bytes> storage(srcs.size(), Bytes(2 * bytes, std::byte{7}));
      for (int round = 1; round <= kCollectiveRounds; ++round) {
        coll->begin_round(round);
        loop->begin_round(round);
        for (int src : srcs) {
          // Rank 2 also sends a second upload and one on another tag: the
          // gather takes the oldest, and the rest stay queued in order. Its
          // first upload is moved out of the ring into the backend's queue
          // before the second is sent (has_message drains a shm ring), so
          // the gather must take a queued frame ahead of the ring's.
          const int copies = src == 2 ? 2 : 1;
          for (int c = 0; c < copies; ++c) {
            const Bytes up = patterned(bytes + static_cast<size_t>(src),
                                       round * 100 + src * 10 + c);
            coll->send(src, 0, 10, up);
            loop->send(src, 0, 10, up);
            if (src == 2 && c == 0) {
              EXPECT_EQ(coll->has_message(0, 2, 10),
                        loop->has_message(0, 2, 10));
            }
          }
          if (src == 2) {
            coll->send(src, 0, 11, patterned(64, round));
            loop->send(src, 0, 11, patterned(64, round));
          }
        }
        std::vector<std::optional<Bytes>> got =
            coll->gather(0, srcs, 10, deadline, storage);
        ASSERT_EQ(got.size(), srcs.size());
        // The loop gather_survivors ran: strict receives on a reliable
        // fabric, recv_within (try_recv without a deadline) otherwise.
        const bool lossy = loop->lossy();
        for (size_t i = 0; i < srcs.size(); ++i) {
          const std::optional<Bytes> want =
              !lossy ? std::optional<Bytes>(loop->recv(0, srcs[i], 10))
              : std::isfinite(deadline) ? loop->recv_within(0, srcs[i], 10,
                                                            deadline)
                                        : loop->try_recv(0, srcs[i], 10);
          EXPECT_EQ(got[i], want) << "rank " << srcs[i];
          if (got[i].has_value()) {
            // The first upload, or rank 2's second when the first was lost.
            const size_t n = bytes + static_cast<size_t>(srcs[i]);
            const int salt = round * 100 + srcs[i] * 10;
            EXPECT_TRUE(*got[i] == patterned(n, salt) ||
                        (srcs[i] == 2 && *got[i] == patterned(n, salt + 1)))
                << "rank " << srcs[i];
          }
        }
        // What the gather left behind is what the loop left behind.
        for (int tag : {10, 11}) {
          EXPECT_EQ(coll->try_recv(0, 2, tag), loop->try_recv(0, 2, tag))
              << "tag " << tag;
        }
        coll->end_round();
        loop->end_round();
        expect_same_ledgers(*coll, *loop);
        for (size_t i = 0; i < srcs.size(); ++i) {
          storage[i] = got[i].has_value() ? std::move(*got[i]) : Bytes{};
        }
      }
    }
  }
}

TEST(Network, RestoreStatsRacesWithSendersWithoutTearing) {
  // restore_stats() (checkpoint resume) and concurrent sends must serialize:
  // every observed snapshot is either pre- or post-restore plus whole sends,
  // never a torn mixture. Exercised under TSan in CI.
  Network net(3);
  std::vector<TrafficStats> baseline(3);
  baseline[1].messages = 7;
  baseline[1].payload_bytes = 700;
  std::thread sender([&net] {
    for (int i = 0; i < 500; ++i) net.send(1, 0, 1, make_payload(100));
  });
  std::thread restorer([&net, &baseline] {
    for (int i = 0; i < 50; ++i) net.restore_stats(baseline);
  });
  sender.join();
  restorer.join();
  const TrafficStats s = net.rank_stats(1);
  // Post-restore the counter restarts from the baseline; whatever interleaving
  // happened, bytes and messages stay locked together.
  EXPECT_EQ(s.payload_bytes, 700u + (s.messages - 7u) * 100u);
}

}  // namespace
}  // namespace fca::comm
