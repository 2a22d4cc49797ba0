// Failure-hardened transport tier (DESIGN.md §12): typed recoverable
// errors surfacing from real backends, deterministic chaos injection, and
// peer-death degradation into survivor-set rounds.
//
// The forked-process tests exercise the errors a real deployment hits — a
// peer SIGKILLed mid-frame, a listener that binds late — and assert they
// surface as the documented TransportError codes instead of aborting. The
// chaos tests assert the other half of the contract: every injected fault
// is (a) detected by the production decode/verify path, never silently
// accepted, and (b) a pure function of the chaos seed, so a rerun degrades
// byte-identically.
#include <gtest/gtest.h>

#include <fcntl.h>
#include <signal.h>
#include <sys/mman.h>
#include <sys/socket.h>
#include <sys/wait.h>
#include <netinet/in.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <limits>
#include <string>
#include <vector>

#include "comm/network.hpp"
#include "comm/retry.hpp"
#include "comm/transport/chaos.hpp"
#include "comm/transport/error.hpp"
#include "comm/transport/transport.hpp"
#include "core/fedclassavg.hpp"
#include "core/trainer.hpp"
#include "fl_fixtures.hpp"

namespace fca::comm {
namespace {

Bytes make_payload(size_t n, std::byte fill = std::byte{0xAB}) {
  return Bytes(n, fill);
}

WireMessage make_msg(int src, int dst, int tag, Bytes payload) {
  WireMessage m;
  m.src = src;
  m.dst = dst;
  m.tag = tag;
  m.payload = std::move(payload);
  return m;
}

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

// ---------------------------------------------------------------------------
// Typed errors from real process death (fork + SIGKILL)
// ---------------------------------------------------------------------------

TEST(TransportFaults, TcpPeerKilledMidFrameIsTypedPeerReset) {
  // The child starts a frame far larger than the kernel socket buffers and
  // is SIGKILLed with most of it still unflushed. The parent then drains a
  // partial frame followed by EOF — the mid-frame death must surface as a
  // typed kPeerReset attributed to the dead rank, not as an abort.
  const int port = reserve_loopback_port();
  const std::string address = "127.0.0.1:" + std::to_string(port);

  const pid_t pid = fork();
  ASSERT_GE(pid, 0) << "fork failed";
  if (pid == 0) {
    try {
      TransportOptions opts;
      opts.kind = TransportKind::kTcp;
      opts.self_rank = 1;
      opts.connect_address = address;
      auto t = make_transport(opts, 2);
      // Sync: tell the parent the stream is up before the doomed frame.
      t->send(make_msg(1, 0, 1, make_payload(8)));
      // 32 MB cannot fit in the kernel socket buffers while the parent is
      // not reading: the opportunistic flush leaves most of the frame in
      // the user-space outbuf, where SIGKILL destroys it forever.
      t->send(make_msg(1, 0, 2, make_payload(32u << 20)));
      for (;;) pause();  // hold the half-written stream open until killed
    } catch (...) {
      _exit(6);
    }
  }
  TransportOptions opts;
  opts.kind = TransportKind::kTcp;
  opts.self_rank = 0;
  opts.bind_address = address;
  opts.io_timeout_s = 20.0;
  auto t = make_transport(opts, 2);
  EXPECT_EQ(t->recv(0, 1, 1).payload.size(), 8u);
  // Give the child time to fill the socket buffers and block mid-frame.
  usleep(300 * 1000);
  ASSERT_EQ(kill(pid, SIGKILL), 0);
  int wstatus = 0;
  ASSERT_EQ(waitpid(pid, &wstatus, 0), pid);
  ASSERT_TRUE(WIFSIGNALED(wstatus)) << "child was not killed mid-send";

  try {
    t->recv(0, 1, 2);
    FAIL() << "a partial frame from a dead peer was delivered";
  } catch (const TransportError& e) {
    EXPECT_TRUE(e.code() == TransportErrc::kPeerReset ||
                e.code() == TransportErrc::kPeerUnreachable)
        << e.what();
    EXPECT_EQ(e.peer(), 1) << e.what();
  }
}

TEST(TransportFaults, TcpDialRetriesUntilLateListenerAppears) {
  // The joiner dials before the root exists: every early attempt is refused
  // and retried on the deterministic backoff schedule until the root binds.
  // This is the reconnect-after-backoff path — without retries the first
  // ECONNREFUSED would be fatal.
  const int port = reserve_loopback_port();
  const std::string address = "127.0.0.1:" + std::to_string(port);

  const pid_t pid = fork();
  ASSERT_GE(pid, 0) << "fork failed";
  if (pid == 0) {
    // Child = late root: bind only after the parent has started dialing.
    int status = 1;
    try {
      usleep(400 * 1000);
      TransportOptions opts;
      opts.kind = TransportKind::kTcp;
      opts.self_rank = 0;
      opts.bind_address = address;
      auto t = make_transport(opts, 2);
      const WireMessage ping = t->recv(0, 1, 5);
      t->send(make_msg(0, 1, 6, ping.payload));
      const WireMessage done = t->recv(0, 1, 7);
      status = done.payload.empty() ? 0 : 2;
    } catch (...) {
      status = 3;
    }
    _exit(status);
  }
  TransportOptions opts;
  opts.kind = TransportKind::kTcp;
  opts.self_rank = 1;
  opts.connect_address = address;
  opts.io_timeout_s = 20.0;
  auto t = make_transport(opts, 2);
  EXPECT_GT(t->retry_events(), 0u)
      << "the listener appeared 400 ms late; the dial must have retried";
  t->send(make_msg(1, 0, 5, make_payload(512, std::byte{0x3C})));
  const WireMessage pong = t->recv(1, 0, 6);
  EXPECT_EQ(pong.payload, make_payload(512, std::byte{0x3C}));
  t->send(make_msg(1, 0, 7, {}));
  int wstatus = 0;
  ASSERT_EQ(waitpid(pid, &wstatus, 0), pid);
  ASSERT_TRUE(WIFEXITED(wstatus));
  EXPECT_EQ(WEXITSTATUS(wstatus), 0);
}

TEST(TransportFaults, ShmPeerKilledBeforeSendingIsTypedTimeout) {
  // A shm peer that dies without completing its frame leaves nothing in the
  // ring (the head cursor only advances on a finished write), so the
  // survivor's drained wait surfaces as a typed timeout, not a hang or a
  // torn frame.
  const std::string name = "/fca_test_dead_" + std::to_string(getpid());
  const pid_t pid = fork();
  ASSERT_GE(pid, 0) << "fork failed";
  if (pid == 0) {
    try {
      TransportOptions opts;
      opts.kind = TransportKind::kShm;
      opts.self_rank = 1;
      opts.shm_name = name;
      opts.shm_create = false;
      auto t = make_transport(opts, 2);
      t->send(make_msg(1, 0, 1, make_payload(16)));
      // Wait to be killed; never send the second message.
      for (;;) pause();
    } catch (...) {
      _exit(6);
    }
  }
  TransportOptions opts;
  opts.kind = TransportKind::kShm;
  opts.self_rank = 0;
  opts.shm_name = name;
  opts.shm_create = true;
  opts.io_timeout_s = 0.5;
  auto t = make_transport(opts, 2);
  EXPECT_EQ(t->recv(0, 1, 1).payload.size(), 16u);
  ASSERT_EQ(kill(pid, SIGKILL), 0);
  int wstatus = 0;
  ASSERT_EQ(waitpid(pid, &wstatus, 0), pid);
  try {
    t->recv(0, 1, 2);
    FAIL() << "received a frame the dead peer never sent";
  } catch (const TransportError& e) {
    EXPECT_EQ(e.code(), TransportErrc::kTimeout) << e.what();
  }
}

TEST(TransportFaults, ShmRegionTooLargeToSizeIsTypedBeforeCreation) {
  // world^2 rings of at least 64 KiB: the first world overflows size_t, the
  // second fits size_t but not the off_t that ftruncate takes. Either must
  // throw from the sizing arithmetic, before shm_open creates the region.
  const std::string name = "/fca_test_huge_" + std::to_string(getpid());
  for (const int world : {std::numeric_limits<int>::max(), 13'500'000}) {
    TransportOptions opts;
    opts.kind = TransportKind::kShm;
    opts.self_rank = 0;
    opts.shm_name = name;
    opts.shm_create = true;
    try {
      (void)make_transport(opts, world);
      FAIL() << "a region for " << world << " ranks was accepted";
    } catch (const TransportError& e) {
      EXPECT_EQ(e.code(), TransportErrc::kHandshakeRejected) << e.what();
      EXPECT_FALSE(e.peer_scoped());
      const std::string what = e.what();
      EXPECT_NE(what.find("world of " + std::to_string(world) + " ranks"),
                std::string::npos)
          << what;
      EXPECT_NE(what.find("65536-byte rings"), std::string::npos) << what;
      EXPECT_NE(what.find(" bytes"), std::string::npos) << what;
    }
    const int fd = shm_open(name.c_str(), O_RDONLY, 0600);
    EXPECT_LT(fd, 0) << "the rejected region left " << name << " behind";
    if (fd >= 0) {
      close(fd);
      shm_unlink(name.c_str());
    }
  }
}

// ---------------------------------------------------------------------------
// RetryPolicy edge cases (comm/retry.hpp)
// ---------------------------------------------------------------------------

TEST(RetryPolicyEdge, ZeroRetryPolicyExhaustsOnFirstAsk) {
  // max_attempts == 1 means "the initial try is the whole budget": the very
  // first next_backoff_s() must report exhaustion, and asking again must not
  // resurrect the schedule.
  RetryPolicy policy;
  policy.max_attempts = 1;
  EXPECT_NO_THROW(policy.validate());
  RetrySchedule schedule(policy, "test.op", 0);
  EXPECT_FALSE(schedule.next_backoff_s().has_value());
  EXPECT_EQ(schedule.attempts(), 1);
  EXPECT_FALSE(schedule.next_backoff_s().has_value());
}

TEST(RetryPolicyEdge, ValidateRejectsMeaninglessPolicies) {
  const auto invalid = [](auto mutate) {
    RetryPolicy p;
    mutate(p);
    return p;
  };
  EXPECT_THROW(
      invalid([](RetryPolicy& p) { p.max_attempts = 0; }).validate(), Error);
  EXPECT_THROW(
      invalid([](RetryPolicy& p) { p.max_attempts = -3; }).validate(), Error);
  EXPECT_THROW(
      invalid([](RetryPolicy& p) { p.base_backoff_s = -0.1; }).validate(),
      Error);
  EXPECT_THROW(invalid([](RetryPolicy& p) {
                 p.base_backoff_s = std::numeric_limits<double>::quiet_NaN();
               }).validate(),
               Error);
  EXPECT_THROW(
      invalid([](RetryPolicy& p) { p.multiplier = 0.5; }).validate(), Error);
  // A cap below the base would make the very first backoff exceed the cap.
  EXPECT_THROW(
      invalid([](RetryPolicy& p) { p.max_backoff_s = p.base_backoff_s / 2; })
          .validate(),
      Error);
  EXPECT_THROW(
      invalid([](RetryPolicy& p) { p.jitter_frac = 1.5; }).validate(), Error);
  EXPECT_THROW(
      invalid([](RetryPolicy& p) { p.jitter_frac = -0.25; }).validate(),
      Error);
}

TEST(RetryPolicyEdge, BackoffScheduleIsDeterministicJitteredAndCapped) {
  // The whole point of the counter-based jitter streams: two independently
  // constructed policies with the same fields emit bit-identical schedules,
  // every step stays inside the jitter envelope of the capped exponential,
  // and distinct operation instances desynchronize.
  RetryPolicy a;
  a.seed = 42;
  RetryPolicy b;
  b.seed = 42;
  bool other_op_differs = false;
  for (int k = 1; k <= 12; ++k) {
    const double step = a.backoff_s("tcp.dial/test", 7, k);
    EXPECT_EQ(step, b.backoff_s("tcp.dial/test", 7, k)) << "attempt " << k;
    double nominal = a.base_backoff_s;
    for (int i = 1; i < k; ++i) nominal = std::min(nominal * a.multiplier,
                                                   a.max_backoff_s);
    EXPECT_GE(step, nominal * (1.0 - a.jitter_frac) - 1e-12) << "attempt " << k;
    EXPECT_LE(step, nominal * (1.0 + a.jitter_frac) + 1e-12) << "attempt " << k;
    if (step != a.backoff_s("tcp.dial/test", 8, k)) other_op_differs = true;
  }
  EXPECT_TRUE(other_op_differs)
      << "op_index never reached the jitter stream — a shared retry storm "
         "would stay synchronized";
  // Attempt 0 is the initial try: no sleep, unconditionally.
  EXPECT_EQ(a.backoff_s("tcp.dial/test", 7, 0), 0.0);
}

TEST(RetryPolicyEdge, DialDeadlineExpiringMidBackoffIsTypedTimeout) {
  // Nobody ever listens, and the very first scheduled backoff (5 s) already
  // overshoots the 0.4 s io timeout. The dial must fail as the *deadline*
  // outcome (kTimeout) without actually sleeping the hopeless backoff —
  // distinct from the attempt-budget outcome below.
  const int port = reserve_loopback_port();
  TransportOptions opts;
  opts.kind = TransportKind::kTcp;
  opts.self_rank = 1;
  opts.connect_address = "127.0.0.1:" + std::to_string(port);
  opts.io_timeout_s = 0.4;
  opts.retry.base_backoff_s = 5.0;
  opts.retry.max_backoff_s = 5.0;
  const auto t0 = std::chrono::steady_clock::now();
  try {
    auto t = make_transport(opts, 2);
    FAIL() << "dial to a dead port succeeded";
  } catch (const TransportError& e) {
    EXPECT_EQ(e.code(), TransportErrc::kTimeout) << e.what();
  }
  const double elapsed =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();
  EXPECT_LT(elapsed, 3.0)
      << "the dial slept a backoff that could never finish in time";
}

TEST(RetryPolicyEdge, DialAttemptBudgetExhaustionIsPeerUnreachable) {
  // Same dead port, but now the deadline is generous and the attempt budget
  // is the binding constraint: exhausting it is the "peer is just not
  // there" outcome, not a timeout.
  const int port = reserve_loopback_port();
  TransportOptions opts;
  opts.kind = TransportKind::kTcp;
  opts.self_rank = 1;
  opts.connect_address = "127.0.0.1:" + std::to_string(port);
  opts.io_timeout_s = 30.0;
  opts.retry.max_attempts = 3;
  opts.retry.base_backoff_s = 0.01;
  opts.retry.max_backoff_s = 0.01;
  try {
    auto t = make_transport(opts, 2);
    FAIL() << "dial to a dead port succeeded";
  } catch (const TransportError& e) {
    EXPECT_EQ(e.code(), TransportErrc::kPeerUnreachable) << e.what();
    EXPECT_NE(std::string(e.what()).find("3 dial attempt"), std::string::npos)
        << e.what();
  }
}

TEST(RetryPolicyEdge, AllLocalRingWrapNeverCountsRetries) {
  // Determinism-oracle hygiene for the retry_events() ledger: in an
  // all-local world a full shm ring is drained by the same process, never
  // waited on, so wrapping the smallest legal ring many times over must
  // leave the retry counter at exactly zero. A nonzero count here would mean
  // oracle runs sleep on wall-clock backoffs — timing-dependent results.
  TransportOptions opts;
  opts.kind = TransportKind::kShm;
  opts.shm_ring_capacity = kMinShmRingCapacity;
  auto t = make_transport(opts, 2);
  const Bytes payload = make_payload(512, std::byte{0x5A});
  constexpr int kMessages = 64;  // ~35 KiB of frames through a 4 KiB ring
  for (int i = 0; i < kMessages; ++i) t->send(make_msg(0, 1, i, payload));
  for (int i = 0; i < kMessages; ++i) {
    const WireMessage m = t->recv(1, 0, i);
    EXPECT_EQ(m.payload, payload) << "message " << i;
  }
  EXPECT_EQ(t->retry_events(), 0u);
}

// ---------------------------------------------------------------------------
// Chaos decorator: seeded wire-level faults through the production paths
// ---------------------------------------------------------------------------

TEST(ChaosTransport, CorruptionAlwaysDetectedByProductionCrc) {
  TransportOptions opts;
  opts.chaos.seed = 99;
  opts.chaos.corrupt_rate = 1.0;
  auto t = make_transport(opts, 2);
  auto* chaos = dynamic_cast<ChaosTransport*>(t.get());
  ASSERT_NE(chaos, nullptr) << "chaos config must wrap the backend";
  constexpr int kMessages = 64;
  int detected = 0;
  for (int i = 0; i < kMessages; ++i) {
    t->send(make_msg(1, 0, 3, make_payload(64 + static_cast<size_t>(i))));
    try {
      (void)t->try_recv(0, 1, 3);
    } catch (const TransportError& e) {
      EXPECT_EQ(e.code(), TransportErrc::kFrameCorrupt) << e.what();
      EXPECT_EQ(e.peer(), 1);
      ++detected;
    }
  }
  EXPECT_EQ(detected, kMessages);
  EXPECT_EQ(chaos->injected_corrupt(), static_cast<uint64_t>(kMessages));
  EXPECT_EQ(chaos->silent_corruptions(), 0u)
      << "a flipped byte slipped past the CRC";
}

TEST(ChaosTransport, FaultScheduleIsAPureFunctionOfTheSeed) {
  // Two identically configured chaos fabrics fed the same traffic must make
  // the same per-message decision — deliver / corrupt / truncate — at the
  // same sequence numbers.
  const auto outcomes = [](uint64_t seed) {
    TransportOptions opts;
    opts.chaos.seed = seed;
    opts.chaos.corrupt_rate = 0.25;
    opts.chaos.truncate_rate = 0.2;
    opts.chaos.duplicate_rate = 0.2;
    auto t = make_transport(opts, 2);
    std::vector<int> log;
    for (int i = 0; i < 200; ++i) {
      t->send(make_msg(1, 0, 1, make_payload(32)));
      try {
        log.push_back(t->try_recv(0, 1, 1).has_value() ? 0 : 1);
      } catch (const TransportError& e) {
        log.push_back(e.code() == TransportErrc::kFrameCorrupt ? 2 : 3);
      }
    }
    t->clear_pending();  // drop undelivered duplicates
    return log;
  };
  const std::vector<int> a = outcomes(1234);
  EXPECT_EQ(a, outcomes(1234));
  EXPECT_NE(a, outcomes(4321)) << "different seeds gave identical chaos";
}

TEST(ChaosTransport, KilledLinkThrowsResetThenUnreachable) {
  TransportOptions opts;
  opts.chaos.kill_peer = 1;  // dead from the first byte
  auto t = make_transport(opts, 3);
  try {
    t->send(make_msg(0, 1, 1, make_payload(8)));
    FAIL() << "send to the killed rank succeeded";
  } catch (const TransportError& e) {
    EXPECT_EQ(e.code(), TransportErrc::kPeerReset);
    EXPECT_EQ(e.peer(), 1);
  }
  try {
    t->send(make_msg(0, 1, 1, make_payload(8)));
    FAIL() << "second send to the killed rank succeeded";
  } catch (const TransportError& e) {
    EXPECT_EQ(e.code(), TransportErrc::kPeerUnreachable);
  }
  // Other links are untouched.
  t->send(make_msg(0, 2, 1, make_payload(8)));
  EXPECT_EQ(t->recv(2, 0, 1).payload.size(), 8u);
}

// ---------------------------------------------------------------------------
// Network degradation: real faults condemn the peer, survivors continue
// ---------------------------------------------------------------------------

TEST(NetworkDegradation, CorruptPeerIsCondemnedOnceAndTrafficContinues) {
  TransportOptions topts;
  topts.chaos.seed = 7;
  topts.chaos.truncate_rate = 1.0;  // every frame from any peer dies
  Network net(3, CostModel{}, FaultConfig{}, make_transport(topts, 3));
  EXPECT_TRUE(net.lossy());
  EXPECT_FALSE(net.degraded());

  net.send(1, 0, 1, make_payload(32));
  EXPECT_FALSE(net.try_recv(0, 1, 1).has_value());
  EXPECT_FALSE(net.peer_alive(1));
  EXPECT_TRUE(net.degraded());
  EXPECT_EQ(net.fault_stats().real_peer_faults, 1u);

  // Dead-peer traffic short-circuits: no throw, nothing delivered, and the
  // condemnation is not double-counted.
  net.send(1, 0, 1, make_payload(32));
  EXPECT_FALSE(net.try_recv(0, 1, 1).has_value());
  EXPECT_FALSE(net.has_message(0, 1, 1));
  EXPECT_EQ(net.fault_stats().real_peer_faults, 1u);
  EXPECT_TRUE(net.peer_alive(2));
  EXPECT_EQ(net.pending_messages(), 0u);
}

TEST(NetworkDegradation, StrictRecvCondemnsThenPropagates) {
  TransportOptions topts;
  topts.chaos.seed = 8;
  topts.chaos.truncate_rate = 1.0;
  Network net(2, CostModel{}, FaultConfig{}, make_transport(topts, 2));
  net.send(1, 0, 4, make_payload(8));
  EXPECT_THROW((void)net.recv(0, 1, 4), TransportError);
  EXPECT_FALSE(net.peer_alive(1));
  EXPECT_EQ(net.fault_stats().real_peer_faults, 1u);
}

// ---------------------------------------------------------------------------
// Federated rounds: real peer death degrades like an injected crash
// ---------------------------------------------------------------------------

core::ExperimentConfig chaos_experiment_config() {
  core::ExperimentConfig cfg = test::tiny_experiment_config();
  cfg.rounds = 3;
  return cfg;
}

TEST(FederatedChaos, TcpPeerResetMidRoundMatchesInjectedCrashCurve) {
  // Chaos run: the TCP link to client 2 (fabric rank 3) is reset by the
  // first byte it moves in round 2 — a real mid-round peer death discovered
  // by the typed-error path. Reference run: the same client crashed by the
  // PR 3 fault plan for rounds 2..3. Both runs exclude the same client from
  // the same rounds with its local state frozen at the same point, so the
  // accuracy trajectory and survivor sets must match bit for bit. (Traffic
  // differs by design: the chaos run pays for the round-2 broadcast that
  // discovers the death; fault columns differ because one records a real
  // fault and the other injected crash rounds.)
  core::ExperimentConfig chaos_cfg = chaos_experiment_config();
  chaos_cfg.transport.kind = TransportKind::kTcp;
  chaos_cfg.transport.chaos.kill_peer = 3;
  chaos_cfg.transport.chaos.kill_from_round = 2;
  core::Experiment chaos_exp(chaos_cfg);
  core::FedClassAvg chaos_strat(chaos_exp.fedclassavg_config());
  const core::CompletedRun chaos_run = chaos_exp.execute(chaos_strat);

  core::ExperimentConfig crash_cfg = chaos_experiment_config();
  crash_cfg.faults.crash_schedule = parse_crash_schedule("3@2x2");
  core::Experiment crash_exp(crash_cfg);
  core::FedClassAvg crash_strat(crash_exp.fedclassavg_config());
  const core::CompletedRun crash_run = crash_exp.execute(crash_strat);

  const auto& a = chaos_run.result.curve;
  const auto& b = crash_run.result.curve;
  ASSERT_EQ(a.size(), b.size());
  for (size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].round, b[i].round);
    EXPECT_DOUBLE_EQ(a[i].mean_accuracy, b[i].mean_accuracy)
        << "round " << a[i].round;
    EXPECT_DOUBLE_EQ(a[i].std_accuracy, b[i].std_accuracy);
    EXPECT_DOUBLE_EQ(a[i].mean_train_loss, b[i].mean_train_loss)
        << "round " << a[i].round;
    EXPECT_EQ(a[i].selected_count, b[i].selected_count);
    EXPECT_EQ(a[i].survivor_count, b[i].survivor_count)
        << "round " << a[i].round;
    ASSERT_EQ(a[i].client_accuracies.size(), b[i].client_accuracies.size());
    for (size_t k = 0; k < a[i].client_accuracies.size(); ++k) {
      EXPECT_DOUBLE_EQ(a[i].client_accuracies[k], b[i].client_accuracies[k])
          << "round " << a[i].round << " client " << k;
    }
  }
  // The two runs record their faults in the intended, separate columns.
  EXPECT_EQ(chaos_run.result.total_faults.real_peer_faults, 1u);
  EXPECT_EQ(chaos_run.result.total_faults.crashed_client_rounds, 0u);
  EXPECT_EQ(crash_run.result.total_faults.real_peer_faults, 0u);
  EXPECT_EQ(crash_run.result.total_faults.crashed_client_rounds, 2u);
}

TEST(FederatedChaos, CorruptingFabricRunIsByteIdenticalAcrossReruns) {
  // A run over a corrupting fabric (every uplink/downlink can be condemned)
  // must still be a pure function of its seeds: rerunning it reproduces the
  // identical curve, traffic, fault totals and real-fault column.
  const auto run_once = [] {
    core::ExperimentConfig cfg = chaos_experiment_config();
    cfg.transport.chaos.seed = 20260809;
    cfg.transport.chaos.corrupt_rate = 0.05;
    core::Experiment exp(cfg);
    core::FedClassAvg strat(exp.fedclassavg_config());
    return exp.execute(strat);
  };
  const core::CompletedRun a = run_once();
  const core::CompletedRun b = run_once();
  test::expect_bit_identical(a.result, b.result);

  const auto* chaos =
      dynamic_cast<const ChaosTransport*>(&a.run->network().transport());
  ASSERT_NE(chaos, nullptr);
  EXPECT_EQ(chaos->silent_corruptions(), 0u)
      << "a corrupted frame was silently accepted mid-run";
  // The per-round real-fault column decomposes the run total exactly.
  uint64_t column_total = 0;
  for (const auto& m : a.result.curve) column_total += m.real_fault_events;
  EXPECT_EQ(column_total, a.result.total_faults.real_peer_faults);
}

}  // namespace
}  // namespace fca::comm
