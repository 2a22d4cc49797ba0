// Observability tier (DESIGN.md §8): the tracer's determinism contract and
// the metrics registry's exactness.
//
// The headline guarantees under test:
//   * the logical trace of a run — (round, rank, seq, cat, name, value)
//     lines, wall-clock stripped — is byte-identical across reruns, across
//     client_parallelism {1, 2, 4}, and across a checkpoint/resume split;
//   * traffic counters agree exactly with comm::Network's own accounting;
//   * emission is thread-safe (an 8-thread hammer, run under TSan in CI).
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <filesystem>
#include <fstream>
#include <thread>
#include <vector>

#include "ckpt/checkpoint.hpp"
#include "core/fedclassavg.hpp"
#include "core/fedclassavg_proto.hpp"
#include "core/trainer.hpp"
#include "fl/fedavg.hpp"
#include "fl/fedproto.hpp"
#include "fl/fedprox.hpp"
#include "fl/ktpfl.hpp"
#include "fl/local_only.hpp"
#include "fl/metrics.hpp"
#include "fl_fixtures.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "tensor/kernel.hpp"

namespace fca {
namespace {

using test::tiny_experiment_config;

// ---------------------------------------------------------------------------
// Harness: run an experiment with tracing on, return the drained capture.

core::ExperimentConfig trace_test_config(const std::string& strategy,
                                         int parallelism) {
  core::ExperimentConfig cfg = tiny_experiment_config();
  cfg.rounds = 4;
  cfg.client_parallelism = parallelism;
  // Weight-sharing strategies need one architecture; FedProto its CNN family.
  if (strategy == "fedavg" || strategy == "fedprox" ||
      strategy == "ktpfl-weight") {
    cfg.models = core::ModelScheme::kHomogeneousResNet;
  } else if (strategy == "fedproto") {
    cfg.models = core::ModelScheme::kFedProtoFamily;
  }
  return cfg;
}

std::unique_ptr<fl::RoundStrategy> make_strategy(
    const std::string& name, const core::Experiment& experiment) {
  if (name == "local") return std::make_unique<fl::LocalOnly>();
  if (name == "fedavg") return std::make_unique<fl::FedAvg>();
  if (name == "fedprox") return std::make_unique<fl::FedProx>(0.1f);
  if (name == "fedproto") return std::make_unique<fl::FedProto>();
  if (name == "ktpfl" || name == "ktpfl-weight") {
    fl::KTpFLConfig cfg;
    cfg.share_weights = name == "ktpfl-weight";
    return std::make_unique<fl::KTpFL>(experiment.public_data(), cfg);
  }
  if (name == "fedclassavg") {
    return std::make_unique<core::FedClassAvg>(
        experiment.fedclassavg_config());
  }
  if (name == "fedclassavg-proto") {
    core::FedClassAvgProtoConfig cfg;
    cfg.base = experiment.fedclassavg_config();
    return std::make_unique<core::FedClassAvgProto>(cfg);
  }
  throw std::runtime_error("unknown strategy: " + name);
}

/// Every strategy the round driver runs, by its fca_cli --algorithm name.
constexpr const char* kAllStrategies[] = {
    "local", "fedavg",       "fedprox",     "fedproto",
    "ktpfl", "ktpfl-weight", "fedclassavg", "fedclassavg-proto"};

/// RAII tracing window: flips the flag on, clears any prior capture, and
/// guarantees the flag is off again even if an assertion throws.
class TracingWindow {
 public:
  TracingWindow() {
    obs::set_tracing(true);
    obs::Tracer::instance().reset();
  }
  ~TracingWindow() {
    obs::set_tracing(false);
    obs::Tracer::instance().reset();
  }
};

std::vector<obs::TraceEvent> run_traced(const std::string& strategy,
                                        int parallelism) {
  TracingWindow window;
  core::Experiment exp(trace_test_config(strategy, parallelism));
  auto strat = make_strategy(strategy, exp);
  exp.execute(*strat);
  return obs::Tracer::instance().drain();
}

std::string joined_logical(const std::vector<obs::TraceEvent>& events) {
  std::string all;
  for (const std::string& line : obs::logical_lines(events)) {
    all += line;
    all += '\n';
  }
  return all;
}

std::string scratch_dir(const std::string& name) {
  const std::string dir = testing::TempDir() + "fca_trace_" + name;
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  return dir;
}

// ---------------------------------------------------------------------------
// Golden structure: the FedAvg round protocol as a trace

TEST(GoldenTrace, FedAvgRoundHasTheCanonicalPhaseSequence) {
  const auto events = run_traced("fedavg", 1);
  const core::ExperimentConfig cfg = trace_test_config("fedavg", 1);

  // Per round, rank 0 (the server/driver) emits exactly:
  //   seq 0 serialize, 1 broadcast, 2 aggregate, 3 round, 4 eval
  // (spans close in that order: the aggregate span closes before the round
  // span enclosing it, and eval runs after the round body). Every client
  // rank k+1 emits exactly one local-train span at seq 0.
  for (int round = 1; round <= cfg.rounds; ++round) {
    std::vector<const obs::TraceEvent*> server;
    std::vector<const obs::TraceEvent*> clients;
    for (const auto& e : events) {
      if (e.round != round) continue;
      (e.rank == 0 ? server : clients).push_back(&e);
    }
    ASSERT_EQ(server.size(), 5u) << "round " << round;
    const char* expected[] = {"serialize", "broadcast", "aggregate", "round",
                              "eval"};
    for (size_t i = 0; i < 5; ++i) {
      EXPECT_EQ(server[i]->seq, i) << "round " << round;
      EXPECT_STREQ(server[i]->name, expected[i]) << "round " << round;
      EXPECT_STREQ(server[i]->cat, "fl");
    }
    EXPECT_GT(server[0]->value, 0) << "serialize value is the payload bytes";
    EXPECT_EQ(server[1]->value, cfg.num_clients);  // broadcast: live cohort
    EXPECT_EQ(server[2]->value, cfg.num_clients);  // aggregate: survivors
    EXPECT_EQ(server[3]->value, cfg.num_clients);  // round: selected
    EXPECT_EQ(server[4]->value, cfg.num_clients);  // eval: all clients

    ASSERT_EQ(clients.size(), static_cast<size_t>(cfg.num_clients))
        << "round " << round;
    for (const auto* e : clients) {
      EXPECT_STREQ(e->name, "local-train");
      EXPECT_EQ(e->seq, 0u);
      EXPECT_EQ(e->value, cfg.local_epochs);
      EXPECT_GE(e->rank, 1);
      EXPECT_LE(e->rank, cfg.num_clients);
    }
  }
  // Nothing outside rounds 1..4, and wall-clock fields are populated.
  for (const auto& e : events) {
    EXPECT_GE(e.round, 1);
    EXPECT_LE(e.round, cfg.rounds);
    EXPECT_GE(e.dur_us, 0.0);
  }
}

// Every strategy's round protocol as a trace. Per round, rank 0 emits the
// "name=value" spans of `server` in close order, and every client rank emits
// exactly the span names of `client`. Serialize values are payload bytes;
// the cohort-sized values are the tiny fixture's 4 clients.
struct RoundGolden {
  const char* strategy;
  const char* server;
  const char* client;
};

constexpr RoundGolden kRoundGoldens[] = {
    {"local", "round=4 eval=4", "local-train"},
    {"fedavg", "serialize=179388 broadcast=4 aggregate=4 round=4 eval=4",
     "local-train"},
    {"fedprox", "serialize=179388 broadcast=4 aggregate=4 round=4 eval=4",
     "local-train"},
    {"fedproto", "serialize=726 broadcast=4 aggregate=4 round=4 eval=4",
     "local-train"},
    {"ktpfl", "broadcast=4 aggregate=4 round=4 eval=4",
     "local-train distill"},
    {"ktpfl-weight", "exchange=4 aggregate=4 round=4 eval=4", "local-train"},
    {"fedclassavg", "serialize=726 broadcast=4 aggregate=4 round=4 eval=4",
     "local-train"},
    {"fedclassavg-proto",
     "serialize=1448 broadcast=4 aggregate=4 round=4 eval=4", "local-train"},
};

class RoundGoldenTrace : public ::testing::TestWithParam<RoundGolden> {};

TEST_P(RoundGoldenTrace, RoundHasThePinnedSpanSequence) {
  const RoundGolden& golden = GetParam();
  const auto events = run_traced(golden.strategy, 1);
  const core::ExperimentConfig cfg = trace_test_config(golden.strategy, 1);
  for (int round = 1; round <= cfg.rounds; ++round) {
    std::string server;
    std::vector<std::string> clients(static_cast<size_t>(cfg.num_clients));
    for (const auto& e : events) {
      ASSERT_GE(e.round, 1);
      ASSERT_LE(e.round, cfg.rounds);
      ASSERT_GE(e.rank, 0);
      ASSERT_LE(e.rank, cfg.num_clients);
      if (e.round != round) continue;
      EXPECT_STREQ(e.cat, "fl");
      if (e.rank == 0) {
        if (!server.empty()) server += ' ';
        server += std::string(e.name) + "=" + std::to_string(e.value);
      } else {
        std::string& names = clients[static_cast<size_t>(e.rank - 1)];
        if (!names.empty()) names += ' ';
        names += e.name;
      }
    }
    EXPECT_EQ(server, golden.server)
        << golden.strategy << " round " << round;
    for (int k = 0; k < cfg.num_clients; ++k) {
      EXPECT_EQ(clients[static_cast<size_t>(k)], golden.client)
          << golden.strategy << " round " << round << " rank " << k + 1;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Strategies, RoundGoldenTrace, ::testing::ValuesIn(kRoundGoldens),
    [](const ::testing::TestParamInfo<RoundGolden>& info) {
      std::string name = info.param.strategy;
      std::replace(name.begin(), name.end(), '-', '_');
      return name;
    });

TEST(GoldenTrace, DisabledTracingEmitsNothing) {
  ASSERT_FALSE(obs::tracing_enabled());
  obs::Tracer::instance().reset();
  core::Experiment exp(trace_test_config("fedclassavg", 1));
  core::FedClassAvg strat(exp.fedclassavg_config());
  exp.execute(strat);
  EXPECT_TRUE(obs::Tracer::instance().drain().empty());
}

// ---------------------------------------------------------------------------
// Replay stability: reruns, parallelism, kernel profiling

class TraceDeterminism : public ::testing::TestWithParam<const char*> {};

TEST_P(TraceDeterminism, LogicalTraceIsIdenticalAcrossParallelism) {
  const std::string strategy = GetParam();
  const auto serial = run_traced(strategy, 1);
  ASSERT_FALSE(serial.empty());
  const std::string serial_text = joined_logical(serial);
  const uint64_t serial_digest = obs::logical_digest(serial);
  for (int parallelism : {2, 4}) {
    const auto parallel = run_traced(strategy, parallelism);
    EXPECT_EQ(joined_logical(parallel), serial_text)
        << strategy << " at client_parallelism=" << parallelism;
    EXPECT_EQ(obs::logical_digest(parallel), serial_digest);
  }
}

TEST_P(TraceDeterminism, RerunIsByteIdentical) {
  const std::string strategy = GetParam();
  const auto a = run_traced(strategy, 1);
  const auto b = run_traced(strategy, 1);
  EXPECT_EQ(joined_logical(a), joined_logical(b));
  EXPECT_EQ(obs::logical_digest(a), obs::logical_digest(b));
}

INSTANTIATE_TEST_SUITE_P(
    Strategies, TraceDeterminism, ::testing::ValuesIn(kAllStrategies),
    [](const ::testing::TestParamInfo<const char*>& info) {
      std::string name = info.param;
      std::replace(name.begin(), name.end(), '-', '_');
      return name;
    });

TEST(TraceDeterminism, KernelProfileIsIdenticalAcrossParallelism) {
  // With the profile flag on, kernel spans (gemm/conv/SupCon/optimizer) join
  // the capture. Spans inside parallel_for chunks are suppressed
  // (kernel_spans_armed), so the logical trace must stay scheduling-free.
  obs::set_kernel_tracing(true);
  const auto serial = run_traced("fedclassavg", 1);
  const auto parallel = run_traced("fedclassavg", 2);
  obs::set_kernel_tracing(false);
  bool saw_kernel = false;
  for (const auto& e : serial) {
    if (std::string(e.cat) == "kernel") saw_kernel = true;
  }
  EXPECT_TRUE(saw_kernel) << "profile mode recorded no kernel spans";
  EXPECT_GT(serial.size(), 100u);
  EXPECT_EQ(obs::logical_digest(parallel), obs::logical_digest(serial));
  EXPECT_EQ(joined_logical(parallel), joined_logical(serial));
}

TEST(TraceDeterminism, KernelSpansAreStableAcrossKernelSelection) {
  // Every sgemm dispatch path emits the same logical span — cat=kernel,
  // name=sgemm, value=2*m*n*k — so which implementation runs is invisible
  // to the trace: forced-naive and forced-packed runs must produce
  // byte-identical logical captures (golden flop counts included).
  obs::set_kernel_tracing(true);
  std::string naive_text, packed_text;
  uint64_t naive_digest, packed_digest;
  {
    ScopedGemmKernel guard(GemmKernel::kNaive);
    const auto events = run_traced("fedclassavg", 1);
    naive_text = joined_logical(events);
    naive_digest = obs::logical_digest(events);
  }
  {
    ScopedGemmKernel guard(GemmKernel::kPacked);
    const auto events = run_traced("fedclassavg", 1);
    packed_text = joined_logical(events);
    packed_digest = obs::logical_digest(events);
  }
  obs::set_kernel_tracing(false);
  EXPECT_NE(packed_text.find("cat=kernel name=sgemm"), std::string::npos)
      << "profiled run recorded no sgemm spans";
  EXPECT_EQ(packed_text, naive_text)
      << "kernel selection leaked into the logical trace";
  EXPECT_EQ(packed_digest, naive_digest);
}

// ---------------------------------------------------------------------------
// Checkpoint/resume split

TEST(TraceDeterminism, CheckpointSplitTraceEqualsUninterruptedTrace) {
  const std::string dir = scratch_dir("resume");
  ckpt::Options opts;
  opts.dir = dir;
  opts.every = 2;

  // Uninterrupted reference: 4 rounds, checkpointing at rounds 2 and 4.
  std::string full_text;
  {
    TracingWindow window;
    core::Experiment exp(trace_test_config("fedclassavg", 1));
    core::FedClassAvg strat(exp.fedclassavg_config());
    exp.execute(strat, opts);
    full_text = joined_logical(obs::Tracer::instance().drain());
  }
  EXPECT_NE(full_text.find("cat=ckpt name=save"), std::string::npos);

  // Phase 1: stop after round 2. Phase 2: resume to round 4. The resume
  // (load) path is untraced by design, so the two captures concatenate to
  // exactly the uninterrupted trace.
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  std::string split_text;
  {
    TracingWindow window;
    core::ExperimentConfig half_cfg = trace_test_config("fedclassavg", 1);
    half_cfg.rounds = 2;
    core::Experiment half_exp(half_cfg);
    core::FedClassAvg half_strat(half_exp.fedclassavg_config());
    half_exp.execute(half_strat, opts);
    split_text = joined_logical(obs::Tracer::instance().drain());

    core::Experiment rest_exp(trace_test_config("fedclassavg", 1));
    core::FedClassAvg rest_strat(rest_exp.fedclassavg_config());
    rest_exp.resume(rest_strat, opts);
    split_text += joined_logical(obs::Tracer::instance().drain());
  }
  EXPECT_EQ(split_text, full_text);
}

// ---------------------------------------------------------------------------
// Metrics exactness against the network's own accounting

TEST(MetricsExactness, TrafficCountersMatchNetworkStats) {
  obs::MetricsRegistry& reg = obs::MetricsRegistry::instance();
  obs::set_metrics(true);
  reg.reset();
  core::Experiment exp(trace_test_config("fedavg", 1));
  fl::FedAvg strat;
  const core::CompletedRun done = exp.execute(strat);
  obs::set_metrics(false);

  EXPECT_EQ(reg.counter("comm.sent.messages").value(),
            done.result.total_traffic.messages);
  EXPECT_EQ(reg.counter("comm.sent.bytes").value(),
            done.result.total_traffic.payload_bytes);

  // Per-edge counters partition the totals exactly.
  uint64_t edge_messages = 0;
  uint64_t edge_bytes = 0;
  for (const std::string& name : reg.names()) {
    if (name.rfind("comm.edge.", 0) != 0) continue;
    if (name.size() >= 9 &&
        name.compare(name.size() - 9, 9, ".messages") == 0) {
      edge_messages += reg.counter(name).value();
    } else {
      edge_bytes += reg.counter(name).value();
    }
  }
  EXPECT_EQ(edge_messages, done.result.total_traffic.messages);
  EXPECT_EQ(edge_bytes, done.result.total_traffic.payload_bytes);

  // Round-hook counters: every round committed, everyone survived.
  const core::ExperimentConfig cfg = trace_test_config("fedavg", 1);
  EXPECT_EQ(reg.counter("fl.rounds").value(),
            static_cast<uint64_t>(cfg.rounds));
  EXPECT_EQ(reg.counter("fl.selected.total").value(),
            static_cast<uint64_t>(cfg.rounds * cfg.num_clients));
  EXPECT_EQ(reg.counter("fl.survivors.total").value(),
            static_cast<uint64_t>(cfg.rounds * cfg.num_clients));
  EXPECT_EQ(reg.gauge("fl.faults.crashed_client_rounds").value(), 0.0);
  EXPECT_GT(reg.histogram("nn.optim.step_seconds").count(), 0u);
}

TEST(MetricsExactness, CheckpointSaveInstrumentsLatencyAndBytes) {
  const std::string dir = scratch_dir("ckpt_metrics");
  obs::MetricsRegistry& reg = obs::MetricsRegistry::instance();
  obs::set_metrics(true);
  reg.reset();
  ckpt::Options opts;
  opts.dir = dir;
  core::ExperimentConfig cfg = tiny_experiment_config();
  core::Experiment exp(cfg);
  core::FedClassAvg strat(exp.fedclassavg_config());
  const core::CompletedRun done = exp.execute(strat, opts);
  obs::set_metrics(false);

  EXPECT_EQ(reg.histogram("ckpt.save_seconds").count(),
            static_cast<uint64_t>(done.checkpoint_stats.saves));
  EXPECT_GT(reg.counter("ckpt.bytes_written").value(), 0u);
  EXPECT_GT(done.checkpoint_stats.saves, 0);
}

TEST(MetricsExactness, DisabledMetricsRecordNothing) {
  ASSERT_FALSE(obs::metrics_enabled());
  obs::MetricsRegistry& reg = obs::MetricsRegistry::instance();
  reg.reset();
  core::Experiment exp(tiny_experiment_config());
  core::FedClassAvg strat(exp.fedclassavg_config());
  exp.execute(strat);
  EXPECT_EQ(reg.counter("comm.sent.messages").value(), 0u);
  EXPECT_EQ(reg.counter("fl.rounds").value(), 0u);
}

// ---------------------------------------------------------------------------
// Registry and timer units

TEST(MetricsRegistry, InstrumentsAccumulateAndReset) {
  obs::MetricsRegistry& reg = obs::MetricsRegistry::instance();
  reg.reset();
  obs::Counter& c = reg.counter("test.counter");
  c.add();
  c.add(41);
  EXPECT_EQ(c.value(), 42u);
  reg.gauge("test.gauge").set(2.5);
  EXPECT_EQ(reg.gauge("test.gauge").value(), 2.5);
  obs::Histogram& h = reg.histogram("test.hist");
  h.observe(1.0);
  h.observe(3.0);
  EXPECT_EQ(h.count(), 2u);
  EXPECT_EQ(h.sum(), 4.0);
  EXPECT_EQ(h.min(), 1.0);
  EXPECT_EQ(h.max(), 3.0);
  // Same name, same kind: the same instrument. Same name, other kind: throws.
  c.add();
  EXPECT_EQ(reg.counter("test.counter").value(), 43u);
  EXPECT_ANY_THROW(reg.gauge("test.counter"));
  reg.reset();
  EXPECT_EQ(c.value(), 0u) << "reset zeroes but keeps references valid";
  EXPECT_EQ(h.count(), 0u);
}

TEST(MetricsRegistry, ScopedTimerObservesOnceAndNullIsNoop) {
  obs::MetricsRegistry& reg = obs::MetricsRegistry::instance();
  reg.reset();
  obs::Histogram& h = reg.histogram("test.timer");
  { obs::ScopedTimer t(&h); }
  EXPECT_EQ(h.count(), 1u);
  EXPECT_GE(h.min(), 0.0);
  { obs::ScopedTimer t(nullptr); }  // the disabled-metrics path
  EXPECT_EQ(h.count(), 1u);
}

TEST(MetricsRegistry, JsonlSnapshotIsSortedAndTyped) {
  obs::MetricsRegistry& reg = obs::MetricsRegistry::instance();
  reg.reset();
  reg.counter("test.b").add(2);
  reg.gauge("test.a").set(1.0);
  const std::string jsonl = reg.render_jsonl();
  const size_t a = jsonl.find("\"test.a\"");
  const size_t b = jsonl.find("\"test.b\"");
  ASSERT_NE(a, std::string::npos);
  ASSERT_NE(b, std::string::npos);
  EXPECT_LT(a, b) << "snapshot must be sorted by name";
  EXPECT_NE(jsonl.find("\"kind\":\"gauge\""), std::string::npos);
  EXPECT_NE(jsonl.find("\"kind\":\"counter\""), std::string::npos);
}

// ---------------------------------------------------------------------------
// Exporters

TEST(TraceExport, JsonlAndChromeFormatsAreWellFormed) {
  const std::string dir = scratch_dir("export");
  std::vector<obs::TraceEvent> events;
  {
    TracingWindow window;
    obs::Tracer::instance().set_round(1);
    {
      obs::ContextScope ctx(0);
      obs::TraceSpan span("fl", "round", 7);
    }
    obs::Tracer::instance().set_round(0);
    events = obs::Tracer::instance().drain();
  }
  ASSERT_EQ(events.size(), 1u);
  EXPECT_EQ(obs::logical_line(events[0]),
            "round=1 rank=0 seq=0 cat=fl name=round value=7");

  // .json dispatches to the Chrome trace_event format, else JSONL.
  obs::export_trace(dir + "/t.jsonl", events);
  obs::export_trace(dir + "/t.json", events);
  std::ifstream jsonl(dir + "/t.jsonl");
  std::string line;
  ASSERT_TRUE(std::getline(jsonl, line));
  EXPECT_EQ(line.front(), '{');
  EXPECT_NE(line.find("\"name\":\"round\""), std::string::npos);
  EXPECT_NE(line.find("\"ts_us\":"), std::string::npos);
  std::ifstream chrome_in(dir + "/t.json");
  std::string chrome((std::istreambuf_iterator<char>(chrome_in)),
                     std::istreambuf_iterator<char>());
  EXPECT_EQ(chrome.rfind("{\"traceEvents\":[", 0), 0u);
  EXPECT_NE(chrome.find("\"ph\":\"X\""), std::string::npos);
  EXPECT_NE(chrome.find("\"tid\":0"), std::string::npos);
}

// ---------------------------------------------------------------------------
// Concurrency: emission hammer (runs under TSan in CI)

TEST(TraceConcurrency, EightThreadHammerKeepsPerRankOrder) {
  constexpr int kThreads = 8;
  constexpr int kSpansPerThread = 1000;
  TracingWindow window;
  obs::Tracer::instance().set_round(1);
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([t] {
      obs::ContextScope ctx(t + 1);
      for (int i = 0; i < kSpansPerThread; ++i) {
        obs::TraceSpan span("test", "hammer", i);
      }
    });
  }
  for (auto& th : threads) th.join();
  obs::Tracer::instance().set_round(0);
  const auto events = obs::Tracer::instance().drain();
  ASSERT_EQ(events.size(),
            static_cast<size_t>(kThreads) * kSpansPerThread);
  // After the deterministic merge each rank's spans sit contiguously, seq
  // 0..N-1 in emission order (value tracks the loop index).
  for (int t = 0; t < kThreads; ++t) {
    for (int i = 0; i < kSpansPerThread; ++i) {
      const auto& e = events[static_cast<size_t>(t) * kSpansPerThread +
                             static_cast<size_t>(i)];
      EXPECT_EQ(e.rank, t + 1);
      EXPECT_EQ(e.seq, static_cast<uint64_t>(i));
      EXPECT_EQ(e.value, i);
      if (HasFailure()) return;
    }
  }
}

}  // namespace
}  // namespace fca
