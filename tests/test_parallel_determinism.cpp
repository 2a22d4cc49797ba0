// Concurrency test tier: proves the deterministic parallel round executor
// (fl/executor.hpp) is a pure wall-time knob. For every strategy, a run with
// client_parallelism in {2, 4} must be byte-identical to the serial sweep —
// same learning curve, same traffic totals, same final model weights — and a
// parallel run split across a checkpoint/resume boundary must match an
// uninterrupted one bit for bit. Executor-level unit tests (positional
// results, deterministic error selection, degenerate pools) live here too.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <condition_variable>
#include <cstring>
#include <filesystem>
#include <memory>
#include <mutex>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/fedclassavg.hpp"
#include "core/fedclassavg_proto.hpp"
#include "core/trainer.hpp"
#include "fl/executor.hpp"
#include "fl/fedavg.hpp"
#include "fl/fedproto.hpp"
#include "fl/fedprox.hpp"
#include "fl/ktpfl.hpp"
#include "fl/local_only.hpp"
#include "fl_fixtures.hpp"
#include "models/serialize.hpp"
#include "tensor/kernel.hpp"
#include "utils/threadpool.hpp"

namespace fca {
namespace {

using fl::RoundExecutor;
using test::expect_bit_identical;
using test::tiny_experiment_config;

// ---------------------------------------------------------------------------
// RoundExecutor unit tests

std::vector<int> iota_clients(int n) {
  std::vector<int> v(static_cast<size_t>(n));
  for (int i = 0; i < n; ++i) v[static_cast<size_t>(i)] = i;
  return v;
}

TEST(RoundExecutor, MapReturnsResultsInCohortOrder) {
  // Inject a 3-worker pool so the parallel path runs real threads even on a
  // single-core host (where the global pool has zero workers).
  ThreadPool pool(3);
  for (int parallelism : {1, 2, 4, 0}) {
    RoundExecutor exec(parallelism, &pool);
    const std::vector<int> clients{7, 3, 11, 0, 5};
    const std::vector<double> got =
        exec.map(clients, [](int k) { return k * 10.0; });
    ASSERT_EQ(got.size(), clients.size()) << "parallelism " << parallelism;
    for (size_t i = 0; i < clients.size(); ++i) {
      EXPECT_EQ(got[i], clients[i] * 10.0);
    }
  }
}

TEST(RoundExecutor, EveryClientRunsExactlyOnce) {
  ThreadPool pool(3);
  for (int parallelism : {1, 3, 0}) {
    RoundExecutor exec(parallelism, &pool);
    std::vector<std::atomic<int>> hits(64);
    exec.for_each(iota_clients(64),
                  [&](int k) { hits[static_cast<size_t>(k)].fetch_add(1); });
    for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
  }
}

TEST(RoundExecutor, LowestCohortPositionErrorWins) {
  // Positions 2 and 5 both throw; the serial sweep would fail at position 2
  // first, and the parallel executor must report the same error no matter
  // which lane hit its exception first.
  ThreadPool pool(3);
  for (int rep = 0; rep < 5; ++rep) {
    RoundExecutor exec(4, &pool);
    try {
      exec.for_each(iota_clients(8), [](int k) {
        if (k == 2 || k == 5) throw std::runtime_error(std::to_string(k));
      });
      FAIL() << "expected an exception";
    } catch (const std::runtime_error& e) {
      EXPECT_STREQ(e.what(), "2");
    }
  }
}

TEST(RoundExecutor, ClaimOrderIsDescendingCostThenPosition) {
  EXPECT_EQ(RoundExecutor::claim_order({1, 5, 2, 9, 9, 0, 3, 5}),
            (std::vector<size_t>{3, 4, 1, 7, 6, 2, 0, 5}));
  EXPECT_EQ(RoundExecutor::claim_order({2, 2, 2}),
            (std::vector<size_t>{0, 1, 2}));
}

TEST(RoundExecutor, LanesClaimTheCostliestPositionFirst) {
  // The costliest body sits last in cohort order. Every other body waits
  // until it has started before recording itself, so the recorded sequence
  // starts with the first claim; in cohort order the waits would time out
  // and position 0 would be recorded first.
  ThreadPool pool(1);
  RoundExecutor lanes(2, &pool);
  const std::vector<int> clients = iota_clients(8);
  const std::vector<double> costs{1, 2, 3, 4, 5, 6, 7, 8};
  auto value = [](int k) { return std::sin(k * 0.7) * 1e3 + k; };
  std::mutex mu;
  std::condition_variable cv;
  std::vector<int> started;
  const std::vector<double> got = lanes.map(
      clients,
      [&](int k) {
        std::unique_lock lk(mu);
        if (k != 7) {
          cv.wait_for(lk, std::chrono::seconds(10), [&] {
            return std::find(started.begin(), started.end(), 7) !=
                   started.end();
          });
        }
        started.push_back(k);
        cv.notify_all();
        return value(k);
      },
      costs);
  ASSERT_EQ(started.size(), clients.size());
  EXPECT_EQ(started.front(), 7);
  const std::vector<double> serial = RoundExecutor(1).map(clients, value);
  ASSERT_EQ(got.size(), serial.size());
  EXPECT_EQ(std::memcmp(got.data(), serial.data(),
                        serial.size() * sizeof(double)),
            0);
}

TEST(RoundExecutor, ZeroWorkerPoolFallsBackToSerial) {
  ThreadPool pool(0);  // explicit zero workers via the injected-pool ctor
  ASSERT_EQ(pool.size(), 0u);
  RoundExecutor exec(4, &pool);
  const std::vector<double> got =
      exec.map(iota_clients(5), [](int k) { return k + 0.5; });
  for (size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(got[i], static_cast<double>(i) + 0.5);
  }
}

TEST(RoundExecutor, EmptyCohortIsANoOp) {
  RoundExecutor exec(4);
  EXPECT_TRUE(exec.map({}, [](int) { return 1.0; }).empty());
}

TEST(RoundExecutor, LanesSuppressNestedKernelParallelism) {
  // Property 3 of the determinism argument: a client body must observe
  // in_task() so its inner parallel_for degrades to a serial loop.
  ThreadPool pool(2);
  RoundExecutor exec(2, &pool);
  std::vector<std::atomic<int>> inside(4);
  exec.for_each(iota_clients(4), [&](int k) {
    inside[static_cast<size_t>(k)] = ThreadPool::in_task() ? 1 : 0;
  });
  for (const auto& f : inside) EXPECT_EQ(f.load(), 1);
}

// ---------------------------------------------------------------------------
// The blocked eq. 1 aggregate (models::weighted_sum_into) against a serial
// loop in payload order

constexpr int64_t kBlock = models::kSumBlockFloats;

/// Tensors below, at and just above one block, with an empty one and small
/// ones between them, so blocks start and end inside tensors. Every fifth
/// value is -0.0.
std::vector<Tensor> aggregate_payload_tensors(Rng& rng) {
  std::vector<Tensor> ts;
  for (const Shape& shape : std::vector<Shape>{{kBlock - 1}, {3}, {kBlock},
                                               {0}, {2, 5}, {kBlock + 1},
                                               {4, kBlock / 4 + 1}}) {
    Tensor t = Tensor::randn(shape, rng);
    for (int64_t j = 0; j < t.numel(); j += 5) t[j] = -0.0f;
    ts.push_back(std::move(t));
  }
  return ts;
}

/// The serial order: zero-filled sums, each payload added in turn.
std::vector<Tensor> serial_weighted_sum(
    const std::vector<std::vector<std::byte>>& payloads,
    const std::vector<float>& weights) {
  std::vector<Tensor> sum;
  for (size_t i = 0; i < payloads.size(); ++i) {
    const std::vector<Tensor> up = models::deserialize_tensors(payloads[i]);
    if (sum.empty()) {
      for (const Tensor& t : up) sum.emplace_back(t.shape());
    }
    for (size_t t = 0; t < up.size(); ++t) {
      for (int64_t j = 0; j < up[t].numel(); ++j) {
        sum[t][j] += weights[i] * up[t][j];
      }
    }
  }
  return sum;
}

/// weighted_sum_into over serialized payloads, each parsed with
/// view_tensors first, as FederatedRun::average_into parses them.
void sum_payloads(const std::vector<std::vector<std::byte>>& payloads,
                  std::span<const float> weights, std::vector<Tensor>& out) {
  std::vector<std::vector<models::TensorView>> views;
  for (const std::vector<std::byte>& p : payloads) {
    views.push_back(models::view_tensors(p));
  }
  const std::vector<std::span<const models::TensorView>> ups(views.begin(),
                                                       views.end());
  models::weighted_sum_into(ups, weights, out);
}

bool same_bytes(const std::vector<Tensor>& a, const std::vector<Tensor>& b) {
  if (a.size() != b.size()) return false;
  for (size_t t = 0; t < a.size(); ++t) {
    if (!a[t].same_shape(b[t])) return false;
    // An empty tensor's data() may be null, which memcmp must not see.
    if (a[t].numel() > 0 &&
        std::memcmp(a[t].data(), b[t].data(),
                    static_cast<size_t>(a[t].numel()) * sizeof(float)) != 0) {
      return false;
    }
  }
  return true;
}

TEST(ParallelAggregate, BlockedSumEqualsSerialLoopPooledSerialAndInLanes) {
  Rng rng(29);
  std::vector<std::vector<std::byte>> payloads;
  std::vector<float> weights;
  for (int i = 0; i < 20; ++i) {
    payloads.push_back(models::serialize_tensors(aggregate_payload_tensors(rng)));
    // Far from summing to 1, with a zero weight on -0.0 values too.
    weights.push_back(i == 7 ? 0.0f
                             : static_cast<float>(rng.uniform(0.01, 0.4)));
  }
  const std::vector<Tensor> expected = serial_weighted_sum(payloads, weights);
  const auto sum_into_stale = [&] {
    std::vector<Tensor> out;
    for (const Tensor& t : expected) out.push_back(Tensor(t.shape(), 5.0f));
    sum_payloads(payloads, weights, out);
    return out;
  };

  std::vector<Tensor> fresh;
  sum_payloads(payloads, weights, fresh);
  EXPECT_TRUE(same_bytes(fresh, expected)) << "pooled, shapes from payload 0";
  EXPECT_TRUE(same_bytes(sum_into_stale(), expected)) << "pooled, in place";
  {
    ThreadPool::SerialRegion serial;
    EXPECT_TRUE(same_bytes(sum_into_stale(), expected)) << "SerialRegion";
  }
  // parallel_for_range always targets the global pool; inside a lane of an
  // injected pool it runs serially, with lanes summing concurrently.
  for (unsigned workers : {0u, 1u, 2u, 3u}) {
    ThreadPool pool(workers);
    RoundExecutor lanes(static_cast<int>(workers) + 1, &pool);
    const std::vector<double> ok =
        lanes.map(iota_clients(4), [&](int) {
          return same_bytes(sum_into_stale(), expected) ? 1.0 : 0.0;
        });
    for (double v : ok) EXPECT_EQ(v, 1.0) << workers << " worker(s)";
  }
}

TEST(ParallelAggregate, AverageIntoMatchesSerialLoopAndRejectsTheLastPayload) {
  core::Experiment exp(tiny_experiment_config());
  auto run = test::resident_run(exp);
  Rng rng(31);
  std::vector<int> clients;
  std::vector<std::vector<std::byte>> payloads;
  for (int i = 0; i < 20; ++i) {
    clients.push_back(i % run->num_clients());
    payloads.push_back(models::serialize_tensors(aggregate_payload_tensors(rng)));
  }
  std::vector<float> weights;
  for (double w : run->data_weights(clients)) {
    weights.push_back(static_cast<float>(w));
  }
  const std::vector<Tensor> expected = serial_weighted_sum(payloads, weights);
  std::vector<Tensor> global;
  run->average_into(global, clients, payloads);
  EXPECT_TRUE(same_bytes(global, expected)) << "C^1 form";
  run->average_into(global, clients, payloads);
  EXPECT_TRUE(same_bytes(global, expected)) << "in place";

  // A bad last payload throws before anything is written.
  std::vector<Tensor> kept;
  for (const Tensor& t : global) kept.push_back(t.clone());
  std::vector<Tensor> wrong_count = aggregate_payload_tensors(rng);
  wrong_count.pop_back();
  std::vector<Tensor> wrong_shape = aggregate_payload_tensors(rng);
  wrong_shape[4] = wrong_shape[4].reshape({5, 2});
  for (const std::vector<Tensor>& bad : {wrong_count, wrong_shape}) {
    std::vector<std::vector<std::byte>> with_bad = payloads;
    with_bad.back() = models::serialize_tensors(bad);
    EXPECT_THROW(run->average_into(global, clients, with_bad), Error);
    EXPECT_TRUE(same_bytes(global, kept)) << "a rejected payload wrote";
    std::vector<Tensor> none;
    EXPECT_THROW(run->average_into(none, clients, with_bad), Error);
    EXPECT_TRUE(none.empty());
  }
}

// ---------------------------------------------------------------------------
// End-to-end: parallel == serial, bit for bit, for every strategy

core::ExperimentConfig parallel_test_config(const std::string& strategy,
                                            int parallelism) {
  core::ExperimentConfig cfg = tiny_experiment_config();
  cfg.rounds = 6;
  cfg.client_parallelism = parallelism;
  if (strategy == "fedavg" || strategy == "fedprox") {
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
  if (name == "ktpfl") {
    return std::make_unique<fl::KTpFL>(experiment.public_data(),
                                       fl::KTpFLConfig{});
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

struct RunArtifacts {
  fl::RunResult result;
  /// Full serialized model state per client — the byte-identity witness.
  std::vector<std::vector<std::byte>> models;
};

RunArtifacts run_once(const std::string& strategy, int parallelism) {
  core::Experiment exp(parallel_test_config(strategy, parallelism));
  auto strat = make_strategy(strategy, exp);
  core::CompletedRun done = exp.execute(*strat);
  RunArtifacts a;
  a.result = std::move(done.result);
  for (int k = 0; k < done.run->num_clients(); ++k) {
    a.models.push_back(models::serialize_state(done.run->client(k).model()));
  }
  return a;
}

class ParallelDeterminism : public ::testing::TestWithParam<const char*> {};

TEST_P(ParallelDeterminism, ParallelRunMatchesSerialBitForBit) {
  const std::string strategy = GetParam();
  const RunArtifacts serial = run_once(strategy, 1);
  for (int parallelism : {2, 4}) {
    const RunArtifacts parallel = run_once(strategy, parallelism);
    expect_bit_identical(serial.result, parallel.result);
    ASSERT_EQ(parallel.models.size(), serial.models.size());
    for (size_t k = 0; k < serial.models.size(); ++k) {
      EXPECT_EQ(parallel.models[k], serial.models[k])
          << strategy << ": client " << k << " model bytes diverged at "
          << "client_parallelism=" << parallelism;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Strategies, ParallelDeterminism,
                         ::testing::Values("local", "fedavg", "fedprox",
                                           "fedproto", "ktpfl", "fedclassavg",
                                           "fedclassavg-proto"));

// ---------------------------------------------------------------------------
// Parallel run split across a checkpoint/resume boundary

TEST(ParallelDeterminism, CheckpointSplitParallelRunIsBitIdentical) {
  const std::string dir =
      testing::TempDir() + "fca_parallel_resume";
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);

  // Uninterrupted reference at client_parallelism=4.
  core::Experiment ref_exp(parallel_test_config("fedclassavg", 4));
  core::FedClassAvg ref_strat(ref_exp.fedclassavg_config());
  const core::CompletedRun reference = ref_exp.execute(ref_strat);

  // Phase 1: same experiment stopped at round 3, checkpointed.
  ckpt::Options opts;
  opts.dir = dir;
  opts.every = 3;
  core::ExperimentConfig half_cfg = parallel_test_config("fedclassavg", 4);
  half_cfg.rounds = 3;
  core::Experiment half_exp(half_cfg);
  core::FedClassAvg half_strat(half_exp.fedclassavg_config());
  half_exp.execute(half_strat, opts);

  // Phase 2: fresh process state, resume in parallel to round 6.
  core::Experiment rest_exp(parallel_test_config("fedclassavg", 4));
  core::FedClassAvg rest_strat(rest_exp.fedclassavg_config());
  const core::CompletedRun resumed = rest_exp.resume(rest_strat, opts);

  expect_bit_identical(reference.result, resumed.result);

  // The serial sweep agrees too, closing the triangle
  // (serial == parallel == parallel-resumed).
  const RunArtifacts serial = run_once("fedclassavg", 1);
  expect_bit_identical(serial.result, resumed.result);
}

// The determinism contract holds per kernel selection: for each GEMM
// implementation (including the packed register-tiled default), a serial run
// and a 4-lane run must produce byte-identical results and model state. This
// is the FL-level witness that the packed kernel's row-block partitioning
// really is scheduling-free.
TEST(ParallelDeterminism, EveryGemmKernelIsParallelismInvariant) {
  for (GemmKernel kern : {GemmKernel::kNaive, GemmKernel::kPacked}) {
    ScopedGemmKernel guard(kern);
    const RunArtifacts serial = run_once("fedclassavg", 1);
    const RunArtifacts parallel = run_once("fedclassavg", 4);
    expect_bit_identical(serial.result, parallel.result);
    ASSERT_EQ(parallel.models.size(), serial.models.size());
    for (size_t k = 0; k < serial.models.size(); ++k) {
      EXPECT_EQ(parallel.models[k], serial.models[k])
          << gemm_kernel_name(kern) << ": client " << k
          << " model bytes diverged";
    }
  }
}

// Auto parallelism (0 = one lane per hardware worker + caller) is covered
// separately: the lane count depends on the host, the bits must not.
TEST(ParallelDeterminism, AutoParallelismMatchesSerial) {
  const RunArtifacts serial = run_once("fedclassavg", 1);
  const RunArtifacts automatic = run_once("fedclassavg", 0);
  expect_bit_identical(serial.result, automatic.result);
  for (size_t k = 0; k < serial.models.size(); ++k) {
    EXPECT_EQ(automatic.models[k], serial.models[k]) << "client " << k;
  }
}

}  // namespace
}  // namespace fca
