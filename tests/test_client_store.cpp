// Paging-determinism tier (DESIGN.md §13): a run that pages idle clients to
// disk under a --max-resident-clients budget must be byte-identical to the
// historical all-resident run — for every strategy, at any client
// parallelism, and under adversarial access patterns. Also the ClientStore
// unit contracts: LRU budget enforcement, eviction/restore round-trips,
// lazy-init bootstrap equivalence, typed corruption and write errors, and
// paging from concurrent lanes with the store lock held only for
// bookkeeping.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <functional>
#include <future>
#include <map>
#include <random>
#include <thread>
#include <vector>

#include "core/fedclassavg.hpp"
#include "core/fedclassavg_proto.hpp"
#include "fl_fixtures.hpp"
#include "fl/client_state.hpp"
#include "fl/client_store.hpp"
#include "fl/fedavg.hpp"
#include "fl/fedprox.hpp"
#include "fl/fedproto.hpp"
#include "fl/ktpfl.hpp"
#include "fl/local_only.hpp"
#include "utils/atomic_io.hpp"

namespace fca {
namespace {

using test::expect_bit_identical;
using test::expect_curve_identical;
using test::tiny_experiment_config;

// Strategy under test: name + the model scheme it needs + a factory.
struct StrategyCase {
  const char* name;
  core::ModelScheme models;
  std::unique_ptr<fl::RoundStrategy> (*make)(const core::Experiment&);
};

std::vector<StrategyCase> all_strategies() {
  return {
      {"local", core::ModelScheme::kHeterogeneous,
       [](const core::Experiment&) -> std::unique_ptr<fl::RoundStrategy> {
         return std::make_unique<fl::LocalOnly>();
       }},
      {"fedavg", core::ModelScheme::kHomogeneousResNet,
       [](const core::Experiment&) -> std::unique_ptr<fl::RoundStrategy> {
         return std::make_unique<fl::FedAvg>();
       }},
      {"fedprox", core::ModelScheme::kHomogeneousResNet,
       [](const core::Experiment&) -> std::unique_ptr<fl::RoundStrategy> {
         return std::make_unique<fl::FedProx>(0.1f);
       }},
      {"fedproto", core::ModelScheme::kFedProtoFamily,
       [](const core::Experiment& e) -> std::unique_ptr<fl::RoundStrategy> {
         (void)e;
         return std::make_unique<fl::FedProto>();
       }},
      {"ktpfl", core::ModelScheme::kHeterogeneous,
       [](const core::Experiment& e) -> std::unique_ptr<fl::RoundStrategy> {
         return std::make_unique<fl::KTpFL>(e.public_data(),
                                            fl::KTpFLConfig{});
       }},
      {"fedclassavg", core::ModelScheme::kHeterogeneous,
       [](const core::Experiment& e) -> std::unique_ptr<fl::RoundStrategy> {
         return std::make_unique<core::FedClassAvg>(e.fedclassavg_config());
       }},
      {"fedclassavg-proto", core::ModelScheme::kHeterogeneous,
       [](const core::Experiment& e) -> std::unique_ptr<fl::RoundStrategy> {
         core::FedClassAvgProtoConfig cfg;
         cfg.base = e.fedclassavg_config();
         return std::make_unique<core::FedClassAvgProto>(cfg);
       }},
  };
}

// 6 clients with partial participation: selection varies per round, so
// clients genuinely leave and re-enter the resident set across rounds.
core::ExperimentConfig paging_config(core::ModelScheme models,
                                     int parallelism) {
  core::ExperimentConfig cfg = tiny_experiment_config(6);
  cfg.models = models;
  cfg.sample_rate = 0.5;
  cfg.rounds = 3;
  cfg.client_parallelism = parallelism;
  return cfg;
}

void expect_paged_matches_resident(const StrategyCase& sc, int parallelism) {
  SCOPED_TRACE(std::string(sc.name) + " parallelism=" +
               std::to_string(parallelism));
  core::ExperimentConfig cfg = paging_config(sc.models, parallelism);
  core::Experiment exp(cfg);
  auto reference = sc.make(exp);
  const auto all_resident = exp.execute(*reference);

  // Tightest budget the driver accepts: lanes + 1 (serial -> 2, but keep a
  // floor that still forces evictions with 6 clients).
  cfg.max_resident_clients = std::max(parallelism, 1) + 1;
  core::Experiment paged_exp(cfg);
  auto paged_strategy = sc.make(paged_exp);
  const auto paged = paged_exp.execute(*paged_strategy);

  expect_bit_identical(all_resident.result, paged.result);
  const fl::ClientStoreStats stats = paged.run->store().stats();
  EXPECT_LE(stats.peak_resident, cfg.max_resident_clients);
  EXPECT_GT(stats.page_writes, 0u) << "budget never forced a dirty eviction";
}

TEST(PagingDeterminism, PagedMatchesResidentSerial) {
  for (const StrategyCase& sc : all_strategies()) {
    expect_paged_matches_resident(sc, 1);
  }
}

TEST(PagingDeterminism, PagedMatchesResidentParallel2) {
  for (const StrategyCase& sc : all_strategies()) {
    expect_paged_matches_resident(sc, 2);
  }
}

TEST(PagingDeterminism, PagedMatchesResidentParallel4) {
  for (const StrategyCase& sc : all_strategies()) {
    expect_paged_matches_resident(sc, 4);
  }
}

TEST(PagingDeterminism, PagedParallelMatchesPagedSerial) {
  // Paging + parallelism together: the budget's eviction order depends on
  // completion order, but the curve must not.
  core::ExperimentConfig cfg =
      paging_config(core::ModelScheme::kHeterogeneous, 1);
  cfg.max_resident_clients = 5;
  core::Experiment serial_exp(cfg);
  core::FedClassAvg serial_strategy(serial_exp.fedclassavg_config());
  const auto serial = serial_exp.execute(serial_strategy);

  cfg.client_parallelism = 4;
  core::Experiment par_exp(cfg);
  core::FedClassAvg par_strategy(par_exp.fedclassavg_config());
  const auto parallel = par_exp.execute(par_strategy);
  expect_bit_identical(serial.result, parallel.result);
}

// -- lazy initialization -----------------------------------------------------

TEST(LazyInit, CurveMatchesEagerInit) {
  // Lazy init skips the all-population init sweep; the curve must still be
  // bit-identical (round_bytes watermarks exclude init traffic), while
  // total_traffic shrinks for strategies whose init broadcasts messages.
  for (const StrategyCase& sc : all_strategies()) {
    SCOPED_TRACE(sc.name);
    core::ExperimentConfig cfg = paging_config(sc.models, 2);
    core::Experiment eager_exp(cfg);
    auto eager_strategy = sc.make(eager_exp);
    const auto eager = eager_exp.execute(*eager_strategy);

    cfg.lazy_init = true;
    cfg.max_resident_clients = 4;
    core::Experiment lazy_exp(cfg);
    auto lazy_strategy = sc.make(lazy_exp);
    const auto lazy = lazy_exp.execute(*lazy_strategy);

    expect_curve_identical(eager.result, lazy.result);
    EXPECT_LE(lazy.result.total_traffic.payload_bytes,
              eager.result.total_traffic.payload_bytes);
  }
}

TEST(LazyInit, UnsupportedStrategyIsRejected) {
  // A strategy that never opted into the lazy contract must be rejected up
  // front instead of silently skipping its init sweep.
  struct EagerOnly : fl::RoundStrategy {
    std::string name() const override { return "EagerOnly"; }
    float execute_round(fl::FederatedRun&, int,
                        const std::vector<int>&) override {
      return 0.0f;
    }
  } eager_only;
  core::ExperimentConfig cfg =
      paging_config(core::ModelScheme::kHeterogeneous, 1);
  cfg.lazy_init = true;
  core::Experiment exp(cfg);
  EXPECT_THROW((void)exp.execute(eager_only), Error);
}

// -- ClientStore unit contracts ----------------------------------------------

// A paged factory store over the tiny experiment's population. The
// optional `before_build` hook runs inside the factory, on the lane that
// materializes the client.
struct StoreFixture {
  explicit StoreFixture(int population, int max_resident,
                        std::function<void(int)> before_build = nullptr)
      : exp(tiny_experiment_config(population)),
        before_build_(std::move(before_build)) {
    static int next_dir = 0;
    fl::ClientStoreOptions opts;
    opts.max_resident = max_resident;
    opts.page_dir =
        testing::TempDir() + "fca_store_fixture_" + std::to_string(next_dir++);
    page_dir = opts.page_dir;
    // Names repeat across processes: clear whatever an earlier (possibly
    // failed) run left at this path.
    std::filesystem::remove_all(page_dir);
    std::vector<int64_t> sizes;
    for (int k = 0; k < population; ++k) {
      sizes.push_back(static_cast<int64_t>(
          exp.partition().client_indices[static_cast<size_t>(k)].size()));
    }
    store = std::make_unique<fl::ClientStore>(
        population,
        [this](int k) {
          if (before_build_) before_build_(k);
          return exp.build_client(k);
        },
        std::move(sizes), opts);
  }

  core::Experiment exp;
  std::string page_dir;
  std::unique_ptr<fl::ClientStore> store;

 private:
  std::function<void(int)> before_build_;
};

TEST(ClientStore, LruBudgetIsNeverExceeded) {
  constexpr int kPopulation = 10;
  constexpr int kBudget = 3;
  StoreFixture f(kPopulation, kBudget);
  std::mt19937 order(7);
  for (int i = 0; i < 200; ++i) {
    const int k = static_cast<int>(order() % kPopulation);
    const fl::ClientStore::Lease lease = f.store->lease(k, (i % 3) == 0);
    ASSERT_LE(f.store->resident_count(), kBudget);
  }
  const fl::ClientStoreStats stats = f.store->stats();
  EXPECT_LE(stats.peak_resident, kBudget);
  EXPECT_GT(stats.page_writes, 0u);
  EXPECT_GT(stats.clean_drops, 0u);
  EXPECT_GT(stats.page_loads, 0u);
}

TEST(ClientStore, EvictionRestoreRoundTripsAreByteIdentical) {
  // Random access pattern with state mutation between visits: every
  // revisit must see exactly the bytes the client held when last released,
  // no matter how many evictions/restores happened in between.
  constexpr int kPopulation = 8;
  StoreFixture f(kPopulation, 3);
  std::map<int, std::vector<std::byte>> expected;
  std::mt19937 order(21);
  for (int i = 0; i < 120; ++i) {
    const int k = static_cast<int>(order() % kPopulation);
    const fl::ClientStore::Lease lease = f.store->lease(k, true);
    const auto it = expected.find(k);
    if (it != expected.end()) {
      EXPECT_EQ(fl::encode_client_state(*lease), it->second)
          << "client " << k << " diverged after paging, access " << i;
    }
    // Mutate: advance the client's RNG stream so each visit's snapshot is
    // distinct — a stale page or premature re-derivation cannot pass.
    (void)lease->rng().next_u64();
    expected[k] = fl::encode_client_state(*lease);
  }
  // Force everything out and walk it back in one more time.
  f.store->evict_idle();
  EXPECT_EQ(f.store->resident_count(), 0);
  for (const auto& [k, bytes] : expected) {
    EXPECT_EQ(fl::encode_client_state(f.store->touch(k, false)), bytes);
  }
}

TEST(ClientStore, ReadOnlyRevisitOfPagedClientIsDroppedNotRewritten) {
  // A dirty client reloaded from its page and only read since (evaluating
  // the eval prefix) still equals that page: evicting it again must drop
  // it, and only a later dirty lease makes the next eviction write.
  StoreFixture f(4, 2);
  {
    const fl::ClientStore::Lease lease = f.store->lease(0, true);
    (void)lease->rng().next_u64();
  }
  f.store->evict_idle();
  const std::vector<std::byte> paged = f.store->serialized_state(0);
  fl::ClientStoreStats before = f.store->stats();
  ASSERT_EQ(before.page_writes, 1u);

  (void)f.store->lease(0, false);
  f.store->evict_idle();
  fl::ClientStoreStats after = f.store->stats();
  EXPECT_EQ(after.page_loads, before.page_loads + 1);
  EXPECT_EQ(after.page_writes, before.page_writes)
      << "an unchanged client was rewritten";
  EXPECT_EQ(after.clean_drops, before.clean_drops + 1);
  EXPECT_EQ(f.store->serialized_state(0), paged);

  before = after;
  {
    const fl::ClientStore::Lease lease = f.store->lease(0, true);
    (void)lease->rng().next_u64();
  }
  f.store->evict_idle();
  after = f.store->stats();
  EXPECT_EQ(after.page_writes, before.page_writes + 1)
      << "a client mutated after its load was dropped";
  EXPECT_NE(f.store->serialized_state(0), paged);
}

TEST(ClientStore, FailedPageWriteKeepsTheVictimResident) {
  // The page directory turns into a plain file mid-run (unwritable even for
  // root): the eviction's write fails, the lease that needed the room throws
  // a typed error, and the victim stays resident, leasable and unchanged.
  StoreFixture f(4, 2);
  std::vector<std::byte> expected;
  {
    const fl::ClientStore::Lease lease = f.store->lease(0, true);
    (void)lease->rng().next_u64();
    expected = fl::encode_client_state(*lease);
  }
  (void)f.store->touch(1, false);
  std::filesystem::remove_all(f.page_dir);
  std::ofstream(f.page_dir) << "not a directory";

  try {
    (void)f.store->lease(2, false);
    FAIL() << "eviction into an unwritable page directory succeeded";
  } catch (const fl::PageError& e) {
    EXPECT_EQ(e.client_id(), 0);
    EXPECT_EQ(e.path(), f.store->page_path(0));
  }
  EXPECT_TRUE(f.store->resident(0));
  EXPECT_FALSE(f.store->resident(2));
  EXPECT_LE(f.store->resident_count(), 2);
  EXPECT_EQ(f.store->stats().page_writes, 0u);
  EXPECT_EQ(fl::encode_client_state(*f.store->lease(0, false)), expected);

  // Once the directory is back, the same eviction goes through.
  std::filesystem::remove(f.page_dir);
  std::filesystem::create_directories(f.page_dir);
  (void)f.store->touch(1, false);
  (void)f.store->lease(2, false);
  EXPECT_FALSE(f.store->resident(0));
  EXPECT_EQ(f.store->stats().page_writes, 1u);
  EXPECT_EQ(fl::encode_client_state(f.store->touch(0, false)), expected);
  EXPECT_LE(f.store->stats().peak_resident, 2);
}

TEST(ClientStore, CleanClientsAreDroppedNotPaged) {
  StoreFixture f(6, 2);
  for (int k = 0; k < 6; ++k) (void)f.store->touch(k, false);
  const fl::ClientStoreStats stats = f.store->stats();
  EXPECT_EQ(stats.page_writes, 0u);
  EXPECT_GE(stats.clean_drops, 4u);
}

TEST(ClientStore, CorruptedPageSurfacesTypedError) {
  StoreFixture f(4, 2);
  // Dirty client 0, then force it out so a page file exists.
  (void)f.store->lease(0, true);
  (void)f.store->touch(1, true);
  (void)f.store->touch(2, true);
  EXPECT_FALSE(f.store->resident(0));
  const std::string path = f.store->page_path(0);
  {
    std::fstream file(path, std::ios::in | std::ios::out | std::ios::binary);
    ASSERT_TRUE(file.good()) << path;
    file.seekp(64);  // past the header, inside a section payload
    char flipped;
    file.seekg(64);
    file.read(&flipped, 1);
    flipped = static_cast<char>(flipped ^ 0x5a);
    file.seekp(64);
    file.write(&flipped, 1);
  }
  try {
    (void)f.store->touch(0, false);
    FAIL() << "corrupted page was accepted";
  } catch (const fl::PageError& e) {
    EXPECT_EQ(e.client_id(), 0);
    EXPECT_EQ(e.path(), path);
  }
}

TEST(ClientStore, WrappingSectionLengthSurfacesPageError) {
  StoreFixture f(4, 2);
  (void)f.store->lease(0, true);
  (void)f.store->touch(1, true);
  (void)f.store->touch(2, true);
  ASSERT_FALSE(f.store->resident(0));
  const std::string path = f.store->page_path(0);
  atomic_write_file(path, std::string_view(test::wrapping_section_container()));
  try {
    (void)f.store->touch(0, false);
    FAIL() << "page with a wrapping section length was accepted";
  } catch (const fl::PageError& e) {
    EXPECT_EQ(e.client_id(), 0);
    EXPECT_EQ(e.path(), path);
  }
}

TEST(ClientStore, BudgetExhaustionNamesTheFlag) {
  StoreFixture f(6, 2);
  const fl::ClientStore::Lease a = f.store->lease(0, true);
  const fl::ClientStore::Lease b = f.store->lease(1, true);
  try {
    (void)f.store->lease(2, true);
    FAIL() << "over-budget lease was granted";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("--max-resident-clients"),
              std::string::npos)
        << e.what();
  }
}

TEST(ClientStore, ResidentBudgetEnvIsParsedStrictly) {
  // FCA_MAX_RESIDENT_CLIENTS must be a plain non-negative decimal: a typo
  // must not silently disable paging or pick a different budget.
  struct EnvGuard {
    ~EnvGuard() { unsetenv("FCA_MAX_RESIDENT_CLIENTS"); }
  } guard;
  core::Experiment exp(tiny_experiment_config(6));
  for (const char* bad : {"abc", "24x", "-3", " 4", "+4", "4.0",
                          "99999999999999999999"}) {
    SCOPED_TRACE(bad);
    setenv("FCA_MAX_RESIDENT_CLIENTS", bad, 1);
    try {
      (void)exp.build_store();
      FAIL() << "accepted FCA_MAX_RESIDENT_CLIENTS=" << bad;
    } catch (const core::EnvError& e) {
      EXPECT_EQ(e.variable(), "FCA_MAX_RESIDENT_CLIENTS");
      EXPECT_NE(std::string(e.what()).find("FCA_MAX_RESIDENT_CLIENTS"),
                std::string::npos)
          << e.what();
    }
  }
  setenv("FCA_MAX_RESIDENT_CLIENTS", "3", 1);
  EXPECT_EQ(exp.build_store()->max_resident(), 3);
  setenv("FCA_MAX_RESIDENT_CLIENTS", "0", 1);
  EXPECT_FALSE(exp.build_store()->paged());
}

TEST(ClientStore, DirtySetDrivesCheckpointClients) {
  StoreFixture f(6, 3);
  (void)f.store->touch(4, true);
  (void)f.store->touch(1, true);
  (void)f.store->touch(2, false);
  const std::vector<int> recorded = f.store->checkpoint_clients();
  EXPECT_EQ(recorded, (std::vector<int>{1, 4}));
}

// -- concurrent paging ---------------------------------------------------------

TEST(ClientStoreConcurrency, BlockedFactoryDoesNotBlockResidentLeases) {
  // Factory builds run off the store lock: while one lane is stuck building
  // client 2, another lane's lease of resident client 0 must go through.
  constexpr int kSlow = 2;
  std::promise<void> entered;
  std::promise<void> gate;
  const std::shared_future<void> open = gate.get_future().share();
  StoreFixture f(4, 3, [&](int k) {
    if (k == kSlow) {
      entered.set_value();
      open.wait();
    }
  });
  (void)f.store->lease(0, true);
  auto slow = std::async(std::launch::async,
                         [&] { return f.store->lease(kSlow, false)->id(); });
  entered.get_future().wait();
  auto fast = std::async(std::launch::async,
                         [&] { return f.store->lease(0, false)->id(); });
  const bool fast_done =
      fast.wait_for(std::chrono::seconds(10)) == std::future_status::ready;
  gate.set_value();
  EXPECT_TRUE(fast_done)
      << "a lease of a resident client waited for another client's factory";
  EXPECT_EQ(fast.get(), 0);
  EXPECT_EQ(slow.get(), kSlow);
}

TEST(ClientStoreConcurrency, ParallelEvictionRestoreRoundTripsAreByteIdentical) {
  // EvictionRestoreRoundTripsAreByteIdentical on four lanes at the tightest
  // budget FederatedRun accepts (lanes + 1). Each lane owns a disjoint set of
  // clients (two lanes never mutate one client), but all of them compete
  // for the same slots, so loads, page-outs and factory builds interleave.
  constexpr int kLanes = 4;
  constexpr int kPopulation = 16;
  constexpr int kBudget = kLanes + 1;
  StoreFixture f(kPopulation, kBudget);
  std::vector<std::map<int, std::vector<std::byte>>> expected(kLanes);
  std::vector<std::thread> lanes;
  std::atomic<int> failures{0};
  for (int lane = 0; lane < kLanes; ++lane) {
    lanes.emplace_back([&, lane] {
      std::mt19937 order(static_cast<unsigned>(31 + lane));
      auto& mine = expected[static_cast<size_t>(lane)];
      for (int i = 0; i < 60; ++i) {
        const int k =
            lane + kLanes * static_cast<int>(order() % (kPopulation / kLanes));
        const fl::ClientStore::Lease lease = f.store->lease(k, true);
        const auto it = mine.find(k);
        if (it != mine.end() && fl::encode_client_state(*lease) != it->second) {
          ++failures;
        }
        (void)lease->rng().next_u64();
        mine[k] = fl::encode_client_state(*lease);
        if (f.store->resident_count() > kBudget) ++failures;
      }
    });
  }
  for (std::thread& t : lanes) t.join();
  EXPECT_EQ(failures.load(), 0) << "a client diverged or the budget broke";
  const fl::ClientStoreStats stats = f.store->stats();
  EXPECT_LE(stats.peak_resident, kBudget);
  EXPECT_GT(stats.page_writes, 0u);
  EXPECT_GT(stats.page_loads, 0u);
  f.store->evict_idle();
  EXPECT_EQ(f.store->resident_count(), 0);
  for (const auto& mine : expected) {
    for (const auto& [k, bytes] : mine) {
      EXPECT_EQ(fl::encode_client_state(f.store->touch(k, false)), bytes)
          << "client " << k;
    }
  }
}

}  // namespace
}  // namespace fca
