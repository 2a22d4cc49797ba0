#include "fl/metrics.hpp"

#include <gtest/gtest.h>

#include <memory>

#include "comm/fault.hpp"
#include "core/fedclassavg.hpp"
#include "core/fedclassavg_proto.hpp"
#include "core/trainer.hpp"
#include "fl/fedavg.hpp"
#include "fl/fedprox.hpp"
#include "fl/fedproto.hpp"
#include "fl/ktpfl.hpp"
#include "fl/local_only.hpp"
#include "fl_fixtures.hpp"

// Learning-curve CSV schema and the fault columns (fl/metrics)

namespace fca {
namespace {

TEST(CurveCsvSchema, ColumnsAndRowCellsAreStable) {
  const std::vector<std::string> expected = {
      "round",       "local_epochs", "mean_acc",  "std_acc",
      "round_bytes", "selected",     "survivors", "fault_events",
      "real_faults"};
  EXPECT_EQ(fl::curve_csv_columns(), expected);

  fl::RoundMetrics m;
  m.round = 7;
  m.cumulative_local_epochs = 14;
  m.mean_accuracy = 0.5;
  m.std_accuracy = 0.25;
  m.round_bytes = 1024;
  m.selected_count = 4;
  m.survivor_count = 3;
  m.fault_events = 2;
  m.real_fault_events = 1;
  const std::vector<std::string> row = fl::curve_csv_row(m);
  ASSERT_EQ(row.size(), expected.size()) << "row arity must match header";
  EXPECT_EQ(row[0], "7");
  EXPECT_EQ(row[1], "14");
  EXPECT_EQ(row[2], "0.500000");
  EXPECT_EQ(row[3], "0.250000");
  EXPECT_EQ(row[4], "1024");
  EXPECT_EQ(row[5], "4");
  EXPECT_EQ(row[6], "3");
  EXPECT_EQ(row[7], "2");
  EXPECT_EQ(row[8], "1");
}

/// Tiny run with one scheduled outage: client rank 2 is down in round 2 and
/// rejoins in round 3.
core::ExperimentConfig crashy_config(const std::string& strategy) {
  core::ExperimentConfig cfg = test::tiny_experiment_config();
  cfg.rounds = 3;
  cfg.faults.crash_schedule = comm::parse_crash_schedule("2@2");
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

class CurveFaultColumns : public ::testing::TestWithParam<const char*> {};

TEST_P(CurveFaultColumns, GoldenSelectedSurvivorAndFaultValues) {
  const std::string name = GetParam();
  core::Experiment exp(crashy_config(name));
  auto strat = make_strategy(name, exp);
  const core::CompletedRun done = exp.execute(*strat);

  // Golden values for the "2@2" schedule: all 4 clients sampled every
  // round; round 2 loses exactly the crashed client (one crashed
  // client-round, the only injected fault event); the rejoin in round 3 is
  // counted in the totals but is not a fault event.
  const auto& curve = done.result.curve;
  ASSERT_EQ(curve.size(), 3u);
  const int expected_survivors[] = {4, 3, 4};
  const uint64_t expected_faults[] = {0, 1, 0};
  for (size_t i = 0; i < curve.size(); ++i) {
    EXPECT_EQ(curve[i].round, static_cast<int>(i) + 1);
    EXPECT_EQ(curve[i].selected_count, 4) << name << " round " << i + 1;
    EXPECT_EQ(curve[i].survivor_count, expected_survivors[i])
        << name << " round " << i + 1;
    EXPECT_EQ(curve[i].fault_events, expected_faults[i])
        << name << " round " << i + 1;
    // The same values as rendered into the shared CSV schema.
    const std::vector<std::string> row = fl::curve_csv_row(curve[i]);
    EXPECT_EQ(row[5], "4");
    EXPECT_EQ(row[6], std::to_string(expected_survivors[i]));
    EXPECT_EQ(row[7], std::to_string(expected_faults[i]));
  }
  EXPECT_EQ(done.result.total_faults.crashed_client_rounds, 1u) << name;
  EXPECT_EQ(done.result.total_faults.rejoins, 1u) << name;
  EXPECT_EQ(done.result.total_faults.dropped_messages, 0u) << name;
  EXPECT_EQ(done.result.total_faults.aborted_rounds, 0u) << name;
}

INSTANTIATE_TEST_SUITE_P(Strategies, CurveFaultColumns,
                         ::testing::Values("local", "fedavg", "fedprox",
                                           "fedproto", "ktpfl", "fedclassavg",
                                           "fedclassavg-proto"));

}  // namespace
}  // namespace fca
