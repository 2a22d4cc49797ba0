// Shared fixtures for FL-level tests: tiny experiments sized to run in
// (fractions of) seconds on one core, plus the bit-identity assertion the
// checkpoint and concurrency suites both build on.
#pragma once

#include <gtest/gtest.h>

#include <algorithm>
#include <string>

#include "ckpt/format.hpp"
#include "core/trainer.hpp"

namespace fca::test {

/// A minimal but non-degenerate experiment: `num_clients` clients (default
/// 4), fmnist-like data, 8x8 images, tiny models. The synthetic data is
/// scaled with the population so every client's shard stays non-empty: the
/// Dirichlet partition needs at least a few samples per client on average,
/// so train_per_class grows linearly once the population outgrows the
/// 4-client default. That lets the strategy / fault / paging suites run
/// >= 1k-client smokes off the same fixture without duplicating it.
inline core::ExperimentConfig tiny_experiment_config(int num_clients = 4) {
  core::ExperimentConfig cfg;
  cfg.dataset = "synth-fmnist";
  cfg.num_clients = num_clients;
  cfg.train_per_class = std::max(12, 3 * num_clients);
  cfg.test_per_class = 6;
  cfg.public_per_class = 2;
  cfg.test_per_client = 12;
  cfg.image_size = 8;
  cfg.feature_dim = 16;
  cfg.width = 8;
  cfg.batch_size = 8;
  cfg.lr = 3e-3f;
  cfg.rounds = 2;
  cfg.local_epochs = 1;
  cfg.seed = 123;
  return cfg;
}

/// The 46 bytes of a container whose one section ("meta") claims 2^64 - 31
/// payload bytes: its payload offset (36) plus that length wraps to 5,
/// inside the file, so only a check against the bytes left rejects it.
inline std::string wrapping_section_container() {
  std::string f("FCACKPT", 8);  // the magic, with its terminating NUL
  const auto put = [&f](uint64_t v, int bytes) {
    for (int i = 0; i < bytes; ++i) {
      f.push_back(static_cast<char>(v >> (8 * i)));
    }
  };
  put(ckpt::kFormatVersion, 4);
  put(1, 4);  // section count
  put(4, 4);
  f += "meta";
  put(~uint64_t{0} - 30, 8);  // payload length 2^64 - 31
  put(0, 4);                  // CRC
  f.append(10, '\0');
  return f;
}

/// A run over `exp`'s freshly built clients in an all-resident store.
inline std::unique_ptr<fl::FederatedRun> resident_run(
    const core::Experiment& exp) {
  return std::make_unique<fl::FederatedRun>(
      std::make_unique<fl::ClientStore>(exp.build_clients()), exp.fl_config());
}

/// Curve-only bit-identity: every curve row must match, but the traffic
/// totals may differ. This is the contract lazy init makes: round_bytes
/// watermarks are taken after initialize(), so the curve is identical to an
/// eager run while total_traffic omits the skipped init broadcasts.
inline void expect_curve_identical(const fl::RunResult& a,
                                   const fl::RunResult& b) {
  ASSERT_EQ(a.curve.size(), b.curve.size());
  for (size_t i = 0; i < a.curve.size(); ++i) {
    EXPECT_EQ(a.curve[i].round, b.curve[i].round);
    EXPECT_DOUBLE_EQ(a.curve[i].mean_accuracy, b.curve[i].mean_accuracy)
        << "round " << a.curve[i].round;
    EXPECT_DOUBLE_EQ(a.curve[i].std_accuracy, b.curve[i].std_accuracy);
    EXPECT_DOUBLE_EQ(a.curve[i].mean_train_loss, b.curve[i].mean_train_loss)
        << "round " << a.curve[i].round;
    EXPECT_EQ(a.curve[i].round_bytes, b.curve[i].round_bytes)
        << "round " << a.curve[i].round;
    EXPECT_EQ(a.curve[i].selected_count, b.curve[i].selected_count);
    EXPECT_EQ(a.curve[i].survivor_count, b.curve[i].survivor_count)
        << "round " << a.curve[i].round;
    EXPECT_EQ(a.curve[i].fault_events, b.curve[i].fault_events)
        << "round " << a.curve[i].round;
    EXPECT_EQ(a.curve[i].real_fault_events, b.curve[i].real_fault_events)
        << "round " << a.curve[i].round;
    ASSERT_EQ(a.curve[i].client_accuracies.size(),
              b.curve[i].client_accuracies.size());
    for (size_t k = 0; k < a.curve[i].client_accuracies.size(); ++k) {
      EXPECT_DOUBLE_EQ(a.curve[i].client_accuracies[k],
                       b.curve[i].client_accuracies[k]);
    }
  }
  EXPECT_DOUBLE_EQ(a.final_mean_accuracy, b.final_mean_accuracy);
  EXPECT_DOUBLE_EQ(a.final_std_accuracy, b.final_std_accuracy);
}

/// Asserts two finished runs match bit for bit: every curve entry, the
/// per-round traffic, the totals (including simulated transfer time) and the
/// final summary statistics. Used to prove checkpoint-resume and parallel
/// client execution change nothing about the numbers.
inline void expect_bit_identical(const fl::RunResult& a,
                                 const fl::RunResult& b) {
  expect_curve_identical(a, b);
  EXPECT_EQ(a.total_traffic.payload_bytes, b.total_traffic.payload_bytes);
  EXPECT_EQ(a.total_traffic.messages, b.total_traffic.messages);
  EXPECT_DOUBLE_EQ(a.total_traffic.sim_seconds, b.total_traffic.sim_seconds);
  EXPECT_TRUE(a.total_faults == b.total_faults)
      << "FaultStats diverged: dropped " << a.total_faults.dropped_messages
      << " vs " << b.total_faults.dropped_messages << ", delayed "
      << a.total_faults.delayed_messages << " vs "
      << b.total_faults.delayed_messages << ", misses "
      << a.total_faults.deadline_misses << " vs "
      << b.total_faults.deadline_misses << ", crashed "
      << a.total_faults.crashed_client_rounds << " vs "
      << b.total_faults.crashed_client_rounds;
}

}  // namespace fca::test
