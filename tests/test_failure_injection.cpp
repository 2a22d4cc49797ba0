// Failure-injection and edge-condition tests: corrupted wire payloads,
// degenerate client data (single class, fewer samples than a batch),
// extreme layer geometries, protocol misuse, and mid-round crash recovery
// through the checkpoint subsystem.
#include <gtest/gtest.h>

#include <cmath>
#include <filesystem>
#include <memory>
#include <string>

#include "ckpt/checkpoint.hpp"
#include "comm/fault.hpp"
#include "core/fedclassavg.hpp"
#include "core/fedclassavg_proto.hpp"
#include "fl_fixtures.hpp"
#include "fl/fedavg.hpp"
#include "fl/fedproto.hpp"
#include "fl/ktpfl.hpp"
#include "fl/local_only.hpp"
#include "models/serialize.hpp"
#include "nn/conv.hpp"
#include "nn/norm.hpp"
#include "tensor/ops.hpp"
#include "utils/error.hpp"

namespace fca {
namespace {

using test::tiny_experiment_config;

TEST(FailureInjection, CorruptedPayloadRejectedOnDeserialize) {
  Rng rng(1);
  std::vector<Tensor> tensors{Tensor::randn({4, 4}, rng)};
  auto bytes = models::serialize_tensors(tensors);
  // Flip the tensor-count header to a huge value.
  bytes[0] = std::byte{0xFF};
  bytes[1] = std::byte{0xFF};
  EXPECT_THROW(models::deserialize_tensors(bytes), Error);
}

TEST(FailureInjection, TruncatedMidTensorRejected) {
  Rng rng(2);
  std::vector<Tensor> tensors{Tensor::randn({64}, rng),
                              Tensor::randn({64}, rng)};
  auto bytes = models::serialize_tensors(tensors);
  bytes.resize(bytes.size() / 2);
  EXPECT_THROW(models::deserialize_tensors(bytes), Error);
}

TEST(FailureInjection, SingleClassClientStillTrains) {
  // A client holding exactly one class: CE trivially satisfiable, SupCon
  // has no negatives across classes — everything must stay finite.
  core::ExperimentConfig cfg = tiny_experiment_config();
  cfg.partition = core::PartitionScheme::kSkewed;
  cfg.classes_per_client = 1;
  cfg.num_clients = 10;  // 10 clients x 1 class = full coverage
  core::Experiment exp(cfg);
  auto clients = exp.build_clients();
  core::FedClassAvg strat(exp.fedclassavg_config());
  fl::Client& c = *clients[0];
  const Tensor gw = c.model().classifier().weight().value.clone();
  const Tensor gb = c.model().classifier().bias().value.clone();
  const float loss = strat.train_epoch(c, gw, gb);
  EXPECT_TRUE(std::isfinite(loss));
  // All labels equal -> the SupCon denominator mask still works and the
  // model fits the single class quickly.
  float acc = 0.0f;
  for (int e = 0; e < 5; ++e) strat.train_epoch(c, gw, gb);
  acc = c.evaluate();
  EXPECT_GT(acc, 0.8f);
}

TEST(FailureInjection, ClientSmallerThanBatchSize) {
  core::ExperimentConfig cfg = tiny_experiment_config();
  cfg.batch_size = 4096;  // far larger than any shard
  core::Experiment exp(cfg);
  auto clients = exp.build_clients();
  EXPECT_GT(clients[0]->train_epoch_supervised(), 0.0f);
  EXPECT_GE(clients[0]->evaluate(), 0.0f);
}

TEST(FailureInjection, BatchOfOneThroughBatchNormModels) {
  // batch 1 is fine for BatchNorm2d as long as H*W > 1 (the per-channel
  // count is B*H*W).
  core::ExperimentConfig cfg = tiny_experiment_config();
  core::Experiment exp(cfg);
  auto model = exp.build_model(0);  // MiniResNet with BN
  Rng rng(3);
  Tensor x = Tensor::randn({1, 1, 8, 8}, rng);
  Tensor y = model->forward(x, /*train=*/true);
  EXPECT_TRUE(std::isfinite(sum(y)));
}

TEST(FailureInjection, BatchNormRejectsDegenerateStatistics) {
  nn::BatchNorm2d bn(2);
  // 1x1 spatial with batch 1: a single value per channel cannot be
  // normalized in training mode.
  EXPECT_THROW(bn.forward(Tensor({1, 2, 1, 1}), /*train=*/true), Error);
  // Eval mode is fine (uses running stats).
  EXPECT_NO_THROW(bn.forward(Tensor({1, 2, 1, 1}), /*train=*/false));
}

TEST(FailureInjection, ConvOutputMustBeNonEmpty) {
  Rng rng(4);
  nn::Conv2d conv(1, 1, 5, 1, 0, rng);
  // 3x3 input with a 5x5 kernel and no padding: empty output -> error.
  EXPECT_THROW(conv.forward(Tensor({1, 1, 3, 3}), false), Error);
}

TEST(FailureInjection, BackwardBeforeForwardThrows) {
  Rng rng(5);
  nn::Conv2d conv(1, 2, 3, 1, 1, rng);
  EXPECT_THROW(conv.backward(Tensor({1, 2, 4, 4})), Error);
  nn::Linear lin(3, 2, rng);
  EXPECT_THROW(lin.backward(Tensor({1, 2})), Error);
  nn::BatchNorm2d bn(2);
  EXPECT_THROW(bn.backward(Tensor({1, 2, 2, 2})), Error);
}

TEST(FailureInjection, EvalForwardDoesNotEnableBackward) {
  Rng rng(6);
  nn::Linear lin(3, 2, rng);
  lin.forward(Tensor({2, 3}), /*train=*/false);
  EXPECT_THROW(lin.backward(Tensor({2, 2})), Error);
}

TEST(FailureInjection, FedAvgRejectsHeterogeneousCohort) {
  // Full-weight averaging across different architectures must fail loudly
  // (shape mismatch during restore), not silently corrupt models.
  core::ExperimentConfig cfg = tiny_experiment_config();
  cfg.models = core::ModelScheme::kHeterogeneous;
  core::Experiment exp(cfg);
  fl::FedAvg strat;
  EXPECT_THROW(exp.execute(strat), Error);
}

TEST(FailureInjection, MismatchedClassifierPayloadRejected) {
  core::ExperimentConfig cfg = tiny_experiment_config();
  core::Experiment exp(cfg);
  auto clients = exp.build_clients();
  // Payload with the wrong classifier width.
  Rng rng(7);
  std::vector<Tensor> wrong{Tensor::randn({10, 99}, rng),
                            Tensor::randn({10}, rng)};
  EXPECT_THROW(
      models::restore_values(wrong,
                             clients[0]->model().classifier_parameters()),
      Error);
}

TEST(FailureInjection, ZeroRoundsRejected) {
  core::ExperimentConfig cfg = tiny_experiment_config();
  cfg.rounds = 0;
  core::Experiment exp(cfg);
  core::FedClassAvg strat;
  EXPECT_THROW(exp.execute(strat), Error);
}

TEST(FailureInjection, SampleRateBoundsEnforced) {
  core::ExperimentConfig cfg = tiny_experiment_config();
  cfg.sample_rate = 0.0;
  core::Experiment exp(cfg);
  core::FedClassAvg strat;
  EXPECT_THROW(exp.execute(strat), Error);
  cfg.sample_rate = 1.5;
  core::Experiment exp2(cfg);
  EXPECT_THROW(exp2.execute(strat), Error);
}

/// Wraps a strategy and simulates a client crash: at `crash_round`, after
/// the round is already partially executed (weights touched, a message left
/// in flight), it throws. `max_crashes` < 0 means crash on every attempt.
class CrashingStrategy : public fl::RoundStrategy {
 public:
  CrashingStrategy(fl::RoundStrategy& inner, int crash_round, int max_crashes)
      : inner_(inner), crash_round_(crash_round), max_crashes_(max_crashes) {}

  std::string name() const override { return inner_.name(); }
  void initialize(fl::FederatedRun& run) override { inner_.initialize(run); }
  comm::Bytes save_state() const override { return inner_.save_state(); }
  void load_state(std::span<const std::byte> state) override {
    inner_.load_state(state);
  }

  float execute_round(fl::FederatedRun& run, int round,
                      const std::vector<int>& selected) override {
    if (round == crash_round_ &&
        (max_crashes_ < 0 || crashes_ < max_crashes_)) {
      ++crashes_;
      // Leave the simulation visibly inconsistent before dying: perturbed
      // client weights and an undelivered in-flight message. Recovery must
      // roll all of this back.
      fl::Client& victim = run.client(selected.front());
      for (nn::Param* p : victim.model().parameters()) {
        for (int64_t i = 0; i < p->value.numel(); ++i) p->value[i] += 7.0f;
      }
      run.client_endpoint(selected.front())
          .send(0, fl::kTagAuxUp, comm::Bytes(64));
      throw Error("injected client crash in round " +
                  std::to_string(round));
    }
    return inner_.execute_round(run, round, selected);
  }

  int crashes() const { return crashes_; }

 private:
  fl::RoundStrategy& inner_;
  int crash_round_;
  int max_crashes_;
  int crashes_ = 0;
};

std::string crash_scratch_dir(const std::string& name) {
  const std::string dir = testing::TempDir() + "fca_crash_" + name;
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  return dir;
}

TEST(FailureInjection, MidRoundCrashRecoversBitIdentically) {
  core::ExperimentConfig cfg = tiny_experiment_config();
  cfg.rounds = 6;

  core::Experiment reference_exp(cfg);
  core::FedClassAvg reference(reference_exp.fedclassavg_config());
  const auto expected = reference_exp.execute(reference);

  ckpt::Options opts;
  opts.dir = crash_scratch_dir("midround");
  opts.every = 1;
  core::Experiment exp(cfg);
  core::FedClassAvg inner(exp.fedclassavg_config());
  CrashingStrategy crashing(inner, /*crash_round=*/4, /*max_crashes=*/1);
  const auto recovered = exp.execute(crashing, opts);

  EXPECT_EQ(crashing.crashes(), 1);
  // The crashed-and-replayed run matches the undisturbed one bit for bit:
  // same accuracies and the stray in-flight traffic was rolled back too.
  ASSERT_EQ(expected.result.curve.size(), recovered.result.curve.size());
  for (size_t i = 0; i < expected.result.curve.size(); ++i) {
    EXPECT_DOUBLE_EQ(expected.result.curve[i].mean_accuracy,
                     recovered.result.curve[i].mean_accuracy)
        << "round index " << i;
    EXPECT_EQ(expected.result.curve[i].round_bytes,
              recovered.result.curve[i].round_bytes);
  }
  EXPECT_EQ(expected.result.total_traffic.payload_bytes,
            recovered.result.total_traffic.payload_bytes);
  EXPECT_EQ(expected.result.total_traffic.messages,
            recovered.result.total_traffic.messages);
}

TEST(FailureInjection, CrashWithoutCheckpointingAborts) {
  core::ExperimentConfig cfg = tiny_experiment_config();
  cfg.rounds = 4;
  core::Experiment exp(cfg);
  core::FedClassAvg inner(exp.fedclassavg_config());
  CrashingStrategy crashing(inner, /*crash_round=*/2, /*max_crashes=*/1);
  EXPECT_THROW(exp.execute(crashing), Error);
}

TEST(FailureInjection, PersistentCrashEventuallySurfaces) {
  // A round that fails on every replay must not loop forever: after the
  // bounded number of recovery attempts the error propagates.
  core::ExperimentConfig cfg = tiny_experiment_config();
  cfg.rounds = 4;
  ckpt::Options opts;
  opts.dir = crash_scratch_dir("persistent");
  opts.every = 1;
  core::Experiment exp(cfg);
  core::FedClassAvg inner(exp.fedclassavg_config());
  CrashingStrategy crashing(inner, /*crash_round=*/3, /*max_crashes=*/-1);
  EXPECT_THROW(exp.execute(crashing, opts), Error);
  EXPECT_GE(crashing.crashes(), 2);  // recovery was attempted, then gave up
}

// ---------------------------------------------------------------------------
// Injected network faults: rounds degrade gracefully instead of failing

TEST(FailureInjection, FaultyRunCompletesAndCountsEvents) {
  core::ExperimentConfig cfg = tiny_experiment_config();
  cfg.rounds = 4;
  cfg.faults.drop_rate = 0.3;
  cfg.faults.straggler_rate = 0.3;
  cfg.faults.straggler_delay_s = 10.0;
  cfg.faults.round_deadline_s = 1.0;
  cfg.faults.fault_seed = 7;
  core::Experiment exp(cfg);
  core::FedClassAvg strat(exp.fedclassavg_config());
  const auto done = exp.execute(strat);
  EXPECT_TRUE(std::isfinite(done.result.final_mean_accuracy));
  const comm::FaultStats& f = done.result.total_faults;
  EXPECT_GT(f.dropped_messages, 0u);
  EXPECT_GT(f.delayed_messages, 0u);
  EXPECT_GT(f.deadline_misses, 0u);
  // Per-round metrics expose the survivor sets and the injected events.
  uint64_t events = 0;
  for (const auto& m : done.result.curve) {
    EXPECT_EQ(m.selected_count, cfg.num_clients);
    EXPECT_GE(m.survivor_count, 0);
    EXPECT_LE(m.survivor_count, m.selected_count);
    events += m.fault_events;
  }
  EXPECT_EQ(events, f.injected_total());
  // Dropped and expired messages were consumed, not leaked.
  EXPECT_EQ(done.run->network().pending_messages(), 0u);
}

TEST(FailureInjection, QuorumAbortKeepsPreviousGlobalState) {
  // Round 2 takes down every client: below any quorum, so the round aborts
  // and the run continues on the round-1 state instead of dying.
  core::ExperimentConfig cfg = tiny_experiment_config();
  cfg.rounds = 3;
  cfg.quorum = 2;
  cfg.faults.crash_schedule = comm::parse_crash_schedule("1@2,2@2,3@2,4@2");
  core::Experiment exp(cfg);
  core::FedClassAvg strat(exp.fedclassavg_config());
  const auto done = exp.execute(strat);
  const comm::FaultStats& f = done.result.total_faults;
  EXPECT_EQ(f.aborted_rounds, 1u);
  EXPECT_EQ(f.crashed_client_rounds, 4u);
  EXPECT_EQ(f.rejoins, 4u);
  ASSERT_EQ(done.result.curve.size(), 3u);
  EXPECT_EQ(done.result.curve[1].survivor_count, 0);
  // The aborted round changed nothing: round-2 eval == round-1 eval.
  for (size_t k = 0; k < done.result.curve[0].client_accuracies.size(); ++k) {
    EXPECT_DOUBLE_EQ(done.result.curve[1].client_accuracies[k],
                     done.result.curve[0].client_accuracies[k])
        << "client " << k << " trained during an aborted round";
  }
  // Round 3 resumes training on the full cohort.
  EXPECT_EQ(done.result.curve[2].survivor_count, cfg.num_clients);
  EXPECT_TRUE(std::isfinite(done.result.final_mean_accuracy));
}

TEST(FailureInjection, ScheduledCrashSkipsClientThenRejoins) {
  // Client 1 (fabric rank 2) is down exactly in round 2.
  core::ExperimentConfig cfg = tiny_experiment_config();
  cfg.rounds = 3;
  cfg.faults.crash_schedule = comm::parse_crash_schedule("2@2");
  core::Experiment exp(cfg);
  core::FedClassAvg strat(exp.fedclassavg_config());
  const auto done = exp.execute(strat);
  const comm::FaultStats& f = done.result.total_faults;
  EXPECT_EQ(f.crashed_client_rounds, 1u);
  EXPECT_EQ(f.rejoins, 1u);
  EXPECT_EQ(f.aborted_rounds, 0u);
  ASSERT_EQ(done.result.curve.size(), 3u);
  EXPECT_EQ(done.result.curve[0].survivor_count, cfg.num_clients);
  EXPECT_EQ(done.result.curve[1].survivor_count, cfg.num_clients - 1);
  EXPECT_EQ(done.result.curve[2].survivor_count, cfg.num_clients);
}

TEST(FailureInjection, EveryStrategySurvivesLossyFabric) {
  // Each strategy's fault-tolerant round must complete under combined drop +
  // crash churn. FedAvg/FedProx need a homogeneous cohort; FedProto needs
  // its model family.
  struct Case {
    const char* name;
    core::ModelScheme models;
  };
  const Case cases[] = {
      {"local", core::ModelScheme::kHeterogeneous},
      {"fedavg", core::ModelScheme::kHomogeneousResNet},
      {"fedproto", core::ModelScheme::kFedProtoFamily},
      {"ktpfl", core::ModelScheme::kHeterogeneous},
      {"fedclassavg", core::ModelScheme::kHeterogeneous},
      {"fedclassavg-proto", core::ModelScheme::kHeterogeneous},
  };
  for (const Case& c : cases) {
    core::ExperimentConfig cfg = tiny_experiment_config();
    cfg.rounds = 3;
    cfg.models = c.models;
    cfg.faults.drop_rate = 0.25;
    cfg.faults.crash_rate = 0.15;
    cfg.faults.fault_seed = 11;
    core::Experiment exp(cfg);
    std::unique_ptr<fl::RoundStrategy> strat;
    if (std::string(c.name) == "local") {
      strat = std::make_unique<fl::LocalOnly>();
    } else if (std::string(c.name) == "fedavg") {
      strat = std::make_unique<fl::FedAvg>();
    } else if (std::string(c.name) == "fedproto") {
      strat = std::make_unique<fl::FedProto>();
    } else if (std::string(c.name) == "ktpfl") {
      strat = std::make_unique<fl::KTpFL>(exp.public_data(),
                                          fl::KTpFLConfig{});
    } else if (std::string(c.name) == "fedclassavg") {
      strat = std::make_unique<core::FedClassAvg>(exp.fedclassavg_config());
    } else {
      core::FedClassAvgProtoConfig pc;
      pc.base = exp.fedclassavg_config();
      strat = std::make_unique<core::FedClassAvgProto>(pc);
    }
    const auto done = exp.execute(*strat);
    EXPECT_TRUE(std::isfinite(done.result.final_mean_accuracy)) << c.name;
    EXPECT_EQ(done.run->network().pending_messages(), 0u)
        << c.name << ": a faulty round leaked undelivered messages";
  }
}

/// The tiny experiment with the link to fabric rank 2 (client 1) killed at
/// its first byte, before round 1: during the initialization sync.
core::ExperimentConfig link_lost_at_init_config(core::ModelScheme models) {
  core::ExperimentConfig cfg = tiny_experiment_config();
  cfg.models = models;
  cfg.transport.chaos.kill_peer = 2;
  cfg.transport.chaos.kill_from_round = 0;
  cfg.transport.chaos.kill_after_bytes = 0;
  return cfg;
}

TEST(FailureInjection, LinkLostBeforeRoundOneDegradesEveryInitSync) {
  // Every strategy's initialization sync must degrade around a peer lost
  // before round 1 (DESIGN.md §12): one real fault, charged to round 1's
  // row, and the server never condemned.
  struct Case {
    const char* name;
    core::ModelScheme models;
  };
  const Case cases[] = {
      {"fedavg", core::ModelScheme::kHomogeneousResNet},
      {"ktpfl", core::ModelScheme::kHeterogeneous},
      {"fedclassavg", core::ModelScheme::kHeterogeneous},
  };
  for (const Case& c : cases) {
    SCOPED_TRACE(c.name);
    core::Experiment exp(link_lost_at_init_config(c.models));
    std::unique_ptr<fl::RoundStrategy> strat;
    if (std::string(c.name) == "fedavg") {
      strat = std::make_unique<fl::FedAvg>();
    } else if (std::string(c.name) == "ktpfl") {
      strat = std::make_unique<fl::KTpFL>(exp.public_data(),
                                          fl::KTpFLConfig{});
    } else {
      strat = std::make_unique<core::FedClassAvg>(exp.fedclassavg_config());
    }
    try {
      const core::CompletedRun done = exp.execute(*strat);
      EXPECT_EQ(done.result.total_faults.real_peer_faults, 1u);
      EXPECT_TRUE(done.run->network().peer_alive(0))
          << "the server was condemned";
      EXPECT_FALSE(done.run->network().peer_alive(2));
      ASSERT_FALSE(done.result.curve.empty());
      EXPECT_EQ(done.result.curve[0].real_fault_events, 1u);
    } catch (const std::exception& e) {
      ADD_FAILURE() << "run failed: " << e.what();
    }
  }
}

TEST(FailureInjection, InitBarrierAveragesTheClientsThatReported) {
  // Client 1's init upload dies with its link, so C^1 is the eq. 1 average
  // over clients {0, 2, 3}, renormalized over them; client 1 keeps its own
  // initial classifier.
  core::Experiment exp(
      link_lost_at_init_config(core::ModelScheme::kHeterogeneous));
  auto run = test::resident_run(exp);
  core::FedClassAvg strat(exp.fedclassavg_config());
  strat.initialize(*run);
  const std::vector<int> reporters = {0, 2, 3};
  std::vector<comm::Bytes> uploads;
  for (int k : reporters) {
    uploads.push_back(models::serialize_values(
        exp.build_client(k)->model().classifier_parameters()));
  }
  std::vector<Tensor> want;
  run->average_into(want, reporters, uploads);
  const std::vector<Tensor> got = strat.global_classifier();
  ASSERT_EQ(got.size(), want.size());
  for (size_t t = 0; t < got.size(); ++t) {
    EXPECT_TRUE(allclose(got[t], want[t], 0.0f, 0.0f)) << "tensor " << t;
  }
  for (int k : reporters) {
    EXPECT_TRUE(allclose(run->client(k).model().classifier().weight().value,
                         want[0], 0.0f, 0.0f))
        << "client " << k << " did not receive C^1";
  }
  EXPECT_TRUE(allclose(
      run->client(1).model().classifier().weight().value,
      exp.build_client(1)->model().classifier().weight().value, 0.0f, 0.0f))
      << "the cut-off client changed";
}

TEST(FailureInjection, InvalidFaultConfigRejectedAtExperimentStart) {
  core::ExperimentConfig cfg = tiny_experiment_config();
  cfg.faults.drop_rate = 2.0;
  core::Experiment exp(cfg);
  core::FedClassAvg strat;
  EXPECT_THROW(exp.execute(strat), Error);
  cfg = tiny_experiment_config();
  cfg.quorum = cfg.num_clients + 1;  // can never be met
  core::Experiment exp2(cfg);
  EXPECT_THROW(exp2.execute(strat), Error);
}

TEST(FailureInjection, ExtremeInputsStayFinite) {
  // Very large pixel magnitudes: normalization layers and softmax guards
  // must keep everything finite through a training step.
  core::ExperimentConfig cfg = tiny_experiment_config();
  core::Experiment exp(cfg);
  auto model = exp.build_model(0);
  Rng rng(8);
  Tensor x = Tensor::randn({4, 1, 8, 8}, rng, 0.0f, 100.0f);
  Tensor logits = model->forward(x, true);
  EXPECT_TRUE(std::isfinite(sum(logits)));
  nn::LossResult loss = nn::softmax_cross_entropy(logits, {0, 1, 2, 3});
  EXPECT_TRUE(std::isfinite(loss.value));
  model->backward(loss.grad);
  for (nn::Param* p : model->parameters()) {
    EXPECT_TRUE(std::isfinite(sum(p->grad))) << p->name;
  }
}

}  // namespace
}  // namespace fca
