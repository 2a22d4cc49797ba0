#include <gtest/gtest.h>

#include <cstring>

#include "core/fedclassavg_proto.hpp"
#include "fl_fixtures.hpp"
#include "fl/client_state.hpp"
#include "fl/fedavg.hpp"
#include "fl/fedprox.hpp"
#include "fl/fedproto.hpp"
#include "fl/ktpfl.hpp"
#include "fl/local_only.hpp"
#include "fl/sampling.hpp"
#include "models/serialize.hpp"
#include "tensor/ops.hpp"

namespace fca::fl {
namespace {

using test::tiny_experiment_config;

core::ExperimentConfig homogeneous_config() {
  core::ExperimentConfig cfg = tiny_experiment_config();
  cfg.models = core::ModelScheme::kHomogeneousResNet;
  return cfg;
}

TEST(Sampling, FullRateSelectsEveryone) {
  Rng rng(1);
  const auto s = sample_clients(10, 1.0, rng);
  EXPECT_EQ(s.size(), 10u);
  for (int i = 0; i < 10; ++i) EXPECT_EQ(s[static_cast<size_t>(i)], i);
}

TEST(Sampling, PartialRateCountFixed) {
  Rng rng(2);
  for (int round = 0; round < 5; ++round) {
    const auto s = sample_clients(100, 0.1, rng);
    EXPECT_EQ(s.size(), 10u);
    EXPECT_TRUE(std::is_sorted(s.begin(), s.end()));
  }
}

TEST(Sampling, AtLeastOneClient) {
  Rng rng(3);
  EXPECT_EQ(sample_clients(10, 0.01, rng).size(), 1u);
}

TEST(Sampling, TruncatingRateStillYieldsOneClient) {
  // Regression: rate * total rounding to zero used to produce an empty
  // cohort, which deadlocks the round (the server gathers from nobody).
  Rng rng(4);
  for (int total : {1, 3, 1000}) {
    const auto s = sample_clients(total, 1e-9, rng);
    ASSERT_EQ(s.size(), 1u) << "total " << total;
    EXPECT_GE(s[0], 0);
    EXPECT_LT(s[0], total);
  }
}

TEST(Sampling, CountNeverExceedsTotal) {
  Rng rng(5);
  // Rates within floating-point rounding error of 1 must clamp at total.
  for (double rate : {1.0, 1.0 - 1e-16, 0.99999999999}) {
    EXPECT_EQ(sample_clients(7, rate, rng).size(), 7u) << "rate " << rate;
  }
}

TEST(LocalOnly, NoTrafficAndLearning) {
  core::ExperimentConfig cfg = tiny_experiment_config();
  cfg.rounds = 4;
  core::Experiment exp(cfg);
  LocalOnly strat;
  const auto done = exp.execute(strat);
  EXPECT_EQ(done.result.total_traffic.payload_bytes, 0u);
  EXPECT_GT(done.result.final_mean_accuracy, 0.15);  // clearly above chance
  EXPECT_EQ(done.result.curve.size(), 4u);
}

TEST(FedAvg, InitializeSynchronizesAllClients) {
  core::Experiment exp(homogeneous_config());
  auto run = test::resident_run(exp);
  FedAvg strat;
  strat.initialize(*run);
  const auto ref = models::snapshot_values(run->client(0).model().parameters());
  for (int k = 1; k < run->num_clients(); ++k) {
    const auto other =
        models::snapshot_values(run->client(k).model().parameters());
    for (size_t i = 0; i < ref.size(); ++i) {
      EXPECT_TRUE(allclose(ref[i], other[i], 0.0f, 0.0f))
          << "client " << k << " param " << i;
    }
  }
  EXPECT_EQ(run->network().pending_messages(), 0u);
}

TEST(FedAvg, RoundKeepsClientsSynchronizedAtDownload) {
  core::Experiment exp(homogeneous_config());
  FedAvg strat;
  const auto done = exp.execute(strat);
  EXPECT_GT(done.result.final_mean_accuracy, 0.2);
  // Full-model exchange: traffic far exceeds classifier-only methods.
  EXPECT_GT(done.result.total_traffic.payload_bytes, 100000u);
}

bool tensor_bytes_equal(const Tensor& a, const Tensor& b) {
  return a.same_shape(b) &&
         std::memcmp(a.data(), b.data(),
                     static_cast<size_t>(a.numel()) * sizeof(float)) == 0;
}

TEST(FedAvg, ClientKeepsOptimizerSlotsAcrossRounds) {
  core::Experiment exp(homogeneous_config());
  auto run = test::resident_run(exp);
  FedAvg strat;
  strat.initialize(*run);
  const comm::Bytes down = strat.downlink(*run);
  Client& kept = run->client(0);
  std::vector<const float*> storage;
  for (const Tensor* s : kept.optimizer().state_tensors()) {
    storage.push_back(s->data());
  }
  const auto slots_stay = [&] {
    const std::vector<Tensor*> slots = kept.optimizer().state_tensors();
    ASSERT_EQ(slots.size(), storage.size());
    for (size_t s = 0; s < slots.size(); ++s) {
      EXPECT_EQ(slots[s]->data(), storage[s]) << "slot " << s << " moved";
    }
  };
  strat.update(*run, 1, kept, down);
  slots_stay();

  // A client built now has never stepped its optimizer. Given the kept
  // client's RNG stream and BatchNorm buffers, its update must equal the
  // kept client's second one byte for byte.
  auto fresh_run = test::resident_run(exp);
  Client& fresh = fresh_run->client(0);
  fresh.rng() = kept.rng();
  const std::vector<nn::BufferRef> kept_bufs = kept.model().buffers();
  const std::vector<nn::BufferRef> fresh_bufs = fresh.model().buffers();
  ASSERT_EQ(kept_bufs.size(), fresh_bufs.size());
  for (size_t b = 0; b < kept_bufs.size(); ++b) {
    ASSERT_TRUE(fresh_bufs[b].tensor->same_shape(*kept_bufs[b].tensor));
    std::memcpy(fresh_bufs[b].tensor->data(), kept_bufs[b].tensor->data(),
                static_cast<size_t>(kept_bufs[b].tensor->numel()) *
                    sizeof(float));
  }

  const ClientUpdate second = strat.update(*run, 2, kept, down);
  slots_stay();
  const ClientUpdate first_of_fresh = strat.update(*fresh_run, 2, fresh, down);
  EXPECT_EQ(second.upload, first_of_fresh.upload);
  EXPECT_EQ(second.loss, first_of_fresh.loss);
  const std::vector<Tensor*> kept_slots = kept.optimizer().state_tensors();
  const std::vector<Tensor*> fresh_slots = fresh.optimizer().state_tensors();
  ASSERT_EQ(kept_slots.size(), fresh_slots.size());
  for (size_t s = 0; s < kept_slots.size(); ++s) {
    EXPECT_TRUE(tensor_bytes_equal(*kept_slots[s], *fresh_slots[s]))
        << "slot " << s;
  }
  EXPECT_EQ(kept.optimizer().scalar_state(),
            fresh.optimizer().scalar_state());
}

TEST(FedAvg, ResetClientStateEqualsFreshClientState) {
  // A trained client's reset leaves stale moments in its slots; its paged
  // or checkpointed bytes must still be a fresh client's, whose slots are
  // zero, once the model and RNG stream agree.
  core::Experiment exp(homogeneous_config());
  auto run = test::resident_run(exp);
  FedAvg strat;
  strat.initialize(*run);
  Client& kept = run->client(0);
  strat.update(*run, 1, kept, strat.downlink(*run));
  kept.reset_optimizer();

  auto fresh_run = test::resident_run(exp);
  Client& fresh = fresh_run->client(0);
  models::deserialize_state(models::serialize_state(kept.model()),
                            fresh.model());
  fresh.rng() = kept.rng();
  EXPECT_EQ(encode_client_state(kept), encode_client_state(fresh));
}

TEST(FedProx, RunsAndReportsName) {
  core::Experiment exp(homogeneous_config());
  FedProx strat(0.1f);
  EXPECT_EQ(strat.name(), "FedProx");
  const auto done = exp.execute(strat);
  EXPECT_EQ(done.result.strategy, "FedProx");
  EXPECT_GT(done.result.final_mean_accuracy, 0.2);
}

TEST(FedProx, HeavyMuStaysCloserToGlobalThanFedAvg) {
  core::Experiment exp(homogeneous_config());
  // Run one round each and compare drift of client 0 from the broadcast
  // model. Deterministic construction makes the comparison exact.
  auto measure_drift = [&](RoundStrategy& strat) {
    auto run = test::resident_run(exp);
    strat.initialize(*run);
    const auto before =
        models::snapshot_values(run->client(0).model().parameters());
    strat.execute_round(*run, 1, {0, 1, 2, 3});
    const auto after =
        models::snapshot_values(run->client(0).model().parameters());
    float drift = 0.0f;
    for (size_t i = 0; i < before.size(); ++i) {
      drift += sum_squares(sub(after[i], before[i]));
    }
    return drift;
  };
  FedAvg fedavg;
  FedProx fedprox(50.0f);
  EXPECT_LT(measure_drift(fedprox), measure_drift(fedavg));
}

TEST(FedProto, PrototypesHaveExpectedShapeAndValidity) {
  core::ExperimentConfig cfg = tiny_experiment_config();
  cfg.models = core::ModelScheme::kFedProtoFamily;
  core::Experiment exp(cfg);
  FedProto strat;
  const auto done = exp.execute(strat);
  EXPECT_EQ(strat.prototypes().shape(),
            (Shape{10, cfg.feature_dim}));
  // All classes seen across the federation -> all prototypes valid.
  int valid = 0;
  for (bool v : strat.valid()) valid += v ? 1 : 0;
  EXPECT_EQ(valid, 10);
  EXPECT_GT(done.result.final_mean_accuracy, 0.15);
}

TEST(FedProto, TrafficIsPrototypeSized) {
  core::ExperimentConfig cfg = tiny_experiment_config();
  cfg.models = core::ModelScheme::kFedProtoFamily;
  core::Experiment exp(cfg);
  FedProto strat;
  const auto done = exp.execute(strat);
  // Per round-trip a client exchanges ~2 * C * D floats; far less than a
  // full model.
  EXPECT_LT(done.result.client_upload_bytes_per_round, 20000.0);
  EXPECT_GT(done.result.client_upload_bytes_per_round, 100.0);
}

TEST(KTpFL, CoefficientsStayRowStochastic) {
  core::Experiment exp(homogeneous_config());
  KTpFLConfig kcfg;
  KTpFL strat(exp.public_data(), kcfg);
  const auto done = exp.execute(strat);
  const Tensor& c = strat.coefficients();
  const int64_t k = c.dim(0);
  for (int64_t i = 0; i < k; ++i) {
    double row = 0.0;
    for (int64_t j = 0; j < k; ++j) {
      EXPECT_GE(c[i * k + j], 0.0f);
      row += c[i * k + j];
    }
    EXPECT_NEAR(row, 1.0, 1e-4);
  }
  EXPECT_GT(done.result.final_mean_accuracy, 0.15);
}

TEST(KTpFL, WorksWithHeterogeneousModels) {
  core::Experiment exp(tiny_experiment_config());  // 4 different archs
  KTpFL strat(exp.public_data(), {});
  const auto done = exp.execute(strat);
  EXPECT_GT(done.result.final_mean_accuracy, 0.15);
}

TEST(KTpFL, WeightVariantRequiresAndUsesHomogeneousModels) {
  core::ExperimentConfig cfg = homogeneous_config();
  cfg.rounds = 4;
  core::Experiment exp(cfg);
  KTpFLConfig kcfg;
  kcfg.share_weights = true;
  KTpFL strat(exp.public_data(), kcfg);
  EXPECT_EQ(strat.name(), "KT-pFL+weight");
  const auto done = exp.execute(strat);
  // Weight mixing converges slowly at this tiny scale; require a clear
  // training-loss decrease and at-least-chance accuracy.
  EXPECT_LT(done.result.curve.back().mean_train_loss,
            done.result.curve.front().mean_train_loss);
  EXPECT_GT(done.result.final_mean_accuracy, 0.08);
  // Weight exchange dominates traffic.
  EXPECT_GT(done.result.total_traffic.payload_bytes, 100000u);
}

TEST(KTpFL, PublicBroadcastDominatesSoftLabelTraffic) {
  core::Experiment exp(homogeneous_config());
  KTpFL strat(exp.public_data(), {});
  const auto done = exp.execute(strat);
  // Server (rank 0) sends the public set to every client at init; that
  // dwarfs the per-round soft-prediction exchange in this small setup.
  EXPECT_GT(done.result.total_traffic.payload_bytes, 0u);
}

TEST(Server, DataWeightsNormalized) {
  core::Experiment exp(tiny_experiment_config());
  const auto run = test::resident_run(exp);
  const auto w = run->data_weights({0, 1, 2, 3});
  double total = 0.0;
  for (double v : w) {
    EXPECT_GT(v, 0.0);
    total += v;
  }
  EXPECT_NEAR(total, 1.0, 1e-9);
}

TEST(Server, EvaluateAllReturnsPerClientAccuracies) {
  core::Experiment exp(tiny_experiment_config());
  const auto run = test::resident_run(exp);
  const auto acc = run->evaluate_all();
  EXPECT_EQ(acc.size(), 4u);
  for (double a : acc) {
    EXPECT_GE(a, 0.0);
    EXPECT_LE(a, 1.0);
  }
}

TEST(Server, CurveRespectsEvalEvery) {
  core::ExperimentConfig cfg = tiny_experiment_config();
  cfg.rounds = 4;
  cfg.eval_every = 2;
  core::Experiment exp(cfg);
  LocalOnly strat;
  const auto done = exp.execute(strat);
  ASSERT_EQ(done.result.curve.size(), 2u);
  EXPECT_EQ(done.result.curve[0].round, 2);
  EXPECT_EQ(done.result.curve[1].round, 4);
  EXPECT_EQ(done.result.curve[1].cumulative_local_epochs, 4);
}

// -- bounded stage decoders --------------------------------------------------
// Every payload a stage decodes (downlink, upload, checkpointed state) is
// checked for its tensor count and shapes before anything indexes it: a
// short or mis-shaped payload throws fca::Error instead of reading out of
// bounds.

comm::Bytes pack(const std::vector<Tensor>& tensors) {
  return models::serialize_tensors(tensors);
}

/// A gather in which client k delivered payloads[k].
FederatedRun::SurvivorGather gather_of(std::vector<comm::Bytes> payloads) {
  FederatedRun::SurvivorGather g;
  for (size_t k = 0; k < payloads.size(); ++k) {
    g.survivors.push_back(static_cast<int>(k));
  }
  g.payloads = std::move(payloads);
  return g;
}

TEST(StageDecoders, FedProtoRejectsShortOrMisshapedPayloads) {
  core::ExperimentConfig cfg = tiny_experiment_config();
  cfg.models = core::ModelScheme::kFedProtoFamily;
  core::Experiment exp(cfg);
  const auto run = test::resident_run(exp);
  FedProto strat;
  (void)strat.downlink(*run);  // sizes the prototype state
  Client& client = run->client(0);
  const int64_t c = client.model().num_classes();
  const int64_t d = client.model().feature_dim();
  const Tensor protos({c, d});
  for (const comm::Bytes& down :
       {pack({protos}), pack({Tensor({c, d + 1}), Tensor({c})}),
        pack({protos, Tensor({c + 1})})}) {
    EXPECT_THROW(strat.update(*run, 1, client, down), Error);
  }
  for (const comm::Bytes& up :
       {pack({protos}), pack({protos, Tensor({c - 1})}),
        pack({Tensor({c, d - 1}), Tensor({c})})}) {
    EXPECT_THROW(strat.reduce(*run, gather_of({up})), Error);
  }
  for (const comm::Bytes& state :
       {pack({protos}), pack({protos, Tensor({c + 1})}),
        pack({Tensor({c * d}), Tensor({c})})}) {
    EXPECT_THROW(strat.load_state(state), Error);
  }
}

TEST(StageDecoders, FedClassAvgProtoRejectsShortOrMisshapedPayloads) {
  core::Experiment exp(tiny_experiment_config());
  const auto run = test::resident_run(exp);
  core::FedClassAvgProto strat;
  strat.initialize(*run);
  Client& client = run->client(0);
  const int64_t c = client.model().num_classes();
  const int64_t d = client.model().feature_dim();
  const Tensor w({c, d});
  const Tensor b({c});
  const Tensor protos({c, d});
  for (const comm::Bytes& down :
       {pack({w, b, protos}), pack({w, b, protos, Tensor({c + 2})}),
        pack({w, b, Tensor({c, d + 1}), b})}) {
    EXPECT_THROW(strat.update(*run, 1, client, down), Error);
  }
  for (const comm::Bytes& up :
       {pack({w, b, protos}), pack({w, b, protos, Tensor({c - 1})})}) {
    EXPECT_THROW(strat.reduce(*run, gather_of({up})), Error);
  }
  for (const comm::Bytes& state :
       {pack({w, b, protos}), pack({w, b, protos, Tensor({c + 1})})}) {
    EXPECT_THROW(strat.load_state(state), Error);
  }
}

TEST(StageDecoders, KTpFLRejectsShortOrMisshapedLogits) {
  core::Experiment exp(tiny_experiment_config());
  const auto run = test::resident_run(exp);
  KTpFL strat(exp.public_data(), {});
  strat.initialize(*run);
  const int64_t p = exp.public_data().size();
  const int64_t c = run->client(0).model().num_classes();
  // Rejected while decoding, before the coefficients move.
  const Tensor coef = strat.coefficients().clone();
  auto expect_rejected = [&](std::vector<comm::Bytes> uploads) {
    EXPECT_THROW(strat.reduce(*run, gather_of(std::move(uploads))), Error);
    EXPECT_TRUE(allclose(strat.coefficients(), coef, 0.0f, 0.0f));
  };
  expect_rejected({pack({})});
  // Two distinct predictions, so a coefficient update would move them.
  Tensor peaked({p + 1, c});
  peaked[0] = 4.0f;
  expect_rejected({pack({Tensor({p + 1, c})}), pack({peaked})});
  // Survivors whose logits disagree in shape cannot be compared pairwise.
  expect_rejected({pack({Tensor({p, c})}), pack({Tensor({p, c + 1})})});
}

}  // namespace
}  // namespace fca::fl
