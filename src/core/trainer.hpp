// High-level experiment facade — the library's main public entry point.
//
// An Experiment materializes everything §4.1 describes from one seed: the
// synthetic dataset (train/test/public splits), a non-iid partition, local
// test sets matching each client's class mix, and deterministic client
// construction (model per the chosen scheme + optimizer + augmentation).
// Calling execute(strategy) builds a *fresh* set of clients each time, so
// algorithms under comparison always start from identical initial states.
#pragma once

#include <memory>

#include "ckpt/checkpoint.hpp"
#include "core/config.hpp"
#include "core/fedclassavg.hpp"
#include "data/partition.hpp"
#include "data/synth.hpp"
#include "fl/server.hpp"

namespace fca::core {

enum class PartitionScheme { kDirichlet, kSkewed };
enum class ModelScheme {
  kHeterogeneous,      // ResNet/ShuffleNet/GoogLeNet/AlexNet round-robin
  kHomogeneousResNet,  // every client runs MiniResNet (§4.3)
  kFedProtoFamily,     // CNN2 variants (the milder FedProto heterogeneity)
};

struct ExperimentConfig {
  std::string dataset = "synth-fmnist";
  int num_clients = 20;
  PartitionScheme partition = PartitionScheme::kDirichlet;
  double dirichlet_alpha = 0.5;
  int classes_per_client = 2;  // for the skewed scheme
  ModelScheme models = ModelScheme::kHeterogeneous;

  // Synthetic data sizing.
  int train_per_class = 100;
  int test_per_class = 20;
  int public_per_class = 4;   // KT-pFL public split
  int test_per_client = 40;   // local test set size

  // Model scaling (paper: feature_dim 512, full-size backbones).
  int64_t feature_dim = 32;
  int64_t width = 8;
  int64_t image_size = 12;

  // Local update hyper-parameters (defaults from scaled_preset()).
  float lr = 3e-3f;
  int batch_size = 16;
  bool use_adam = true;

  // Federated protocol.
  int rounds = 10;
  int local_epochs = 1;
  double sample_rate = 1.0;
  int eval_every = 1;
  comm::CostModel cost;
  /// Concurrent client updates per round (FLConfig::client_parallelism):
  /// 1 serial, N > 1 bounded fan-out, 0 auto. Bit-identical at any value.
  int client_parallelism = 1;
  /// Fault-injection schedule for the fabric (FLConfig::faults); defaults
  /// to a perfect network.
  comm::FaultConfig faults;
  /// Minimum surviving cohort size to commit a round (FLConfig::quorum).
  int quorum = 1;
  /// Message-fabric backend and its options (FLConfig::transport):
  /// inproc (default), shm or tcp; overridable via FCA_TRANSPORT.
  comm::TransportOptions transport;
  /// O(active-cohort) memory: cap on simultaneously resident clients
  /// (--max-resident-clients). 0 keeps the historical all-resident
  /// behavior; > 0 backs the run with a paging ClientStore whose idle
  /// clients live on disk. Must be at least client parallelism + 1.
  /// FCA_MAX_RESIDENT_CLIENTS (a plain non-negative decimal; anything else
  /// throws EnvError) overrides at store construction.
  int max_resident_clients = 0;
  /// Directory for client page files; empty picks a fresh directory under
  /// the system temp dir (cleaned up with the store).
  std::string page_dir;
  /// Skip the all-population init sweep (FLConfig::lazy_init); requires a
  /// factory-backed store, which build_store() then always constructs.
  bool lazy_init = false;
  /// Evaluate only clients [0, eval_clients) per eval round; 0 = all
  /// (FLConfig::eval_clients).
  int eval_clients = 0;
  /// First round a scoped (multi-process) run executes
  /// (FLConfig::resume_next_round): 1 = fresh; a resuming launcher sets it
  /// to the shared checkpoint directory's newest round + 1 on every rank so
  /// the rendezvous handshake can reject a rank with a stale checkpoint
  /// view. Ignored by all-local runs.
  int resume_next_round = 1;

  uint64_t seed = 42;

  /// Applies the dataset's scaled hyper-parameter preset (lr, batch size,
  /// local epochs) on top of this config.
  ExperimentConfig& with_scaled_preset();
};

/// An FCA_* environment override holds a value that does not parse. The
/// message names the variable, its value and what was expected.
class EnvError : public Error {
 public:
  EnvError(std::string variable, const std::string& value,
           const std::string& expected);
  const std::string& variable() const { return variable_; }

 private:
  std::string variable_;
};

/// A finished run: the metrics plus the driver (for post-hoc analysis of the
/// trained clients, e.g. t-SNE or conductance). checkpoint_stats is all-zero
/// unless the run was executed with checkpointing enabled.
struct CompletedRun {
  fl::RunResult result;
  std::unique_ptr<fl::FederatedRun> run;
  ckpt::Stats checkpoint_stats;
};

class Experiment {
 public:
  explicit Experiment(ExperimentConfig config);

  const ExperimentConfig& config() const { return config_; }
  const data::SynthSpec& spec() const { return spec_; }
  const data::Dataset& train_data() const { return train_; }
  const data::Dataset& test_data() const { return test_; }
  const data::Dataset& public_data() const { return public_; }
  const data::Partition& partition() const { return partition_; }
  const std::vector<std::vector<int>>& test_split() const {
    return test_split_;
  }

  /// Deterministically builds a fresh set of clients (same seed -> same
  /// initial weights, shards and augmentation streams).
  std::vector<fl::ClientPtr> build_clients() const;

  /// Deterministically builds one client — the ClientStore factory; calling
  /// build_client(k) twice yields bit-identical clients, which is what lets
  /// the store drop clean clients instead of paging them.
  fl::ClientPtr build_client(int client_id) const;

  /// The client store execute()/resume() drive: an all-resident vector
  /// store when max_resident_clients <= 0 and lazy_init is off (historical
  /// behavior), otherwise a factory store (paged when the budget, possibly
  /// overridden by FCA_MAX_RESIDENT_CLIENTS, is positive). The factory
  /// captures `this`, so the Experiment must outlive the returned store and
  /// any run built on it.
  std::unique_ptr<fl::ClientStore> build_store() const;

  /// Builds one client's model (exposed for analysis tooling).
  std::unique_ptr<models::SplitModel> build_model(int client_id) const;

  fl::FLConfig fl_config() const;

  /// Builds fresh clients, runs the strategy, returns metrics + driver.
  CompletedRun execute(fl::RoundStrategy& strategy) const;

  /// Like execute(), but checkpoints per `options` as the run progresses and
  /// replays from the last checkpoint if a round throws mid-flight.
  CompletedRun execute(fl::RoundStrategy& strategy,
                       const ckpt::Options& options) const;

  /// Restores the newest loadable checkpoint in options.dir and continues
  /// the run to config().rounds. The finished curve and traffic totals are
  /// bit-identical to an uninterrupted run with the same config.
  CompletedRun resume(fl::RoundStrategy& strategy,
                      const ckpt::Options& options) const;

  /// resume() when options.dir holds a checkpoint, execute() otherwise —
  /// the idempotent entry point for restartable jobs.
  CompletedRun execute_or_resume(fl::RoundStrategy& strategy,
                                 const ckpt::Options& options) const;

  /// Convenience: the dataset's FedClassAvg config (Table 1 rho).
  FedClassAvgConfig fedclassavg_config() const;

 private:
  models::ModelConfig model_config(int client_id) const;
  /// Each client's static work estimate for the executor's claim order:
  /// forward multiply-adds per sample (once per distinct model config)
  /// times local samples times local epochs, and times test samples for
  /// evaluation.
  std::vector<fl::ClientStore::Cost> client_costs() const;

  ExperimentConfig config_;
  data::SynthSpec spec_;
  data::Dataset train_, test_, public_;
  data::Partition partition_;
  std::vector<std::vector<int>> test_split_;
};

}  // namespace fca::core
