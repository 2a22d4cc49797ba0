#include "core/trainer.hpp"

#include <unistd.h>

#include <atomic>
#include <charconv>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <map>

#include "fl/obs_hook.hpp"
#include "obs/metrics.hpp"
#include "utils/error.hpp"
#include "utils/logging.hpp"

namespace fca::core {
namespace {

/// FCA_MAX_RESIDENT_CLIENTS as a plain non-negative decimal int: a sign,
/// whitespace, trailing bytes or an overflow is an EnvError, never a silent
/// fallback to an unbudgeted store.
int parse_resident_budget(const char* value) {
  const char* end = value + std::strlen(value);
  int budget = 0;
  const auto [stop, ec] = std::from_chars(value, end, budget);
  if (ec != std::errc() || stop != end || budget < 0) {
    throw EnvError("FCA_MAX_RESIDENT_CLIENTS", value,
                   "a non-negative decimal client count");
  }
  return budget;
}

}  // namespace

EnvError::EnvError(std::string variable, const std::string& value,
                   const std::string& expected)
    : Error(variable + "='" + value + "' is not " + expected),
      variable_(std::move(variable)) {}

ExperimentConfig& ExperimentConfig::with_scaled_preset() {
  const HyperPreset p = scaled_preset(dataset);
  lr = p.lr;
  batch_size = p.batch_size;
  local_epochs = p.local_epochs;
  return *this;
}

Experiment::Experiment(ExperimentConfig config) : config_(std::move(config)) {
  FCA_CHECK(config_.num_clients > 0 && config_.train_per_class > 0 &&
            config_.test_per_class > 0 && config_.test_per_client > 0);
  spec_ = data::SynthSpec::by_name(config_.dataset);
  spec_.height = config_.image_size;
  spec_.width = config_.image_size;

  const Rng root(config_.seed);
  train_ = data::generate_synthetic(spec_, config_.train_per_class, root,
                                    "train");
  test_ =
      data::generate_synthetic(spec_, config_.test_per_class, root, "test");
  public_ = data::generate_synthetic(spec_, config_.public_per_class, root,
                                     "public");

  Rng part_rng = root.fork("partition");
  switch (config_.partition) {
    case PartitionScheme::kDirichlet:
      partition_ = data::dirichlet_partition(
          train_.labels, spec_.num_classes, config_.num_clients,
          config_.dirichlet_alpha, part_rng);
      break;
    case PartitionScheme::kSkewed:
      partition_ = data::skewed_partition(train_.labels, spec_.num_classes,
                                          config_.num_clients,
                                          config_.classes_per_client,
                                          part_rng);
      break;
  }
  Rng test_rng = root.fork("test-split");
  test_split_ = data::matching_test_split(partition_, test_.labels,
                                          spec_.num_classes,
                                          config_.test_per_client, test_rng);
}

models::ModelConfig Experiment::model_config(int client_id) const {
  models::ModelConfig mc;
  switch (config_.models) {
    case ModelScheme::kHeterogeneous:
      mc.arch = models::heterogeneous_arch_for_client(client_id);
      break;
    case ModelScheme::kHomogeneousResNet:
      mc.arch = models::Arch::kMiniResNet;
      break;
    case ModelScheme::kFedProtoFamily:
      mc.arch = models::Arch::kCnn2;
      mc.variant = client_id;
      break;
  }
  mc.in_channels = spec_.channels;
  mc.image_size = config_.image_size;
  mc.feature_dim = config_.feature_dim;
  mc.num_classes = spec_.num_classes;
  mc.width = config_.width;
  return mc;
}

std::unique_ptr<models::SplitModel> Experiment::build_model(
    int client_id) const {
  Rng rng = Rng(config_.seed)
                .fork_indexed("model-init/",
                              static_cast<uint64_t>(client_id));
  return models::build_model(model_config(client_id), rng);
}

fl::ClientPtr Experiment::build_client(int client_id) const {
  fl::ClientConfig cc;
  cc.batch_size = config_.batch_size;
  cc.lr = config_.lr;
  cc.use_adam = config_.use_adam;
  cc.augment.horizontal_flip = spec_.channels == 3;  // flip only "cifar"
  cc.augment.shift_px = 2;
  cc.augment.noise_std = 0.05f;
  cc.augment.cutout_size = 3;

  const auto k = static_cast<size_t>(client_id);
  data::Dataset local_train = train_.subset(partition_.client_indices[k]);
  data::Dataset local_test = test_.subset(test_split_[k]);
  return std::make_unique<fl::Client>(
      client_id, build_model(client_id), std::move(local_train),
      std::move(local_test), cc,
      Rng(config_.seed)
          .fork_indexed("client-rng/", static_cast<uint64_t>(client_id)));
}

std::vector<fl::ClientPtr> Experiment::build_clients() const {
  std::vector<fl::ClientPtr> clients;
  clients.reserve(static_cast<size_t>(config_.num_clients));
  for (int k = 0; k < config_.num_clients; ++k) {
    clients.push_back(build_client(k));
  }
  return clients;
}

std::unique_ptr<fl::ClientStore> Experiment::build_store() const {
  int budget = config_.max_resident_clients;
  if (const char* env = std::getenv("FCA_MAX_RESIDENT_CLIENTS")) {
    if (*env != '\0') budget = parse_resident_budget(env);
  }
  std::vector<int64_t> sizes;
  sizes.reserve(static_cast<size_t>(config_.num_clients));
  for (int k = 0; k < config_.num_clients; ++k) {
    sizes.push_back(static_cast<int64_t>(
        partition_.client_indices[static_cast<size_t>(k)].size()));
  }
  fl::ClientStoreOptions opts;
  opts.max_resident = std::max(budget, 0);
  if (opts.max_resident > 0) {
    if (!config_.page_dir.empty()) {
      opts.page_dir = config_.page_dir;
    } else {
      // Fresh per-store directory: concurrent runs (tests, parameter
      // sweeps) must not collide on page files.
      static std::atomic<uint64_t> counter{0};
      opts.page_dir =
          (std::filesystem::temp_directory_path() /
           ("fca_pages_" + std::to_string(::getpid()) + "_" +
            std::to_string(counter.fetch_add(1))))
              .string();
    }
  }
  auto store = std::make_unique<fl::ClientStore>(
      config_.num_clients, [this](int k) { return build_client(k); },
      std::move(sizes), std::move(opts));
  store->set_costs(client_costs());
  return store;
}

std::vector<fl::ClientStore::Cost> Experiment::client_costs() const {
  std::map<models::ModelConfig, double> macs;
  std::vector<fl::ClientStore::Cost> costs;
  costs.reserve(static_cast<size_t>(config_.num_clients));
  for (int k = 0; k < config_.num_clients; ++k) {
    const models::ModelConfig mc = model_config(k);
    auto it = macs.find(mc);
    if (it == macs.end()) {
      it = macs.emplace(mc, static_cast<double>(models::forward_macs(mc)))
               .first;
    }
    const auto i = static_cast<size_t>(k);
    costs.push_back(
        {it->second * static_cast<double>(partition_.client_indices[i].size()) *
             config_.local_epochs,
         it->second * static_cast<double>(test_split_[i].size())});
  }
  return costs;
}

fl::FLConfig Experiment::fl_config() const {
  fl::FLConfig fc;
  fc.rounds = config_.rounds;
  fc.local_epochs = config_.local_epochs;
  fc.sample_rate = config_.sample_rate;
  fc.eval_every = config_.eval_every;
  fc.cost = config_.cost;
  fc.seed = config_.seed;
  fc.client_parallelism = config_.client_parallelism;
  fc.faults = config_.faults;
  fc.quorum = config_.quorum;
  fc.transport = config_.transport;
  fc.lazy_init = config_.lazy_init;
  fc.eval_clients = config_.eval_clients;
  fc.resume_next_round = config_.resume_next_round;
  return fc;
}

CompletedRun Experiment::execute(fl::RoundStrategy& strategy) const {
  FCA_LOG_INFO << "experiment " << config_.dataset << " x "
               << strategy.name() << " (" << config_.num_clients
               << " clients, " << config_.rounds << " rounds)";
  auto run = std::make_unique<fl::FederatedRun>(build_store(), fl_config());
  // Keep the no-hook fast path when metrics are off: a non-null hook makes
  // the driver assemble a full resume cursor every round.
  fl::MetricsRoundHook metrics_hook;
  fl::RunResult result = run->execute(
      strategy, obs::metrics_enabled() ? &metrics_hook : nullptr);
  return {std::move(result), std::move(run), {}};
}

CompletedRun Experiment::execute(fl::RoundStrategy& strategy,
                                 const ckpt::Options& options) const {
  FCA_LOG_INFO << "experiment " << config_.dataset << " x " << strategy.name()
               << " (" << config_.num_clients << " clients, "
               << config_.rounds << " rounds, checkpointing to "
               << options.dir << " every " << options.every << ")";
  auto run = std::make_unique<fl::FederatedRun>(build_store(), fl_config());
  ckpt::CheckpointManager manager(options);
  fl::MetricsRoundHook metrics_hook;
  fl::RoundHookChain hooks;
  // Checkpoints are root-written: in a multi-process world only rank 0 —
  // whose mirror store holds every client's synced state — saves, so joiner
  // ranks never race it on the shared directory.
  if (run->is_root()) hooks.add(&manager);
  hooks.add(&metrics_hook);
  fl::RunResult result = run->execute(strategy, &hooks);
  return {std::move(result), std::move(run), manager.stats()};
}

CompletedRun Experiment::resume(fl::RoundStrategy& strategy,
                                const ckpt::Options& options) const {
  FCA_LOG_INFO << "experiment " << config_.dataset << " x " << strategy.name()
               << ": resuming from " << options.dir;
  auto run = std::make_unique<fl::FederatedRun>(build_store(), fl_config());
  ckpt::CheckpointManager manager(options);
  // Every rank restores from the shared directory (each needs its own
  // clients' state, the strategy state and the traffic ledgers), but only
  // the root keeps writing checkpoints as the run continues.
  const fl::ResumeState cursor = manager.resume(*run, strategy);
  fl::MetricsRoundHook metrics_hook;
  fl::RoundHookChain hooks;
  if (run->is_root()) hooks.add(&manager);
  hooks.add(&metrics_hook);
  fl::RunResult result = run->execute(strategy, &hooks, &cursor);
  return {std::move(result), std::move(run), manager.stats()};
}

CompletedRun Experiment::execute_or_resume(fl::RoundStrategy& strategy,
                                           const ckpt::Options& options) const {
  if (!ckpt::CheckpointManager::available_rounds(options.dir).empty()) {
    return resume(strategy, options);
  }
  return execute(strategy, options);
}

FedClassAvgConfig Experiment::fedclassavg_config() const {
  FedClassAvgConfig fc;
  fc.rho = paper_preset(config_.dataset).rho;
  return fc;
}

}  // namespace fca::core
