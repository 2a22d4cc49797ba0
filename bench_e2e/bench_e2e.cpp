// bench_e2e: end-to-end benchmark of whole federated runs.
//
// Each workload is a complete federated run driven through the public API
// (core::Experiment, Experiment::build_store, fl::FederatedRun::execute and
// the strategies); nothing in the library is instrumented. Timing comes from
// outside the program:
//   * TimedStrategy, a RoundStrategy decorator, forwards every virtual and
//     stamps initialize / initialize_lazy / execute_round;
//   * RoundRecorder, a RoundHook, stamps the end of each round's eval;
//   * plain clocks sit around the Experiment, store and run constructors.
// The library's own obs spans stay off.
//
// Workloads (sized so one timed run takes about --seconds on a 4-core x86
// host; `rounds` below is the count at --seconds 20 and scales linearly):
//   hetero-fca    the paper's Table 2 setup: four backbones round-robin,
//                 FedClassAvg, all clients every round. Local training and
//                 eval dominate; comm moves one classifier per client.
//   fedavg-shm    the Table 3 FedAvg baseline over shm rings: ~708 KB full
//                 models cross serialize -> shm -> deserialize -> aggregate
//                 every round while local training is tiny.
//   paged-cohort  200 clients, 16 sampled per round, 24 resident: the
//                 ClientStore pages clients in and out every round.
//
// Run model. Every run executes in its own re-exec'd child process (fork +
// exec + wait4), one child at a time, so each has its own heap and its own
// peak RSS. A child uses client_parallelism = min(4, nproc) lanes on the
// kernel pool (nproc - 1 workers plus the caller). Rounds are synchronous
// (closed loop); the cohort is the sampled client set.
//
// Passes.
//   --trace 0 (timed): one timed run, ten more set-up-only children
//     (setup_s is the median of all eleven set-ups), and a K-round
//     reference run for the oracle. Prints the end-to-end metrics.
//   --trace 1 (traced): the timed run again, then the same run with
//     bench-side spans and per-round counters kept in memory and exported to
//     <out-dir>/e2e_trace_<workload>.json, then probes: comm, payload and
//     paging on that run's own objects, per-backbone layer rows on fresh
//     hetero-fca clients. Prints the per-layer metrics.
// Round statistics skip rounds 1-2 (warm-up); setup_s and run_s include
// them.
//
// Oracles (checked before anything is reported; any failure prints
// "correct": false and exits 1):
//   * the first K rounds' curve rows equal a reference run's: hetero-fca
//     against an undecorated client_parallelism = 1 run, fedavg-shm against
//     the inproc fabric, paged-cohort against an all-resident store;
//   * every round moves exactly 2 x survivors x payload bytes (Table 5);
//   * the traced run's rows equal the untraced run's.
//
// Usage:
//   bench_e2e [--workload NAME|all] [--seed N] [--seconds S] [--trace 0|1]
//             [--traced] [--smoke] [--spec BENCHMARK.json] [--out-dir DIR]
// The last stdout line per workload is one JSON object:
//   {"correct": .., "attempted": .., "failed": .., "metrics": {..}}
// With --spec the metrics are exactly the spec's end_to_end (trace 0) or
// per_layer (trace 1) names; a listed name the program does not produce is
// an error. --smoke runs every workload through both passes with 3 rounds,
// one probe call each, and fails unless every spec name is printed.
#include <sys/prctl.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <csignal>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <filesystem>
#include <fstream>
#include <functional>
#include <map>
#include <memory>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "autograd/ops.hpp"
#include "core/trainer.hpp"
#include "fl/fedavg.hpp"
#include "json.hpp"
#include "models/serialize.hpp"
#include "obs/trace.hpp"
#include "tensor/ops.hpp"
#include "utils/logging.hpp"
#include "utils/threadpool.hpp"

namespace {

namespace core = fca::core;
namespace fl = fca::fl;
namespace models = fca::models;
namespace nn = fca::nn;
namespace ag = fca::ag;
using Clock = std::chrono::steady_clock;
using fca::Tensor;

constexpr int kOracleRounds = 5;   // K: rounds each oracle compares
constexpr int kWarmupRounds = 2;   // excluded from round statistics
constexpr int kExtraSetups = 10;   // set-up-only children beside the run
constexpr int kProbeCalls = 21;    // calls per probe (median reported)
constexpr int kNominalSeconds = 20;
constexpr int kPagedBudget = 24;   // paged-cohort's max resident clients

double ms_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}
double s_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

/// Linearly interpolated quantile q in [0, 1] (0 for an empty sample).
double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<size_t>(pos);
  const size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}
double median(std::vector<double> v) { return quantile(std::move(v), 0.5); }

int lanes() {
  const unsigned hw = std::max(1u, std::thread::hardware_concurrency());
  return static_cast<int>(std::min(4u, hw));
}

// ---------------------------------------------------------------------------
// Workloads
// ---------------------------------------------------------------------------

struct Workload {
  const char* name;
  int rounds;         // rounds of one timed run at --seconds 20
  double target_acc;  // core.rounds_to_acc / core.time_to_acc_s threshold
  bool fedavg;        // FedAvg instead of FedClassAvg
  void (*configure)(core::ExperimentConfig& cfg);
  /// Turns the workload's config into its oracle reference's.
  void (*reference)(core::ExperimentConfig& cfg);
  const char* reference_name;
};

void hetero_fca(core::ExperimentConfig& cfg) {
  cfg.dataset = "synth-cifar10";
  cfg.image_size = 16;
  cfg.num_clients = 20;
  cfg.models = core::ModelScheme::kHeterogeneous;
  cfg.partition = core::PartitionScheme::kDirichlet;
  cfg.dirichlet_alpha = 0.5;
  cfg.train_per_class = 30;
}

void fedavg_shm(core::ExperimentConfig& cfg) {
  cfg.dataset = "synth-fmnist";
  cfg.image_size = 8;
  cfg.num_clients = 20;
  cfg.models = core::ModelScheme::kHomogeneousResNet;
  cfg.width = 16;
  cfg.train_per_class = 4;  // 2 samples per client
  cfg.test_per_client = 8;   // keeps eval from hiding the model traffic
  cfg.transport.kind = fca::comm::TransportKind::kShm;
  // The auto ring size at 21 ranks (128 KiB) cannot hold one model frame.
  cfg.transport.shm_ring_capacity = 1u << 20;
}

void paged_cohort(core::ExperimentConfig& cfg) {
  cfg.dataset = "synth-cifar10";
  cfg.image_size = 12;
  cfg.num_clients = 200;
  cfg.models = core::ModelScheme::kHeterogeneous;
  cfg.train_per_class = 40;  // 2 samples per client
  cfg.test_per_client = 8;    // keeps eval from hiding the paging
  cfg.sample_rate = 16.0 / 200.0;
  cfg.eval_clients = 16;
  cfg.max_resident_clients = kPagedBudget;
  cfg.lazy_init = true;
}

void serial_reference(core::ExperimentConfig& cfg) {
  cfg.client_parallelism = 1;
}
void inproc_reference(core::ExperimentConfig& cfg) {
  cfg.transport = fca::comm::TransportOptions{};
}
void resident_reference(core::ExperimentConfig& cfg) {
  cfg.max_resident_clients = 0;
  cfg.lazy_init = false;
}

const Workload kWorkloads[] = {
    {"hetero-fca", 200, 0.70, false, hetero_fca, serial_reference,
     "undecorated client_parallelism=1 run"},
    {"fedavg-shm", 360, 0.40, true, fedavg_shm, inproc_reference,
     "inproc run"},
    {"paged-cohort", 540, 0.50, false, paged_cohort, resident_reference,
     "all-resident run"},
};

const Workload* find_workload(const std::string& name) {
  for (const Workload& w : kWorkloads) {
    if (name == w.name) return &w;
  }
  return nullptr;
}

core::ExperimentConfig workload_config(const Workload& w, uint64_t seed,
                                       int rounds,
                                       const std::string& page_dir) {
  core::ExperimentConfig cfg;
  cfg.width = 8;
  cfg.feature_dim = 32;
  cfg.test_per_class = 20;
  cfg.test_per_client = 40;
  w.configure(cfg);
  cfg.with_scaled_preset();
  cfg.rounds = rounds;
  cfg.eval_every = 1;
  cfg.seed = seed;
  cfg.client_parallelism = lanes();
  cfg.page_dir = page_dir;
  return cfg;
}

std::unique_ptr<fl::RoundStrategy> make_strategy(const Workload& w,
                                                 const core::Experiment& exp) {
  if (w.fedavg) return std::make_unique<fl::FedAvg>();
  return std::make_unique<core::FedClassAvg>(exp.fedclassavg_config());
}

/// One child process: what it runs and where it writes.
struct ChildArgs {
  std::string mode;  // timed | traced | setup | oracle
  const Workload* workload = nullptr;
  uint64_t seed = 1;
  int rounds = 1;
  int probe_calls = kProbeCalls;
  std::string report_path, page_dir, trace_path;
};

// ---------------------------------------------------------------------------
// Child report: "m <name> <value>" and "row <text>" lines in a file
// ---------------------------------------------------------------------------

struct Report {
  std::map<std::string, double> metrics;
  std::vector<std::string> rows;

  double get(const std::string& name) const {
    const auto it = metrics.find(name);
    if (it == metrics.end()) {
      throw std::runtime_error("child report lacks " + name);
    }
    return it->second;
  }

  void write(const std::string& path) const {
    std::ofstream out(path);
    char buf[64];
    for (const auto& [name, value] : metrics) {
      std::snprintf(buf, sizeof(buf), "%.17g", value);
      out << "m " << name << ' ' << buf << '\n';
    }
    for (const std::string& r : rows) out << "row " << r << '\n';
    if (!out.good()) throw std::runtime_error("cannot write " + path);
  }

  static Report read(const std::string& path) {
    std::ifstream in(path);
    if (!in) throw std::runtime_error("missing child report " + path);
    Report r;
    std::string line;
    while (std::getline(in, line)) {
      if (line.rfind("m ", 0) == 0) {
        std::istringstream ss(line.substr(2));
        std::string name;
        double value = 0.0;
        ss >> name >> value;
        r.metrics[name] = value;
      } else if (line.rfind("row ", 0) == 0) {
        r.rows.push_back(line.substr(4));
      }
    }
    return r;
  }
};

/// One curve row with every logical field at full precision (wall time
/// excluded): the unit the oracles compare.
std::string row_text(const fl::RoundMetrics& m) {
  std::ostringstream os;
  os.precision(17);
  os << m.round << ' ' << m.mean_accuracy << ' ' << m.std_accuracy << ' '
     << m.mean_train_loss << ' ' << m.round_bytes << ' ' << m.selected_count
     << ' ' << m.survivor_count << ' ' << m.fault_events << ' '
     << m.real_fault_events;
  for (double a : m.client_accuracies) os << ' ' << a;
  return os.str();
}

// ---------------------------------------------------------------------------
// Outside-in timing: strategy decorator + round hook
// ---------------------------------------------------------------------------

struct RoundStamp {
  Clock::time_point body_begin, body_end, hook;
  fl::ClientStoreStats store;  // traced runs only, read at the hook
  uint64_t messages = 0;
};

struct RunClock {
  Clock::time_point origin;  // before the Experiment constructor
  Clock::time_point experiment_done, store_done, run_ctor_done;
  Clock::time_point init_begin, init_end;
  std::vector<RoundStamp> rounds;  // index r - 1
  bool stop_before_round_1 = false;
};

/// Thrown by a set-up-only run at the first execute_round.
struct SetupComplete : std::exception {
  const char* what() const noexcept override { return "setup complete"; }
};

class TimedStrategy final : public fl::RoundStrategy {
 public:
  TimedStrategy(fl::RoundStrategy& inner, RunClock& clock)
      : inner_(inner), clock_(clock) {}

  std::string name() const override { return inner_.name(); }
  void initialize(fl::FederatedRun& run) override {
    clock_.init_begin = Clock::now();
    inner_.initialize(run);
    clock_.init_end = Clock::now();
  }
  float execute_round(fl::FederatedRun& run, int round,
                      const std::vector<int>& selected) override {
    clock_.rounds.emplace_back().body_begin = Clock::now();
    if (clock_.stop_before_round_1) throw SetupComplete();
    const float loss = inner_.execute_round(run, round, selected);
    clock_.rounds.back().body_end = Clock::now();
    return loss;
  }
  bool supports_lazy_init() const override {
    return inner_.supports_lazy_init();
  }
  fca::comm::Bytes initialize_lazy(fl::FederatedRun& run) override {
    clock_.init_begin = Clock::now();
    fca::comm::Bytes payload = inner_.initialize_lazy(run);
    clock_.init_end = Clock::now();
    return payload;
  }
  void bootstrap_client(fl::FederatedRun& run, fl::Client& client,
                        const fca::comm::Bytes& payload) override {
    inner_.bootstrap_client(run, client, payload);
  }
  fca::comm::Bytes save_state() const override { return inner_.save_state(); }
  void load_state(std::span<const std::byte> state) override {
    inner_.load_state(state);
  }

 private:
  fl::RoundStrategy& inner_;
  RunClock& clock_;
};

class RoundRecorder final : public fl::RoundHook {
 public:
  RoundRecorder(RunClock& clock, bool traced)
      : clock_(clock), traced_(traced) {}
  void after_round(fl::FederatedRun& run, fl::RoundStrategy& strategy,
                   const fl::ResumeState& cursor) override {
    (void)strategy;
    (void)cursor;
    RoundStamp& s = clock_.rounds.back();
    s.hook = Clock::now();
    if (traced_) {
      s.store = run.store().stats();
      s.messages = run.network().total_stats().messages;
    }
  }

 private:
  RunClock& clock_;
  bool traced_;
};

/// One workload run assembled the way Experiment::execute does it, with
/// clocks around each constructor. Members are declared so the run (which
/// holds the store whose factory points at the Experiment) dies first.
struct Harness {
  RunClock clock;
  std::unique_ptr<core::Experiment> exp;
  std::unique_ptr<fl::RoundStrategy> inner;
  std::unique_ptr<TimedStrategy> strategy;
  std::unique_ptr<fl::FederatedRun> run;
  fl::RunResult result;
  Clock::time_point done;

  Harness(const Workload& w, const core::ExperimentConfig& cfg) {
    clock.rounds.reserve(static_cast<size_t>(cfg.rounds));
    clock.origin = Clock::now();
    exp = std::make_unique<core::Experiment>(cfg);
    clock.experiment_done = Clock::now();
    std::unique_ptr<fl::ClientStore> store = exp->build_store();
    clock.store_done = Clock::now();
    run = std::make_unique<fl::FederatedRun>(std::move(store),
                                             exp->fl_config());
    clock.run_ctor_done = Clock::now();
    inner = make_strategy(w, *exp);
    strategy = std::make_unique<TimedStrategy>(*inner, clock);
  }

  void execute(fl::RoundHook* hook) {
    result = run->execute(*strategy, hook);
    done = Clock::now();
  }

  double setup_s() const {
    return s_between(clock.origin, clock.rounds.front().body_begin);
  }
};

// ---------------------------------------------------------------------------
// Child bodies
// ---------------------------------------------------------------------------

/// Round wall times hook(r - 1) -> hook(r) for the rounds after warm-up.
std::vector<double> round_ms(const RunClock& c) {
  std::vector<double> out;
  for (size_t r = kWarmupRounds; r < c.rounds.size(); ++r) {
    out.push_back(ms_between(c.rounds[r - 1].hook, c.rounds[r].hook));
  }
  return out;
}

/// The tensors every round ships per client and per direction.
std::vector<Tensor> payload_tensors(Harness& h) {
  if (auto* fca_strategy = dynamic_cast<core::FedClassAvg*>(h.inner.get())) {
    return fca_strategy->global_classifier();
  }
  return models::snapshot_values(
      h.run->client_readonly(0).model().parameters());
}

void record_run_metrics(Harness& h, const Workload& w, Report& rep) {
  const std::vector<fl::RoundMetrics>& curve = h.result.curve;
  const size_t payload =
      models::serialize_tensors(payload_tensors(h)).size();
  double attempted = 0.0;
  double lost = 0.0;
  bool bytes_ok = curve.size() == h.clock.rounds.size();
  std::vector<double> bytes;
  int reached = 0;
  for (const fl::RoundMetrics& m : curve) {
    attempted += m.selected_count;
    lost += m.selected_count - m.survivor_count;
    const uint64_t expected =
        2ull * static_cast<uint64_t>(m.survivor_count) * payload;
    bytes_ok = bytes_ok && m.round_bytes == expected;
    if (m.round > kWarmupRounds) {
      bytes.push_back(static_cast<double>(m.round_bytes));
    }
    if (reached == 0 && m.mean_accuracy >= w.target_acc) reached = m.round;
    rep.rows.push_back(row_text(m));
  }
  const std::vector<double> rms = round_ms(h.clock);
  rep.metrics["setup_s"] = h.setup_s();
  rep.metrics["run_s"] = s_between(h.clock.origin, h.done);
  rep.metrics["round_ms.p50"] = quantile(rms, 0.5);
  rep.metrics["round_ms.p90"] = quantile(rms, 0.9);
  rep.metrics["bytes_per_round"] = median(bytes);
  rep.metrics["attempted"] = attempted;
  rep.metrics["failed"] =
      lost + static_cast<double>(h.result.total_faults.aborted_rounds);
  rep.metrics["bytes_identity_ok"] = bytes_ok ? 1.0 : 0.0;
  rep.metrics["core.final_acc"] = h.result.final_mean_accuracy;
  // A target the run never reaches reads as one round past its end.
  const int rounds = static_cast<int>(curve.size());
  rep.metrics["core.rounds_to_acc"] = reached > 0 ? reached : rounds + 1;
  rep.metrics["core.time_to_acc_s"] =
      reached > 0
          ? s_between(h.clock.origin,
                      h.clock.rounds[static_cast<size_t>(reached - 1)].hook)
          : s_between(h.clock.origin, h.done);
}

// -- traced-run layer rows ---------------------------------------------------

/// Median wall time (ms) of `calls` invocations of fn; `between` runs
/// untimed after each call (draining mailboxes, resetting state).
double probe_ms(int calls, const std::function<void()>& fn,
                const std::function<void()>& between = nullptr) {
  std::vector<double> v;
  for (int i = 0; i < calls; ++i) {
    const auto t0 = Clock::now();
    fn();
    v.push_back(ms_between(t0, Clock::now()));
    if (between) between();
  }
  return median(std::move(v));
}

/// Leaves of an extractor, recursing into nn::Sequential only: opaque blocks
/// (Residual, ShuffleUnit, BranchConcat) stay one row each.
void collect_leaves(nn::Module& m, std::vector<nn::Module*>& out) {
  if (auto* seq = dynamic_cast<nn::Sequential*>(&m)) {
    for (size_t i = 0; i < seq->size(); ++i) collect_leaves(seq->child(i), out);
  } else {
    out.push_back(&m);
  }
}

Tensor concat_batches(const Tensor& a, const Tensor& b) {
  fca::Shape shape = a.shape();
  shape[0] *= 2;
  Tensor out(shape);
  std::copy_n(a.data(), a.numel(), out.data());
  std::copy_n(b.data(), b.numel(), out.data() + a.numel());
  return out;
}

/// Forward, loss head, backward and Adam step of one FedClassAvg local batch
/// (eq. 4: CE + SupCon + proximal pull toward `global`, as
/// FedClassAvg::train_epoch builds it), split per extractor leaf and summed
/// by module name.
void probe_layers(fl::Client& c, const core::FedClassAvgConfig& fc,
                  const std::vector<Tensor>& global, int calls, Report& rep) {
  models::SplitModel& model = c.model();
  nn::Linear& clf = model.classifier();
  const std::string a = model.arch_name();
  std::vector<int> idx(static_cast<size_t>(
      std::min<int64_t>(c.config().batch_size, c.train_size())));
  for (size_t i = 0; i < idx.size(); ++i) idx[i] = static_cast<int>(i);
  const fca::data::Batch batch = fca::data::make_batch(c.train_data(), idx);
  const auto b = static_cast<int64_t>(batch.labels.size());
  auto [x1, x2] = c.augmentor().two_views(batch.images, c.rng());
  const Tensor x = concat_batches(x1, x2);
  std::vector<int> labels2 = batch.labels;
  labels2.insert(labels2.end(), batch.labels.begin(), batch.labels.end());
  std::vector<nn::Module*> leaves;
  collect_leaves(model.extractor(), leaves);

  std::map<std::string, std::vector<double>> samples;
  auto sample = [&](const std::string& row, Clock::time_point t0) {
    samples["nn." + a + "." + row].push_back(ms_between(t0, Clock::now()));
  };
  for (int i = 0; i < calls; ++i) {
    std::map<std::string, double> fwd, bwd;
    c.optimizer().zero_grad();
    auto t0 = Clock::now();
    Tensor cur = x;
    for (nn::Module* leaf : leaves) {
      const auto l0 = Clock::now();
      cur = leaf->forward(cur, /*train=*/true);
      fwd[leaf->name()] += ms_between(l0, Clock::now());
    }
    sample("fwd_ms", t0);

    t0 = Clock::now();
    ag::Variable f = ag::Variable::leaf(cur);
    ag::Variable w = ag::Variable::leaf(clf.weight().value);
    ag::Variable bias = ag::Variable::leaf(clf.bias().value);
    ag::Variable logits = ag::add_rowwise(
        ag::matmul(ag::slice_rows(f, 0, b), w, false, true), bias);
    ag::Variable loss = ag::cross_entropy(logits, batch.labels);
    loss = ag::add(loss, ag::supervised_contrastive(f, labels2, fc.temperature));
    ag::Variable dw = ag::sub(w, ag::Variable::constant(global[0]));
    ag::Variable db = ag::sub(bias, ag::Variable::constant(global[1]));
    ag::Variable ss = ag::add(ag::sum_squares(dw), ag::sum_squares(db));
    ag::Variable dist =
        ag::exp(ag::mul_scalar(ag::log(ag::add_scalar(ss, 1e-12f)), 0.5f));
    loss = ag::add(loss, ag::mul_scalar(dist, fc.rho));
    loss.backward();
    fca::add_(clf.weight().grad, w.grad());
    fca::add_(clf.bias().grad, bias.grad());
    Tensor grad = f.grad();
    samples["autograd." + a + ".head_ms"].push_back(
        ms_between(t0, Clock::now()));

    t0 = Clock::now();
    for (auto it = leaves.rbegin(); it != leaves.rend(); ++it) {
      const auto l0 = Clock::now();
      grad = (*it)->backward(grad);
      bwd[(*it)->name()] += ms_between(l0, Clock::now());
    }
    sample("bwd_ms", t0);

    t0 = Clock::now();
    c.optimizer().step();
    sample("step_ms", t0);

    for (const auto& [name, ms] : fwd) {
      samples["nn." + a + "." + name + ".fwd_ms"].push_back(ms);
    }
    for (const auto& [name, ms] : bwd) {
      samples["nn." + a + "." + name + ".bwd_ms"].push_back(ms);
    }
  }
  for (auto& [name, v] : samples) rep.metrics[name] = median(std::move(v));
}

/// Per-backbone rows at hetero-fca geometry, on fresh clients of a
/// hetero-fca Experiment with this run's seed (clients 0-3 hold the four
/// backbones), so every workload reports every backbone and a row means the
/// same on each.
void probe_backbones(uint64_t seed, int calls, Report& rep) {
  const core::Experiment exp(
      workload_config(*find_workload("hetero-fca"), seed, 1, ""));
  const core::FedClassAvg strategy(exp.fedclassavg_config());
  for (int k = 0; k < 4; ++k) {
    const fl::ClientPtr c = exp.build_client(k);
    const std::string a = c->model().arch_name();
    const std::vector<Tensor> global =
        models::snapshot_values(c->model().classifier_parameters());
    rep.metrics["core.local_epoch_ms." + a] = probe_ms(
        calls, [&] { strategy.train_epoch(*c, global[0], global[1]); });
    rep.metrics["fl.client_eval_ms." + a] =
        probe_ms(calls, [&] { (void)c->evaluate(); });
    probe_layers(*c, strategy.config(), global, calls, rep);
  }
}

/// Share of client-lane time a round body leaves idle (the straggler wait):
/// 1 - sum over the cohort of local-epoch time / (lanes x round body p50),
/// with epoch times probed on the run's own clients.
double idle_pct(Harness& h, int calls, int cohort_size, double body_p50) {
  fl::FederatedRun& run = *h.run;
  auto* fca_strategy = dynamic_cast<core::FedClassAvg*>(h.inner.get());
  const bool hetero =
      h.exp->config().models == core::ModelScheme::kHeterogeneous;
  auto arch_of = [&](int k) {
    return hetero ? models::heterogeneous_arch_for_client(k)
                  : models::Arch::kMiniResNet;
  };
  std::map<models::Arch, double> epoch_ms;
  for (int k = 0; k < std::min(4, run.num_clients()); ++k) {
    if (epoch_ms.count(arch_of(k)) != 0) continue;
    const fl::ClientStore::Lease lease = run.lease_client(k);
    std::vector<Tensor> global;
    if (fca_strategy != nullptr) global = fca_strategy->global_classifier();
    epoch_ms[arch_of(k)] = probe_ms(calls, [&] {
      if (fca_strategy != nullptr) {
        fca_strategy->train_epoch(*lease, global[0], global[1]);
      } else {
        lease->train_epoch_supervised();
      }
    });
  }
  double busy_ms = 0.0;
  for (int k = 0; k < run.num_clients(); ++k) busy_ms += epoch_ms[arch_of(k)];
  busy_ms *= run.config().local_epochs * static_cast<double>(cohort_size) /
             run.num_clients();
  return 100.0 *
         (1.0 - busy_ms / (run.executor().parallelism() * body_p50));
}

/// fl::ClientStore paging costs, timed at the store's entry points: lease
/// (the call FederatedRun::lease_client makes) for page loads and fresh
/// materializations, classified by the stats delta each lease causes, and
/// evict_idle for page writes. A resident run's store never pages, so its
/// clients are paged through a probe store with the same factory and
/// paged-cohort's budget.
void probe_store(Harness& h, int calls, const std::string& page_dir,
                 Report& rep) {
  const int population = h.run->num_clients();
  fl::ClientStore* store = &h.run->store();
  std::unique_ptr<fl::ClientStore> probe;
  if (!store->paged()) {
    std::vector<int64_t> sizes;
    for (int k = 0; k < population; ++k) sizes.push_back(store->train_size(k));
    fl::ClientStoreOptions opts;
    opts.max_resident = kPagedBudget;
    opts.page_dir = page_dir + "/probe";
    const core::Experiment& exp = *h.exp;
    probe = std::make_unique<fl::ClientStore>(
        population, [&exp](int k) { return exp.build_client(k); },
        std::move(sizes), opts);
    store = probe.get();
    for (int k = 0; k < std::min(population, kPagedBudget - 1); ++k) {
      store->lease(k, /*mark_dirty=*/true).release();
    }
  }
  std::vector<int> dirty;
  for (int k = 0; k < population; ++k) {
    if (store->dirty(k)) dirty.push_back(k);
  }
  std::vector<double> writes, loads, mats;
  size_t next = 0;
  const size_t batch =
      std::min(dirty.size(), static_cast<size_t>(store->max_resident() - 1));
  for (int i = 0; i < calls && !dirty.empty(); ++i) {
    fl::ClientStoreStats before = store->stats();
    auto t0 = Clock::now();
    store->evict_idle();
    const double dt = ms_between(t0, Clock::now());
    const uint64_t wrote = store->stats().page_writes - before.page_writes;
    if (wrote > 0) writes.push_back(dt / static_cast<double>(wrote));
    for (size_t j = 0; j < batch; ++j) {
      const int k = dirty[next++ % dirty.size()];
      before = store->stats();
      t0 = Clock::now();
      store->lease(k, true).release();
      const double lease_ms = ms_between(t0, Clock::now());
      const fl::ClientStoreStats after = store->stats();
      if (after.page_loads == before.page_loads + 1 &&
          after.page_writes == before.page_writes) {
        loads.push_back(lease_ms);
      }
    }
  }
  store->evict_idle();
  for (int i = 0; i < calls; ++i) {
    const int k = i % population;
    store->invalidate(k);
    const fl::ClientStoreStats before = store->stats();
    const auto t0 = Clock::now();
    store->lease(k, true).release();
    const double lease_ms = ms_between(t0, Clock::now());
    const fl::ClientStoreStats after = store->stats();
    if (after.materializations == before.materializations + 1 &&
        after.page_loads == before.page_loads) {
      mats.push_back(lease_ms);
    }
  }
  rep.metrics["fl.store.page_write_ms"] = median(writes);
  rep.metrics["fl.store.page_load_ms"] = median(loads);
  rep.metrics["fl.store.materialize_ms"] = median(mats);
}

/// Probes after the run: payload (de)serialization, fabric broadcast and
/// upload to one cohort, and aggregation on the run's own objects; the
/// executor's idle share; per-backbone rows; client-store paging.
void run_probes(Harness& h, const ChildArgs& a, double body_p50,
                Report& rep) {
  fl::FederatedRun& run = *h.run;
  const int calls = a.probe_calls;
  const std::vector<Tensor> tensors = payload_tensors(h);
  const fca::comm::Bytes bytes = models::serialize_tensors(tensors);
  size_t sink = 0;
  rep.metrics["models.serialize_ms"] = probe_ms(
      calls, [&] { sink += models::serialize_tensors(tensors).size(); });
  rep.metrics["models.deserialize_ms"] = probe_ms(
      calls, [&] { sink += models::deserialize_tensors(bytes).size(); });

  const int cohort_size = std::max(
      1, static_cast<int>(std::lround(run.config().sample_rate *
                                      run.num_clients())));
  std::vector<int> cohort(static_cast<size_t>(cohort_size));
  for (int k = 0; k < cohort_size; ++k) cohort[static_cast<size_t>(k)] = k;
  rep.metrics["comm.bcast_ms"] = probe_ms(
      calls,
      [&] {
        run.server_endpoint().bcast_send(fl::FederatedRun::ranks_of(cohort),
                                         fl::kTagModelDown, bytes);
      },
      [&] {
        for (int k : cohort) {
          sink += run.client_endpoint(k).recv(0, fl::kTagModelDown).size();
        }
      });
  rep.metrics["comm.upload_ms"] = probe_ms(calls, [&] {
    for (int k : cohort) {
      run.client_endpoint(k).send(0, fl::kTagModelUp, bytes);
    }
    for (int k : cohort) {
      sink += run.server_endpoint().recv(k + 1, fl::kTagModelUp).size();
    }
  });
  const std::vector<double> weights = run.data_weights(cohort);
  rep.metrics["fl.aggregate_ms"] = probe_ms(calls, [&] {
    std::vector<Tensor> agg;
    for (const Tensor& t : tensors) agg.emplace_back(t.shape());
    for (size_t i = 0; i < cohort.size(); ++i) {
      const std::vector<Tensor> up = models::deserialize_tensors(bytes);
      for (size_t t = 0; t < agg.size(); ++t) {
        fca::axpy_(agg[t], static_cast<float>(weights[i]), up[t]);
      }
    }
    sink += agg.size();
  });
  if (sink == 0) throw std::runtime_error("payload probes moved no bytes");

  {
    // Client bodies run one per lane with kernel parallelism off
    // (fl/executor.hpp); the per-client probes reproduce that.
    std::unique_ptr<fca::ThreadPool::SerialRegion> serial;
    if (run.executor().parallelism() > 1) {
      serial = std::make_unique<fca::ThreadPool::SerialRegion>();
    }
    rep.metrics["fl.executor.idle_pct"] =
        idle_pct(h, calls, cohort_size, body_p50);
    probe_backbones(a.seed, calls, rep);
  }
  probe_store(h, calls, a.page_dir, rep);
}

/// Bench-side spans, kept in memory until the run ends and then exported
/// through obs::export_trace. Wall times are relative to the run's origin.
class SpanLog {
 public:
  explicit SpanLog(Clock::time_point origin) : origin_(origin) {}
  void add(int round, const char* name, Clock::time_point a,
           Clock::time_point b) {
    fca::obs::TraceEvent e;
    e.round = round;
    e.rank = 0;
    e.seq = next_seq_[round]++;
    e.cat = "bench";
    e.name = name;
    e.ts_us = std::chrono::duration<double, std::micro>(a - origin_).count();
    e.dur_us = std::chrono::duration<double, std::micro>(b - a).count();
    events_.push_back(e);
  }
  void write(const std::string& path) const {
    fca::obs::export_trace(path, events_);
  }

 private:
  Clock::time_point origin_;
  std::map<int, uint64_t> next_seq_;
  std::vector<fca::obs::TraceEvent> events_;
};

/// Per-layer rows of a traced run: set-up phases, the round split,
/// per-round counters from hook deltas of public getters, then the probes.
/// Writes the spans to `trace_path`.
void record_traced_metrics(Harness& h, const ChildArgs& a, Report& rep) {
  const RunClock& c = h.clock;
  rep.metrics["core.experiment_s"] = s_between(c.origin, c.experiment_done);
  rep.metrics["fl.store_build_s"] = s_between(c.experiment_done, c.store_done);
  rep.metrics["fl.run_ctor_s"] = s_between(c.store_done, c.run_ctor_done);
  rep.metrics["fl.init_s"] = s_between(c.init_begin, c.init_end);

  SpanLog spans(c.origin);
  spans.add(0, "experiment", c.origin, c.experiment_done);
  spans.add(0, "store-build", c.experiment_done, c.store_done);
  spans.add(0, "run-ctor", c.store_done, c.run_ctor_done);
  spans.add(0, "init", c.init_begin, c.init_end);
  std::vector<double> body, eval, sampling;
  double msgs = 0.0, writes = 0.0, loads = 0.0, mats = 0.0, drops = 0.0;
  for (size_t i = 0; i < c.rounds.size(); ++i) {
    const RoundStamp& s = c.rounds[i];
    const Clock::time_point prev = i == 0 ? c.init_end : c.rounds[i - 1].hook;
    const int r = static_cast<int>(i) + 1;
    spans.add(r, "round", prev, s.hook);
    spans.add(r, "sampling", prev, s.body_begin);
    spans.add(r, "round-body", s.body_begin, s.body_end);
    spans.add(r, "eval", s.body_end, s.hook);
    if (i < kWarmupRounds) continue;
    body.push_back(ms_between(s.body_begin, s.body_end));
    eval.push_back(ms_between(s.body_end, s.hook));
    sampling.push_back(ms_between(prev, s.body_begin));
    const RoundStamp& p = c.rounds[i - 1];
    msgs += static_cast<double>(s.messages - p.messages);
    writes += static_cast<double>(s.store.page_writes - p.store.page_writes);
    loads += static_cast<double>(s.store.page_loads - p.store.page_loads);
    mats += static_cast<double>(s.store.materializations -
                                p.store.materializations);
    drops += static_cast<double>(s.store.clean_drops - p.store.clean_drops);
  }
  const double n = std::max<double>(1.0, static_cast<double>(body.size()));
  const double body_p50 = median(body);
  rep.metrics["fl.round_body_ms.p50"] = body_p50;
  rep.metrics["fl.eval_ms.p50"] = median(eval);
  rep.metrics["fl.sampling_ms.p50"] = median(sampling);
  rep.metrics["comm.msgs_per_round"] = msgs / n;
  rep.metrics["comm.retry_events"] =
      static_cast<double>(h.run->network().transport().retry_events());
  rep.metrics["fl.store.page_writes_per_round"] = writes / n;
  rep.metrics["fl.store.page_loads_per_round"] = loads / n;
  rep.metrics["fl.store.materializations_per_round"] = mats / n;
  rep.metrics["fl.store.clean_drops_per_round"] = drops / n;
  rep.metrics["fl.store.loads_per_write"] = writes > 0.0 ? loads / writes : 0.0;

  const Clock::time_point p0 = Clock::now();
  run_probes(h, a, body_p50, rep);
  spans.add(0, "probes", p0, Clock::now());
  spans.write(a.trace_path);
}

int run_child(const ChildArgs& a) {
  fca::set_log_level(fca::LogLevel::kWarn);
  const Workload& w = *a.workload;
  core::ExperimentConfig cfg =
      workload_config(w, a.seed, a.rounds, a.page_dir);
  Report rep;
  if (a.mode == "oracle") {
    w.reference(cfg);
    const core::Experiment exp(cfg);
    std::unique_ptr<fl::RoundStrategy> strategy = make_strategy(w, exp);
    const core::CompletedRun done = exp.execute(*strategy);
    for (const fl::RoundMetrics& m : done.result.curve) {
      rep.rows.push_back(row_text(m));
    }
  } else if (a.mode == "setup") {
    Harness h(w, cfg);
    h.clock.stop_before_round_1 = true;
    try {
      h.execute(nullptr);
      throw std::runtime_error("set-up-only run did not stop at round 1");
    } catch (const SetupComplete&) {
    }
    rep.metrics["setup_s"] = h.setup_s();
  } else {
    const bool traced = a.mode == "traced";
    Harness h(w, cfg);
    RoundRecorder hook(h.clock, traced);
    h.execute(&hook);
    record_run_metrics(h, w, rep);
    if (traced) record_traced_metrics(h, a, rep);
  }
  rep.write(a.report_path);
  return 0;
}

// ---------------------------------------------------------------------------
// Parent: child processes, passes, oracles, output
// ---------------------------------------------------------------------------

/// A fresh mkdtemp directory under `parent`, removed with its contents on
/// destruction. Concurrent invocations never share paths.
class TempDir {
 public:
  explicit TempDir(const std::string& parent) {
    std::filesystem::create_directories(parent);
    std::string tmpl = parent + "/e2e.XXXXXX";
    if (mkdtemp(tmpl.data()) == nullptr) {
      throw std::runtime_error("mkdtemp under " + parent + " failed: " +
                               std::strerror(errno));
    }
    path_ = tmpl;
  }
  ~TempDir() {
    std::error_code ec;
    std::filesystem::remove_all(path_, ec);
  }
  TempDir(const TempDir&) = delete;
  TempDir& operator=(const TempDir&) = delete;
  const std::string& path() const { return path_; }

 private:
  std::string path_;
};

struct ChildResult {
  Report report;
  double peak_rss_mb = 0.0;
};

/// Re-execs this binary as `--child <args>`, waits for it with wait4 and
/// returns its report plus peak RSS (Linux reports ru_maxrss in KiB).
ChildResult spawn_child(const ChildArgs& a) {
  std::vector<std::string> args = {
      "bench_e2e", "--child", a.mode, a.workload->name,
      std::to_string(a.seed), std::to_string(a.rounds),
      std::to_string(a.probe_calls), a.report_path, a.page_dir,
      a.trace_path.empty() ? "-" : a.trace_path};
  std::vector<char*> argv;
  for (std::string& s : args) argv.push_back(s.data());
  argv.push_back(nullptr);
  std::fflush(stdout);
  std::fflush(stderr);
  const pid_t parent = getpid();
  const pid_t pid = fork();
  if (pid < 0) throw std::runtime_error("fork failed");
  if (pid == 0) {
    // The child must not outlive an interrupted parent.
    if (prctl(PR_SET_PDEATHSIG, SIGKILL) != 0 || getppid() != parent) {
      _exit(127);
    }
    execv("/proc/self/exe", argv.data());
    std::perror("execv");
    _exit(127);
  }
  int status = 0;
  struct rusage ru;
  std::memset(&ru, 0, sizeof(ru));
  while (wait4(pid, &status, 0, &ru) < 0) {
    if (errno != EINTR) throw std::runtime_error("wait4 failed");
  }
  if (!WIFEXITED(status) || WEXITSTATUS(status) != 0) {
    throw std::runtime_error(std::string(a.workload->name) + " " + a.mode +
                             " child failed (status " +
                             std::to_string(status) + ")");
  }
  ChildResult r;
  r.report = Report::read(a.report_path);
  r.peak_rss_mb = static_cast<double>(ru.ru_maxrss) / 1024.0;
  return r;
}

struct Options {
  std::vector<const Workload*> workloads;
  uint64_t seed = 1;
  int seconds = kNominalSeconds;
  bool traced = false;
  bool smoke = false;
  std::string spec_path;
  std::string out_dir = "bench_out";
};

struct Outcome {
  bool correct = true;
  double attempted = 0.0;
  double failed = 0.0;
  std::map<std::string, double> metrics;
};

/// First K rows of `run` must equal `ref` exactly.
bool rows_match(const std::string& what, const std::vector<std::string>& run,
                const std::vector<std::string>& ref, size_t k) {
  if (run.size() < k || ref.size() < k) {
    std::fprintf(stderr, "ORACLE %s: expected %zu rows, got %zu and %zu\n",
                 what.c_str(), k, run.size(), ref.size());
    return false;
  }
  for (size_t i = 0; i < k; ++i) {
    if (run[i] != ref[i]) {
      std::fprintf(stderr, "ORACLE %s: row %zu differs\n  run: %s\n  ref: %s\n",
                   what.c_str(), i + 1, run[i].c_str(), ref[i].c_str());
      return false;
    }
  }
  return true;
}

bool bytes_identity(const Workload& w, const Report& r) {
  if (r.get("bytes_identity_ok") == 1.0) return true;
  std::fprintf(stderr,
               "ORACLE %s: a round's traffic differs from 2 x survivors x "
               "payload bytes\n",
               w.name);
  return false;
}

Outcome run_workload(const Workload& w, const Options& opt, bool traced) {
  const int rounds =
      opt.smoke ? 3
                : std::max(kOracleRounds,
                           static_cast<int>(std::lround(
                               static_cast<double>(w.rounds) * opt.seconds /
                               kNominalSeconds)));
  const int k = std::min(kOracleRounds, rounds);
  TempDir tmp(opt.out_dir);
  int child_index = 0;
  auto args = [&](const char* mode, int n) {
    ChildArgs a;
    a.mode = mode;
    a.workload = &w;
    a.seed = opt.seed;
    a.rounds = n;
    a.probe_calls = opt.smoke ? 1 : kProbeCalls;
    const std::string tag = std::to_string(child_index++);
    a.report_path = tmp.path() + "/report" + tag + ".txt";
    a.page_dir = tmp.path() + "/pages" + tag;
    return a;
  };

  // Set-up-only children straddle the timed run, so that a burst of host
  // contention rarely reaches most of them.
  const int extra_setups = traced ? 0 : opt.smoke ? 1 : kExtraSetups;
  std::vector<double> setups;
  auto run_setups = [&](int n) {
    for (int i = 0; i < n; ++i) {
      setups.push_back(spawn_child(args("setup", rounds)).report.get("setup_s"));
    }
  };
  run_setups(extra_setups / 2);
  const ChildResult timed = spawn_child(args("timed", rounds));
  setups.push_back(timed.report.get("setup_s"));
  run_setups(extra_setups - extra_setups / 2);
  const ChildResult ref = spawn_child(args("oracle", k));

  Outcome out;
  out.correct = rows_match(std::string(w.name) + " vs " + w.reference_name,
                           timed.report.rows, ref.report.rows,
                           static_cast<size_t>(k)) &&
                bytes_identity(w, timed.report);
  out.attempted = timed.report.get("attempted");
  out.failed = timed.report.get("failed");

  if (!traced) {
    out.metrics["setup_s"] = median(setups);
    for (const char* m : {"run_s", "round_ms.p50", "round_ms.p90",
                          "bytes_per_round"}) {
      out.metrics[m] = timed.report.get(m);
    }
    out.metrics["peak_rss_mb"] = timed.peak_rss_mb;
    return out;
  }

  ChildArgs ta = args("traced", rounds);
  ta.trace_path = opt.out_dir + "/e2e_trace_" + w.name + ".json";
  const ChildResult tr = spawn_child(ta);
  out.correct = rows_match(std::string(w.name) + " traced vs timed",
                           tr.report.rows, timed.report.rows,
                           timed.report.rows.size()) &&
                bytes_identity(w, tr.report) && out.correct;
  out.attempted += tr.report.get("attempted");
  out.failed += tr.report.get("failed");
  // Per-layer rows have dotted names; round_ms.* are the traced run's own
  // run-level numbers.
  for (const auto& [name, value] : tr.report.metrics) {
    if (name.find('.') != std::string::npos && name.rfind("round_ms.", 0) != 0) {
      out.metrics[name] = value;
    }
  }
  for (const char* m :
       {"core.final_acc", "core.rounds_to_acc", "core.time_to_acc_s"}) {
    out.metrics[m] = timed.report.get(m);
  }
  out.metrics["bench.trace_overhead_pct"] =
      100.0 * (tr.report.get("round_ms.p50") /
                   timed.report.get("round_ms.p50") -
               1.0);
  return out;
}

std::string unit_of(const std::string& name) {
  auto ends = [&](const char* s) {
    const size_t n = std::strlen(s);
    return name.size() >= n && name.compare(name.size() - n, n, s) == 0;
  };
  if (name == "bytes_per_round") return "B";
  if (name == "peak_rss_mb") return "MiB";
  if (name == "core.final_acc") return "fraction";
  if (name == "core.rounds_to_acc") return "rounds";
  if (name == "comm.retry_events") return "count";
  if (name == "fl.store.loads_per_write") return "ratio";
  if (ends("_pct")) return "%";
  if (ends("_s")) return "s";
  if (ends("_ms") || name.find("_ms.") != std::string::npos) return "ms";
  if (ends("_per_round")) return "count/round";
  return "count";
}

/// Metric names (and units) the spec lists for this pass.
std::vector<std::pair<std::string, std::string>> spec_metrics(
    const std::string& path, bool traced) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("cannot read spec " + path);
  std::stringstream ss;
  ss << in.rdbuf();
  const fca::bench_json::Value spec = fca::bench_json::parse(ss.str());
  std::vector<std::pair<std::string, std::string>> out;
  for (const fca::bench_json::Value& m :
       spec.at(traced ? "per_layer" : "end_to_end").array) {
    out.emplace_back(m.at("name").string, m.at("unit").string);
  }
  return out;
}

/// Prints the human-readable rows and the result JSON line. With a spec the
/// metrics are exactly its names; a name not produced is an error.
void print_outcome(const Workload& w, const Outcome& o, const Options& opt,
                   bool traced) {
  std::vector<std::pair<std::string, std::string>> names;
  if (!opt.spec_path.empty()) {
    names = spec_metrics(opt.spec_path, traced);
  } else {
    for (const auto& [name, value] : o.metrics) {
      names.emplace_back(name, unit_of(name));
    }
  }
  std::ostringstream json;
  json.precision(17);
  json << "{\"correct\": " << (o.correct ? "true" : "false")
       << ", \"attempted\": " << static_cast<long long>(o.attempted)
       << ", \"failed\": " << static_cast<long long>(o.failed)
       << ", \"metrics\": {";
  bool first = true;
  for (const auto& [name, unit] : names) {
    const auto it = o.metrics.find(name);
    if (it == o.metrics.end()) {
      throw std::runtime_error("spec metric " + name + " is not produced by " +
                               "the " + (traced ? "traced" : "timed") +
                               " pass");
    }
    if (!std::isfinite(it->second)) {
      throw std::runtime_error("metric " + name + " is not finite");
    }
    if (unit != unit_of(name)) {
      throw std::runtime_error("spec unit of " + name + " is " + unit +
                               ", the program reports " + unit_of(name));
    }
    std::printf("%-14s %-44s %16.6g %s\n", w.name, name.c_str(), it->second,
                unit.c_str());
    json << (first ? "" : ", ") << '"' << name << "\": {\"value\": "
         << it->second << ", \"unit\": \"" << unit << "\"}";
    first = false;
  }
  json << "}}";
  std::printf("%s\n", json.str().c_str());
  std::fflush(stdout);
}

int usage(const char* why) {
  std::fprintf(stderr,
               "bench_e2e: %s\n"
               "usage: bench_e2e [--workload NAME|all] [--seed N] "
               "[--seconds S] [--trace 0|1] [--traced] [--smoke]\n"
               "                 [--spec BENCHMARK.json] [--out-dir DIR]\n"
               "workloads: hetero-fca fedavg-shm paged-cohort\n",
               why);
  return 2;
}

bool parse_uint(const char* s, uint64_t max, uint64_t& out) {
  if (s == nullptr || *s < '0' || *s > '9') return false;
  char* end = nullptr;
  errno = 0;
  const unsigned long long v = std::strtoull(s, &end, 10);
  if (errno != 0 || *end != '\0' || v > max) return false;
  out = v;
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    if (argc == 10 && std::strcmp(argv[1], "--child") == 0) {
      ChildArgs a;
      uint64_t seed = 0, rounds = 0, calls = 0;
      a.mode = argv[2];
      a.workload = find_workload(argv[3]);
      if (a.workload == nullptr || !parse_uint(argv[4], UINT64_MAX, seed) ||
          !parse_uint(argv[5], 1u << 20, rounds) ||
          !parse_uint(argv[6], 1u << 20, calls)) {
        return usage("bad child arguments");
      }
      a.seed = seed;
      a.rounds = static_cast<int>(rounds);
      a.probe_calls = static_cast<int>(calls);
      a.report_path = argv[7];
      a.page_dir = argv[8];
      a.trace_path = argv[9];
      return run_child(a);
    }

    Options opt;
    std::string workload = "all";
    for (int i = 1; i < argc; ++i) {
      const std::string flag = argv[i];
      const char* value = i + 1 < argc ? argv[i + 1] : nullptr;
      uint64_t v = 0;
      if (flag == "--smoke") {
        opt.smoke = true;
      } else if (flag == "--traced") {
        opt.traced = true;
      } else if (value == nullptr) {
        return usage(("missing value for " + flag).c_str());
      } else if (flag == "--workload") {
        workload = argv[++i];
      } else if (flag == "--seed") {
        if (!parse_uint(argv[++i], UINT64_MAX, v)) return usage("bad --seed");
        opt.seed = v;
      } else if (flag == "--seconds") {
        if (!parse_uint(argv[++i], 3600, v) || v == 0) {
          return usage("--seconds must be in [1, 3600]");
        }
        opt.seconds = static_cast<int>(v);
      } else if (flag == "--trace") {
        if (!parse_uint(argv[++i], 1, v)) return usage("--trace takes 0 or 1");
        opt.traced = v == 1;
      } else if (flag == "--spec") {
        opt.spec_path = argv[++i];
      } else if (flag == "--out-dir") {
        opt.out_dir = argv[++i];
      } else {
        return usage(("unknown flag " + flag).c_str());
      }
    }
    if (workload == "all") {
      for (const Workload& w : kWorkloads) opt.workloads.push_back(&w);
    } else if (const Workload* w = find_workload(workload)) {
      opt.workloads.push_back(w);
    } else {
      return usage(("unknown workload " + workload).c_str());
    }

    bool all_correct = true;
    for (const Workload* w : opt.workloads) {
      for (const bool traced : {false, true}) {
        if (!opt.smoke && traced != opt.traced) continue;
        const Outcome o = run_workload(*w, opt, traced);
        print_outcome(*w, o, opt, traced);
        all_correct = all_correct && o.correct;
      }
    }
    return all_correct ? 0 : 1;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "bench_e2e: %s\n", e.what());
    return 1;
  }
}
