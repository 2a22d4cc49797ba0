#include "fl/server.hpp"

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <limits>
#include <numeric>
#include <string_view>

#include "fl/rank_runner.hpp"
#include "models/serialize.hpp"
#include "obs/trace.hpp"
#include "utils/error.hpp"
#include "utils/logging.hpp"
#include "utils/timer.hpp"

namespace fca::fl {

namespace {

/// FCA_DETERMINISTIC_WALL=1 zeroes the wall-clock column of every metric
/// row. Wall time is the one field that legitimately differs between a
/// multi-process run and its all-local oracle; the equivalence tier sets
/// this in both so checkpoint images compare byte for byte.
bool deterministic_wall() {
  static const bool v = [] {
    const char* e = std::getenv("FCA_DETERMINISTIC_WALL");
    return e != nullptr && *e != '\0' && std::string_view(e) != "0";
  }();
  return v;
}

/// Arms the executor's scoped hooks around strategy code only: evaluation
/// and harness sweeps keep all-local semantics on every rank.
class ScopeArmGuard {
 public:
  ScopeArmGuard(RoundExecutor& ex, bool active) : ex_(ex), active_(active) {
    if (active_) ex_.arm_scope(true);
  }
  ~ScopeArmGuard() {
    if (active_) ex_.arm_scope(false);
  }
  ScopeArmGuard(const ScopeArmGuard&) = delete;
  ScopeArmGuard& operator=(const ScopeArmGuard&) = delete;

 private:
  RoundExecutor& ex_;
  bool active_;
};

}  // namespace

void RoundStrategy::load_state(std::span<const std::byte> state) {
  FCA_CHECK_MSG(state.empty(),
                "strategy " << name() << " has no state to restore, got "
                            << state.size() << " bytes");
}

void RoundStrategy::bootstrap_client(FederatedRun& run, Client& client,
                                     const comm::Bytes& payload) {
  (void)run;
  (void)client;
  FCA_CHECK_MSG(payload.empty(),
                "strategy " << name() << " has no client bootstrap, got "
                            << payload.size() << " payload bytes");
}

FederatedRun::FederatedRun(std::unique_ptr<ClientStore> store,
                           FLConfig config)
    : store_(std::move(store)), config_(config) {
  FCA_CHECK_MSG(store_ != nullptr, "FederatedRun needs a client store");
  FCA_CHECK(config_.rounds >= 1 && config_.local_epochs >= 1 &&
            config_.sample_rate > 0.0 && config_.sample_rate <= 1.0 &&
            config_.eval_every >= 1 && config_.client_parallelism >= 0);
  FCA_CHECK_MSG(config_.quorum >= 1 && config_.quorum <= num_clients(),
                "quorum " << config_.quorum << " outside [1, "
                          << num_clients() << "]");
  if (config_.lazy_init) {
    FCA_CHECK_MSG(store_->rederivable(),
                  "--lazy-init needs a factory-backed client store (clients "
                  "must be re-derivable at first selection)");
  }
  // On single-core hosts the process-wide kernel pool has zero workers and
  // the executor would quietly degrade to serial. An explicit
  // client_parallelism > 1 is a request for real concurrency — back it with
  // a dedicated lane pool (bit-identity holds under any scheduling, so this
  // only changes wall-time). Auto (0) stays on the hardware-sized pool.
  if (config_.client_parallelism > 1 && global_pool().size() == 0) {
    lane_pool_ = std::make_unique<ThreadPool>(
        static_cast<unsigned>(config_.client_parallelism - 1));
  }
  if (config_.faults.enabled()) {
    FCA_CHECK_MSG(config_.faults.round_deadline_s > 0.0,
                  "round deadline must be positive, got "
                      << config_.faults.round_deadline_s
                      << " (--round-deadline)");
  }
  executor_ = RoundExecutor(config_.client_parallelism, lane_pool_.get());
  if (store_->paged()) {
    // Every executor lane pins one client while the driver's most recent
    // touch must stay resident too, so the budget needs lanes + 1 slots or
    // a concurrent round body would find every resident client pinned.
    int lanes = config_.client_parallelism;
    if (lanes == 0) lanes = static_cast<int>(global_pool().size()) + 1;
    FCA_CHECK_MSG(
        store_->max_resident() >= lanes + 1,
        "--max-resident-clients " << store_->max_resident()
                                  << " cannot back client parallelism "
                                  << lanes << "; need at least " << lanes + 1);
  }
  // The backend is swappable (FCA_TRANSPORT=inproc|shm|tcp). An all-local
  // backend (self_rank == kAllRanks) drives every rank in this process —
  // the determinism oracle. A multi-process backend (self_rank >= 0) puts
  // this process in scoped mode: it still builds the full population (every
  // rank derives identical state from the seed) but executes only the
  // bodies its rank owns, with rendezvous pinning the shared run context
  // (fl/rank_runner.cpp, DESIGN.md §14).
  comm::TransportOptions topts =
      comm::transport_options_from_env(config_.transport);
  const int world = num_clients() + 1;
  if (topts.self_rank == comm::TransportOptions::kAllRanks) {
    network_ = std::make_unique<comm::Network>(
        world, config_.cost, config_.faults,
        comm::make_transport(topts, world));
  } else {
    FCA_CHECK_MSG(topts.self_rank >= 0 && topts.self_rank < world,
                  "--rank " << topts.self_rank << " outside the fabric world "
                            << "[0, " << world << ") (clients + 1)");
    FCA_CHECK_MSG(!config_.lazy_init,
                  "scoped multi-process runs require eager initialization "
                  "(--lazy-init is all-local only)");
    // Rendezvous: the root publishes the run context; joiners receive it
    // and refuse a world whose context diverges from their own.
    comm::Handshake expected = make_scoped_handshake(config_, num_clients());
    comm::Handshake hs = expected;
    std::unique_ptr<comm::Transport> transport =
        comm::make_transport(topts, world, &hs);
    if (topts.self_rank != 0) {
      verify_scoped_handshake(hs, expected);
    }
    network_ = std::make_unique<comm::Network>(
        world, config_.cost, config_.faults, std::move(transport));
    scoped_install_hooks();
  }
}

std::vector<int> FederatedRun::ranks_of(const std::vector<int>& clients) {
  std::vector<int> ranks;
  ranks.reserve(clients.size());
  for (int c : clients) ranks.push_back(c + 1);
  return ranks;
}

std::vector<double> FederatedRun::data_weights(
    const std::vector<int>& selected) const {
  FCA_CHECK(!selected.empty());
  std::vector<double> w;
  w.reserve(selected.size());
  double total = 0.0;
  for (int k : selected) {
    // Shard sizes come from the store's cache: weighing a 100k-client
    // cohort must not materialize anyone.
    const auto n = static_cast<double>(store_->train_size(k));
    w.push_back(n);
    total += n;
  }
  for (double& v : w) v /= total;
  return w;
}

std::vector<int> FederatedRun::live_clients(int round,
                                            const std::vector<int>& selected) {
  const comm::FaultPlan& plan = network_->fault_plan();
  if (!plan.enabled() && !network_->degraded()) return selected;
  std::vector<int> live;
  live.reserve(selected.size());
  uint64_t crashed = 0;
  uint64_t rejoins = 0;
  for (int k : selected) {
    if (!network_->peer_alive(k + 1)) {
      // Condemned by a real transport failure (counted once, at
      // condemnation): excluded like an injected crash, but a real death is
      // permanent — there is no rejoin.
      continue;
    }
    if (plan.enabled() && plan.crashed(round, k + 1)) {
      ++crashed;
    } else {
      live.push_back(k);
      // A rejoin is a sampled client that was down last round and is back:
      // its next downlink re-syncs it with the current global state.
      if (plan.enabled() && plan.rejoined(round, k + 1)) ++rejoins;
    }
  }
  if (crashed > 0 || rejoins > 0) {
    network_->record_round_faults(crashed, rejoins, false);
  }
  report_.survivors =
      std::min(report_.survivors, static_cast<int>(live.size()));
  return live;
}

FederatedRun::SurvivorGather FederatedRun::gather_survivors(
    const std::vector<int>& expected, int tag, double deadline_s) {
  SurvivorGather g;
  if (scoped() && !is_root()) {
    // The root performs the real receives; every joiner (strategy code is
    // SPMD) consumes the mirrored outcome.
    g = scoped_consume_gather(expected);
  } else {
    g.survivors.reserve(expected.size());
    g.payloads.reserve(expected.size());
    // Network::gather tolerates a loss whenever one can actually happen: an
    // injected FaultPlan, a transport that can fail for real (remote peers,
    // chaos injection), or a peer already condemned. The uploads land in
    // the run's receive buffers.
    std::vector<std::optional<comm::Bytes>> got = network_->gather(
        0, ranks_of(expected), tag, deadline_s, recv_buffers_);
    for (size_t i = 0; i < expected.size(); ++i) {
      if (got[i].has_value()) {
        g.survivors.push_back(expected[i]);
        g.payloads.push_back(std::move(*got[i]));
      }
    }
    if (scoped()) scoped_publish_gather(g);
  }
  // The round report, from the survivor list every rank now holds. A
  // fault-free round can never abort: the effective quorum is capped at the
  // sampled cohort size, which SPMD sampling makes equal on all ranks.
  if (report_.selected > 0) {
    report_.survivors =
        std::min(report_.survivors, static_cast<int>(g.survivors.size()));
    const int need = std::min(config_.quorum, report_.selected);
    g.quorum_met = static_cast<int>(g.survivors.size()) >= need;
    if (!g.quorum_met && !report_.aborted) {
      report_.aborted = true;
      network_->record_round_faults(0, 0, true);
    }
  }
  return g;
}

void FederatedRun::receive_each(
    const std::vector<int>& clients, int tag,
    const std::function<void(Client&, const comm::Bytes&)>& apply) {
  executor_.for_each(clients, [&](int k) {
    const std::optional<comm::Bytes> got = client_endpoint(k).try_recv(0, tag);
    if (got.has_value() && apply) apply(*lease_client(k), *got);
  });
}

float FederatedRun::mean_finite(const std::vector<double>& values,
                                int scale) {
  FCA_CHECK(scale >= 1);
  double sum = 0.0;
  size_t n = 0;
  for (double v : values) {
    if (std::isfinite(v)) {
      sum += v;
      ++n;
    }
  }
  return n > 0 ? static_cast<float>(sum / (n * static_cast<size_t>(scale)))
               : 0.0f;
}

float FederatedRun::run_pipeline(PipelineStrategy& strategy, int round,
                                 const std::vector<int>& selected) {
  // Crashed cohort members neither receive nor train this round; on rejoin
  // their next downlink re-syncs them with the current server state.
  const std::vector<int> live = live_clients(round, selected);
  const bool has_downlink = strategy.has_downlink();
  if (has_downlink) {
    comm::Bytes payload;
    {
      obs::TraceSpan ser_span("fl", "serialize");
      payload = strategy.downlink(*this);
      ser_span.set_value(static_cast<int64_t>(payload.size()));
    }
    obs::TraceSpan bcast_span("fl", "broadcast",
                              static_cast<int64_t>(live.size()));
    server_endpoint().bcast_send(ranks_of(live), kTagModelDown, payload);
  }

  // One executor body per live client (fl/executor.hpp): each touches only
  // its own leased client and rank mailboxes, so any client_parallelism
  // yields the serial sweep's bits. A client whose downlink was lost sits
  // the round out and reports NaN, which mean_finite excludes.
  const int tag = strategy.upload_tag();
  const std::vector<double> losses = executor_.map(live, [&](int k) {
    const ClientStore::Lease lease = lease_client(k);
    comm::Endpoint ep = client_endpoint(k);
    std::optional<comm::Bytes> down;
    if (has_downlink) {
      down = ep.try_recv(0, kTagModelDown, borrow_down_buffer());
      if (!down.has_value()) return std::numeric_limits<double>::quiet_NaN();
    }
    const ClientUpdate update = strategy.update(
        *this, round, *lease,
        down.has_value() ? std::span<const std::byte>(*down)
                         : std::span<const std::byte>());
    if (tag != kTagNone) ep.send(0, tag, update.upload);
    if (down.has_value()) return_down_buffer(std::move(*down));
    return update.loss;
  }, store_->costs(live, &ClientStore::Cost::train));

  // The server step over the survivors; below quorum the round aborts and
  // the strategy's state carries over unchanged.
  if (tag != kTagNone) {
    obs::TraceSpan agg_span("fl", "aggregate");
    SurvivorGather g = gather_survivors(live, tag, round_deadline());
    agg_span.set_value(static_cast<int64_t>(g.survivors.size()));
    if (g.quorum_met && !g.survivors.empty()) strategy.reduce(*this, g);
    // The uploads' buffers serve the next round's gather.
    recv_buffers_ = std::move(g.payloads);
  }
  return mean_finite(losses, config_.local_epochs);
}

comm::Bytes FederatedRun::borrow_down_buffer() {
  std::lock_guard lk(down_buffers_mu_);
  if (down_buffers_.empty()) return {};
  comm::Bytes buffer = std::move(down_buffers_.back());
  down_buffers_.pop_back();
  return buffer;
}

void FederatedRun::return_down_buffer(comm::Bytes buffer) {
  std::lock_guard lk(down_buffers_mu_);
  down_buffers_.push_back(std::move(buffer));
}

double FederatedRun::local_train(const std::function<float()>& epoch) const {
  obs::TraceSpan train_span("fl", "local-train", config_.local_epochs);
  double loss = 0.0;
  for (int e = 0; e < config_.local_epochs; ++e) loss += epoch();
  return loss;
}

void FederatedRun::average_into(
    std::vector<Tensor>& global, const std::vector<int>& clients,
    const std::vector<comm::Bytes>& payloads) const {
  FCA_CHECK(!clients.empty() && clients.size() == payloads.size());
  const std::vector<double> weights = data_weights(clients);
  std::vector<float> w(weights.size());
  for (size_t i = 0; i < w.size(); ++i) w[i] = static_cast<float>(weights[i]);
  // Every payload is parsed (view_tensors rejects trailing bytes) before the
  // sum, which checks every shape before it writes.
  std::vector<std::vector<models::TensorView>> views;
  views.reserve(payloads.size());
  for (const comm::Bytes& p : payloads) views.push_back(models::view_tensors(p));
  const std::vector<std::span<const models::TensorView>> ups(views.begin(),
                                                             views.end());
  models::weighted_sum_into(ups, w, global);
}

std::vector<double> FederatedRun::evaluate_all() {
  // Evaluation is deterministic per client (eval mode, no RNG draws), so it
  // rides the same executor as training; results land by client index. Each
  // body leases its own client, as in run_pipeline: at most one pin per
  // lane keeps a paged store within budget, and lanes page in parallel.
  // Leases stay clean: evaluating a never-trained client must not turn it
  // into page traffic.
  std::vector<int> cohort(static_cast<size_t>(num_eval_clients()));
  std::iota(cohort.begin(), cohort.end(), 0);
  return executor_.map(
      cohort,
      [this](int k) {
        return static_cast<double>(lease_client_readonly(k)->evaluate());
      },
      store_->costs(cohort, &ClientStore::Cost::eval));
}

RunResult FederatedRun::execute(RoundStrategy& strategy, RoundHook* hook,
                                const ResumeState* resume) {
  RunResult result;
  result.strategy = strategy.name();
  Rng sampler = Rng(config_.seed).fork("sampling/" + strategy.name());

  int start_round = 1;
  int participating_rounds_total = 0;
  uint64_t bytes_before = 0;
  uint64_t faults_before = 0;
  uint64_t real_faults_before = 0;
  if (resume != nullptr) {
    FCA_CHECK_MSG(resume->next_round >= 1 &&
                      resume->next_round <= config_.rounds + 1,
                  "resume round " << resume->next_round
                                  << " outside [1, " << config_.rounds + 1
                                  << "]");
    // Client, strategy and network state were restored by the caller (the
    // checkpoint manager); only the driver-local cursor is applied here.
    sampler.restore(resume->sampler_state);
    start_round = resume->next_round;
    participating_rounds_total = resume->participating_rounds_total;
    bytes_before = resume->bytes_marker;
    faults_before = resume->fault_marker;
    real_faults_before = resume->real_fault_marker;
    result.curve = resume->curve;
  } else {
    // The real-fault watermark precedes initialize(): a peer condemned
    // during the initialization barrier lands in round 1's
    // real_fault_events row, so the curve column always decomposes the run
    // total exactly. (Init traffic stays excluded from round_bytes — those
    // watermarks are taken after.)
    real_faults_before = network_->fault_stats().real_peer_faults;
    // No round is open: the initialization barrier's gathers keep no round
    // report and apply no quorum.
    report_ = RoundReport{};
    if (config_.lazy_init) {
      // Lazy initialization: no all-population sweep. The strategy derives
      // its server state from read-only touches and the store applies the
      // returned bootstrap at every clean first materialization, so round 1
      // sees each client exactly as the eager sweep would have left it.
      FCA_CHECK_MSG(strategy.supports_lazy_init(),
                    "strategy " << strategy.name()
                                << " does not support --lazy-init");
      comm::Bytes payload = strategy.initialize_lazy(*this);
      store_->arm_bootstrap(this, &strategy, std::move(payload));
    } else {
      ScopeArmGuard arm(executor_, scoped());
      strategy.initialize(*this);
    }
    if (scoped()) {
      // Root-side mirror of every joiner-owned client: evaluation and
      // checkpoints read the root's store, which must equal the oracle's.
      scoped_sync_state();
    }
    bytes_before = network_->total_stats().payload_bytes;
    faults_before = network_->fault_stats().injected_total();
  }

  // Consecutive failed attempts at the current round; recovery replays from
  // the last checkpoint, and a round that keeps failing must eventually
  // surface its error instead of looping.
  int failed_attempts = 0;
  constexpr int kMaxFailedAttempts = 3;

  for (int round = start_round; round <= config_.rounds; ++round) {
    Timer timer;
    // The driver thread is rank 0 for the whole iteration (round body, eval,
    // hooks): spans it emits — and those of strategies running on it — carry
    // (round, 0) coordinates regardless of executor scheduling.
    obs::Tracer::instance().set_round(round);
    obs::ContextScope obs_ctx(0);
    const std::vector<int> selected =
        sample_clients(num_clients(), config_.sample_rate, sampler);
    participating_rounds_total += static_cast<int>(selected.size());
    report_ = RoundReport{static_cast<int>(selected.size()),
                          static_cast<int>(selected.size()), false};
    float train_loss = 0.0f;
    network_->begin_round(round);
    try {
      {
        obs::TraceSpan round_span("fl", "round",
                                  static_cast<int64_t>(selected.size()));
        ScopeArmGuard arm(executor_, scoped());
        train_loss = strategy.execute_round(*this, round, selected);
      }
      failed_attempts = 0;
      network_->end_round();
    } catch (const std::exception& e) {
      network_->end_round();
      // A scoped rank cannot replay a round from a checkpoint: its peers
      // have already moved on, and a rollback would need a cross-rank
      // barrier this protocol does not have. Die; the peers degrade.
      if (scoped()) throw;
      std::optional<ResumeState> recovered;
      if (hook != nullptr && ++failed_attempts < kMaxFailedAttempts) {
        recovered = hook->recover(*this, strategy);
      }
      if (!recovered.has_value()) throw;
      FCA_LOG_WARN << strategy.name() << " round " << round << " failed ("
                   << e.what() << "); replaying from round "
                   << recovered->next_round << " via checkpoint";
      sampler.restore(recovered->sampler_state);
      participating_rounds_total = recovered->participating_rounds_total;
      bytes_before = recovered->bytes_marker;
      faults_before = recovered->fault_marker;
      real_faults_before = recovered->real_fault_marker;
      result.curve = recovered->curve;
      round = recovered->next_round - 1;  // loop increment lands on it
      continue;
    }

    if (scoped()) {
      // Round boundary sync: joiner-owned client state lands in the root's
      // mirror store (eval + checkpoints), joiner-emitted trace events land
      // in the root's tracer. Both before the eval block reads them.
      scoped_sync_state();
      scoped_sync_trace();
    }

    if (is_root() &&
        (round % config_.eval_every == 0 || round == config_.rounds)) {
      RoundMetrics m;
      m.round = round;
      m.cumulative_local_epochs = round * config_.local_epochs;
      std::vector<double> acc;
      {
        obs::TraceSpan eval_span("fl", "eval", num_eval_clients());
        acc = evaluate_all();
      }
      m.mean_accuracy = mean_of(acc);
      m.std_accuracy = std_of(acc);
      m.client_accuracies = std::move(acc);
      m.mean_train_loss = train_loss;
      m.wall_seconds = deterministic_wall() ? 0.0 : timer.seconds();
      const uint64_t bytes_now = network_->total_stats().payload_bytes;
      m.round_bytes = bytes_now - bytes_before;
      bytes_before = bytes_now;
      m.selected_count = report_.selected;
      m.survivor_count = report_.survivors;
      const uint64_t faults_now = network_->fault_stats().injected_total();
      m.fault_events = faults_now - faults_before;
      faults_before = faults_now;
      const uint64_t real_now = network_->fault_stats().real_peer_faults;
      m.real_fault_events = real_now - real_faults_before;
      real_faults_before = real_now;
      result.curve.push_back(m);
      FCA_LOG_INFO << strategy.name() << " round " << round << "/"
                   << config_.rounds << ": acc " << m.mean_accuracy << " ± "
                   << m.std_accuracy << ", loss " << m.mean_train_loss
                   << (network_->fault_plan().enabled()
                           ? (report_.aborted ? " [quorum abort]" : "")
                           : "");
    }

    if (hook != nullptr) {
      ResumeState cursor;
      cursor.next_round = round + 1;
      cursor.sampler_state = sampler.state();
      cursor.participating_rounds_total = participating_rounds_total;
      cursor.bytes_marker = bytes_before;
      cursor.fault_marker = faults_before;
      cursor.real_fault_marker = real_faults_before;
      cursor.curve = result.curve;
      hook->after_round(*this, strategy, cursor);
    }
  }

  obs::Tracer::instance().set_round(0);
  if (!scoped()) {
    // The zero-pending invariant is all-local: a scoped rank's transport
    // counts sent-but-remotely-consumed frames as locally pending.
    FCA_CHECK_MSG(network_->pending_messages() == 0,
                  "undelivered messages at end of run (protocol bug)");
  }
  result.total_traffic = network_->total_stats();
  result.total_faults = network_->fault_stats();
  if (!result.curve.empty()) {
    result.final_mean_accuracy = result.curve.back().mean_accuracy;
    result.final_std_accuracy = result.curve.back().std_accuracy;
  }
  // Upload traffic per client-round: everything the client ranks sent,
  // divided by total participation events.
  uint64_t client_bytes = 0;
  for (int k = 0; k < num_clients(); ++k) {
    client_bytes += network_->rank_stats(k + 1).payload_bytes;
  }
  if (participating_rounds_total > 0) {
    result.client_upload_bytes_per_round =
        static_cast<double>(client_bytes) /
        static_cast<double>(participating_rounds_total);
  }
  return result;
}

}  // namespace fca::fl
