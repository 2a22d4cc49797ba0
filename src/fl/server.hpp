// Federated round driver.
//
// FederatedRun owns the clients, the comm fabric (rank 0 = server, rank k+1
// = client k) and the round loop: sample participants, delegate the round
// body to a RoundStrategy, evaluate every client on its local test set, and
// record metrics. All algorithms (FedClassAvg and the baselines) plug in as
// PipelineStrategy stages of one round pipeline (FederatedRun::run_pipeline,
// DESIGN.md §15), so every method is measured under an identical protocol.
//
// Round boundaries are the driver's durability points: a RoundHook observes
// each completed round with the exact cursor (round index, sampler state,
// accounting markers, metrics so far) needed to continue the run later, and
// execute() accepts such a cursor to resume. The checkpoint subsystem
// (src/ckpt) plugs in through this interface.
#pragma once

#include <functional>
#include <memory>
#include <mutex>
#include <optional>
#include <span>
#include <vector>

#include "comm/endpoint.hpp"
#include "fl/client.hpp"
#include "fl/client_store.hpp"
#include "fl/executor.hpp"
#include "fl/metrics.hpp"
#include "fl/sampling.hpp"
#include "utils/error.hpp"
#include "utils/threadpool.hpp"

namespace fca::fl {

struct FLConfig {
  int rounds = 10;
  int local_epochs = 1;       // E in Algorithm 1
  double sample_rate = 1.0;   // client participation per round
  int eval_every = 1;         // evaluate accuracies every N rounds
  comm::CostModel cost;       // latency/bandwidth model for the fabric
  uint64_t seed = 42;         // drives sampling and any server randomness
  /// Client-level fan-out per round: 1 = serial (historical behavior),
  /// N > 1 = up to N concurrent local updates, 0 = auto (hardware). Any
  /// value yields bit-identical weights, metrics and traffic (see
  /// fl/executor.hpp), so this is purely a wall-time knob.
  int client_parallelism = 1;
  /// Fault-injection schedule for the fabric (comm/fault.hpp). Defaults to
  /// a perfect network; when any rate/schedule is set the round loop runs in
  /// fault-tolerant (survivor-set) mode.
  comm::FaultConfig faults;
  /// Minimum number of surviving cohort members required to commit a
  /// round's aggregation. A gather that falls below quorum aborts the
  /// round: the server keeps its previous global state and no update is
  /// applied. Clamped per round to the sampled cohort size so a fault-free
  /// round can never abort.
  int quorum = 1;
  /// Message-fabric backend (comm/transport/): inproc (default), shm or
  /// tcp. An all-local backend (self_rank == kAllRanks) drives every rank
  /// in this process, every byte still moving through the real
  /// rings/sockets — the cross-backend determinism tier. A multi-process
  /// backend (self_rank >= 0) makes this process one rank of a scoped world
  /// (fl/rank_runner.hpp). FCA_TRANSPORT overrides the kind at run
  /// construction (see comm::transport_options_from_env).
  comm::TransportOptions transport;
  /// Replace the strategy's all-population initialize() sweep with
  /// RoundStrategy::initialize_lazy(): the strategy computes its server
  /// state from read-only client snapshots and a per-client bootstrap is
  /// applied at each client's first materialization instead of a broadcast.
  /// Requires a strategy whose supports_lazy_init() is true. The metric curve is bit-identical to the
  /// eager run (round_bytes watermarks already exclude init traffic);
  /// RunResult::total_traffic is smaller because O(population) init
  /// broadcasts never happen — which is the point at 100k clients.
  bool lazy_init = false;
  /// Evaluate only clients [0, eval_clients) each eval round; 0 = all. At
  /// massive populations a full-population eval sweep dominates the run, so
  /// large-scale configs evaluate a fixed prefix (the curve then reports
  /// that cohort's accuracy — comparable across runs of any population that
  /// share the prefix's data partition).
  int eval_clients = 0;
  /// First round a scoped (multi-process) run will execute: 1 = fresh, else
  /// the checkpoint cursor every rank computed from the shared checkpoint
  /// directory before construction. The value rides the rendezvous
  /// handshake so a joiner that disagrees (stale checkpoint view) is
  /// rejected instead of silently training from the wrong round. All-local
  /// runs ignore it — resume passes a cursor to execute() instead.
  int resume_next_round = 1;
};

/// Message tags on the fabric.
enum Tag : int {
  kTagNone = 0,        // no message (a pipeline stage that sends nothing)
  kTagModelDown = 1,   // server -> client parameter broadcast
  kTagModelUp = 2,     // client -> server parameter upload
  kTagAuxDown = 3,     // server -> client auxiliary payloads
  kTagAuxUp = 4,       // client -> server auxiliary payloads
  kTagPublicData = 5,  // one-time public dataset broadcast (KT-pFL)
};

class FederatedRun;
class PipelineStrategy;

class RoundStrategy {
 public:
  virtual ~RoundStrategy() = default;
  virtual std::string name() const = 0;
  /// Called once before round 1 (initial broadcasts, state setup).
  virtual void initialize(FederatedRun& run) { (void)run; }
  /// Executes one communication round over the selected clients; returns the
  /// mean local training loss across participants.
  virtual float execute_round(FederatedRun& run, int round,
                              const std::vector<int>& selected) = 0;

  /// Lazy-initialization contract (FLConfig::lazy_init). A strategy that
  /// opts in must make the pair (initialize_lazy, bootstrap_client)
  /// semantically equal to initialize(): running initialize_lazy() once and
  /// then bootstrap_client() on every client at its first materialization
  /// must leave each client bit-identical to the eager sweep. The driver
  /// calls initialize_lazy() before round 1; it may read clients through
  /// FederatedRun::client_readonly() (touches stay clean) and returns the
  /// payload the store passes back to every bootstrap_client() call. The
  /// defaults fit a strategy with no init sweep: no state, empty payload.
  virtual bool supports_lazy_init() const { return false; }
  virtual comm::Bytes initialize_lazy(FederatedRun& run) {
    (void)run;
    return {};
  }
  /// Applied to one freshly-factory-built client on the lane that
  /// materializes it, with the ClientStore's lock released — so it runs
  /// concurrently with other clients' bootstraps (and factory builds, page
  /// loads and page writes). It must be a pure function of (payload, client
  /// state): it may read `run` and the payload but must not touch the
  /// store, the network, any other client or shared mutable state, and must
  /// not leave the result dependent on materialization order.
  virtual void bootstrap_client(FederatedRun& run, Client& client,
                                const comm::Bytes& payload);

  /// Serializes the strategy's server-side state (global classifier,
  /// prototypes, knowledge coefficients, ...) at a round boundary. The
  /// default covers stateless strategies. Every strategy must round-trip
  /// through save_state()/load_state() bit-identically for checkpoint resume
  /// to reproduce an uninterrupted run.
  virtual comm::Bytes save_state() const { return {}; }
  /// Restores state captured with save_state(); replaces initialize() when
  /// resuming from a checkpoint.
  virtual void load_state(std::span<const std::byte> state);
};

/// Cursor describing where a run stands at a round boundary — everything the
/// driver itself (as opposed to clients/strategy/network) needs to continue.
struct ResumeState {
  int next_round = 1;                  // first round still to execute
  uint64_t sampler_state = 0;          // fca::Rng state of the client sampler
  int participating_rounds_total = 0;  // sum of cohort sizes so far
  uint64_t bytes_marker = 0;           // traffic watermark of the last eval
  uint64_t fault_marker = 0;           // fault-event watermark of last eval
  uint64_t real_fault_marker = 0;      // real-peer-fault watermark, ditto
  std::vector<RoundMetrics> curve;     // metrics recorded so far
};

/// Observer of completed rounds. after_round() receives the cursor that
/// resumes from the upcoming boundary; recover() may restore a consistent
/// earlier state after a mid-round failure (returning std::nullopt declines).
class RoundHook {
 public:
  virtual ~RoundHook() = default;
  virtual void after_round(FederatedRun& run, RoundStrategy& strategy,
                           const ResumeState& cursor) = 0;
  virtual std::optional<ResumeState> recover(FederatedRun& run,
                                             RoundStrategy& strategy) {
    (void)run;
    (void)strategy;
    return std::nullopt;
  }
};

/// Fans round observations out to several hooks in registration order —
/// e.g. a CheckpointManager plus a metrics recorder. recover() asks each
/// hook in turn and takes the first restored state (pure observers decline
/// by default, so the checkpoint manager wins regardless of position).
class RoundHookChain : public RoundHook {
 public:
  RoundHookChain() = default;
  /// Null entries are permitted and skipped, so callers can chain
  /// optionally-present hooks without branching.
  void add(RoundHook* hook) {
    if (hook != nullptr) hooks_.push_back(hook);
  }
  void after_round(FederatedRun& run, RoundStrategy& strategy,
                   const ResumeState& cursor) override {
    for (RoundHook* h : hooks_) h->after_round(run, strategy, cursor);
  }
  std::optional<ResumeState> recover(FederatedRun& run,
                                     RoundStrategy& strategy) override {
    for (RoundHook* h : hooks_) {
      std::optional<ResumeState> state = h->recover(run, strategy);
      if (state.has_value()) return state;
    }
    return std::nullopt;
  }

 private:
  std::vector<RoundHook*> hooks_;
};

class FederatedRun {
 public:
  /// Store-backed construction: the run drives whatever population the
  /// store exposes; under a paged store the resident set stays within the
  /// store's budget for the whole run. All-resident runs wrap prebuilt
  /// clients in a resident ClientStore.
  FederatedRun(std::unique_ptr<ClientStore> store, FLConfig config);

  /// Runs the federated protocol and returns the metric record.
  ///
  /// With a `hook`, every completed round is reported (checkpointing), and a
  /// round that throws is retried from the state recover() restores instead
  /// of aborting the run. With a `resume` cursor, the run continues from
  /// cursor.next_round against already-restored client/strategy/network
  /// state and skips strategy.initialize().
  RunResult execute(RoundStrategy& strategy, RoundHook* hook = nullptr,
                    const ResumeState* resume = nullptr);

  int num_clients() const { return store_->population(); }
  /// Materializes (if paged out) and returns client k, marked dirty; the
  /// reference stays valid until the next store access. Serial call sites
  /// only — executor bodies must hold a lease_client() pin instead.
  Client& client(int k) { return store_->touch(k, /*mark_dirty=*/true); }
  /// Like client(), but the touch stays clean: a never-mutated client
  /// remains re-derivable (dropped, not paged, on eviction). For snapshots
  /// of initial weights, metadata reads and evaluation.
  Client& client_readonly(int k) { return store_->touch(k, false); }
  /// Pinned access for concurrent round bodies: the client cannot be
  /// evicted while the lease is alive, and at most one lease per executor
  /// lane is alive at a time, so pins never exceed the residency budget.
  ClientStore::Lease lease_client(int k) { return store_->lease(k, true); }
  ClientStore::Lease lease_client_readonly(int k) {
    return store_->lease(k, false);
  }
  ClientStore& store() { return *store_; }
  const FLConfig& config() const { return config_; }

  /// Executor strategies use to fan per-client round work out; configured
  /// from FLConfig::client_parallelism.
  const RoundExecutor& executor() const { return executor_; }

  comm::Network& network() { return *network_; }
  comm::Endpoint server_endpoint() { return {*network_, 0}; }
  /// Client k's fabric endpoint (rank k + 1).
  comm::Endpoint client_endpoint(int k) {
    FCA_CHECK_MSG(k >= 0, "client " << k << " has no endpoint");
    return {*network_, k + 1};
  }
  /// Fabric ranks of a client list (client k lives on rank k + 1).
  static std::vector<int> ranks_of(const std::vector<int>& clients);

  /// Normalized |D_k| / sum(|D_j|, j in selected) aggregation weights.
  std::vector<double> data_weights(const std::vector<int>& selected) const;

  /// Per-client test accuracy over the eval cohort (all clients, or the
  /// [0, eval_clients) prefix when FLConfig::eval_clients > 0), evaluated on
  /// the executor. Each body holds a read-only lease on its client, so a
  /// paged store stays within budget and pages the cohort in on every lane
  /// at once; evaluated clients stay clean (or page-current) and are
  /// dropped, not rewritten, on eviction.
  std::vector<double> evaluate_all();
  /// Size of the cohort evaluate_all() sweeps.
  int num_eval_clients() const {
    return config_.eval_clients > 0
               ? std::min(config_.eval_clients, num_clients())
               : num_clients();
  }

  // -- fault-tolerant round primitives (used by every RoundStrategy) --------

  /// Result of a fault-tolerant gather: which expected clients reported in
  /// time, their payloads (parallel to `survivors`), and whether the
  /// surviving set meets FLConfig::quorum.
  struct SurvivorGather {
    std::vector<int> survivors;
    std::vector<comm::Bytes> payloads;
    bool quorum_met = true;
  };

  /// Filters the sampled cohort down to clients whose rank is up this round
  /// under the fault plan, recording crashed-client rounds and rejoins in
  /// FaultStats. Identity on a reliable fabric. The round pipeline
  /// broadcasts to (and runs updates over) this set, not the raw sample — a
  /// crashed client neither receives nor trains.
  std::vector<int> live_clients(int round, const std::vector<int>& selected);

  /// The server's one receive from the clients: `expected`'s uploads on
  /// `tag`, with deadline_s = round_deadline() in a round and +infinity at
  /// the initialization barrier. Strict on a reliable fabric; on a lossy one
  /// a lost or late upload drops out of the survivor set. A scoped root
  /// mirrors the outcome to the joiners, which consume it instead. Inside a
  /// round every rank then updates the round report from the survivors
  /// (count = min across the round's gathers; quorum aborts counted once).
  SurvivorGather gather_survivors(const std::vector<int>& expected, int tag,
                                  double deadline_s);

  /// The client half of a server -> clients exchange outside the round
  /// pipeline (initialization syncs, KT-pFL's phase 4). On the executor,
  /// each client try_recv's `tag` from the server; if the bytes arrived,
  /// `apply` gets them and the client under a dirty lease. A client whose
  /// message was lost keeps its state. A null `apply` only consumes the
  /// bytes and touches no client. Emits no trace span.
  void receive_each(
      const std::vector<int>& clients, int tag,
      const std::function<void(Client&, const comm::Bytes&)>& apply);

  /// Mean over finite entries of per-client losses, additionally divided by
  /// `scale` (the local-epoch count); NaN entries mark clients whose
  /// downlink was lost mid-round (they did not train). Matches the
  /// historical sum/(n*E) arithmetic bit for bit when every entry is
  /// finite. Returns 0 when nothing is finite.
  static float mean_finite(const std::vector<double>& values, int scale = 1);

  /// The deadline a round's gather_survivors enforces on a lossy fabric.
  double round_deadline() const { return config_.faults.round_deadline_s; }

  // -- the round pipeline (DESIGN.md §15) ------------------------------------

  /// One round of `strategy`'s stages over the sampled cohort: live filter,
  /// downlink serialize + broadcast, leased client updates on the executor,
  /// survivor gather and quorum-gated reduce. Returns the mean local loss
  /// (mean_finite over E epochs).
  float run_pipeline(PipelineStrategy& strategy, int round,
                     const std::vector<int>& selected);

  /// The E = FLConfig::local_epochs epochs of one client update, under the
  /// "local-train" span; returns the summed epoch losses.
  double local_train(const std::function<float()>& epoch) const;

  /// Eq. 1 average into `global`: sum_i w_i * payloads[i], w = data weights
  /// renormalized over `clients` (models::weighted_sum_into). Keeps global's
  /// shapes, or takes payloads[0]'s when global is empty (the C^1 init); a
  /// payload of any other tensor count or shape throws and leaves global as
  /// it was.
  void average_into(std::vector<Tensor>& global,
                    const std::vector<int>& clients,
                    const std::vector<comm::Bytes>& payloads) const;

  // -- scoped (multi-process) execution: DESIGN.md §14 -----------------------
  /// True when this process drives a single fabric rank of a multi-process
  /// world (transport self_rank >= 0). Every rank builds the full
  /// population and runs the identical driver/strategy code; scoped mode
  /// only changes which client bodies execute here and how values travel.
  bool scoped() const { return network_->scoped(); }
  /// This process's fabric rank (kAllRanks when all-local).
  int self_rank() const { return network_->self_rank(); }
  /// Rank 0 hosts aggregation state, checkpoints and the metric curve.
  bool is_root() const { return !scoped() || self_rank() == 0; }
  /// Scoped ownership: joiner rank r owns exactly client r - 1.
  bool owns_client(int k) const {
    return !scoped() || self_rank() == k + 1;
  }

  // -- round-report accessors (valid once a round has started) ---------------
  /// Sampled cohort size of the round in flight (or just completed).
  int last_selected() const { return report_.selected; }
  /// Minimum surviving set across the round's gathers.
  int last_survivors() const { return report_.survivors; }

 private:
  /// Per-round fault consequences, reset at each round start by execute()
  /// and filled in by live_clients()/gather_survivors().
  struct RoundReport {
    int selected = 0;    // sampled cohort size; 0 outside a round
    int survivors = 0;   // min surviving set across the round's gathers
    bool aborted = false;  // quorum abort already recorded this round
  };

  // -- scoped-mode machinery (fl/rank_runner.cpp) ---------------------------
  /// Installs the executor ScopeHooks (ownership filter + reconcile).
  void scoped_install_hooks();
  /// Executor reconcile: joiners ship their owned positions' values to the
  /// root; the root fills every position from the owners. Doubles as the
  /// per-sweep cross-rank barrier.
  void scoped_reconcile(const std::vector<int>& clients,
                        std::vector<double>& results);
  /// Root half of a scoped gather: mirror the outcome to every live joiner.
  void scoped_publish_gather(const SurvivorGather& g);
  /// Joiner half: consume the root's mirror (fatal when the root is gone).
  SurvivorGather scoped_consume_gather(const std::vector<int>& expected);
  /// Ships every joiner-owned client's serialized state to the root (which
  /// restores it into its mirror store) — after initialize() and after
  /// every round, so root-side eval and checkpoints see oracle state.
  void scoped_sync_state();
  /// Ships each joiner's own-rank trace events to the root, which injects
  /// them into its tracer so the end-of-run logical stream is the oracle's.
  void scoped_sync_trace();

  std::unique_ptr<ClientStore> store_;
  FLConfig config_;
  RoundReport report_;
  /// Lane pool for client fan-out on hosts whose process-wide kernel pool
  /// has zero workers (single-core): an explicit client_parallelism > 1
  /// still gets real lanes. Null when the global pool serves.
  std::unique_ptr<ThreadPool> lane_pool_;
  RoundExecutor executor_;
  std::unique_ptr<comm::Network> network_;
  /// Storage for the survivor gather's payloads, kept across rounds:
  /// run_pipeline hands the reduced uploads back here, and the next gather
  /// lends them to Network::gather, whose shm drains write into their
  /// capacity. No model-sized buffer is freed and allocated again every
  /// round, so whether glibc trims it in between no longer matters.
  std::vector<comm::Bytes> recv_buffers_;
  /// The same for the client bodies' downlinks: a body borrows a buffer for
  /// its downlink receive and returns it after its update, so at most one
  /// per lane is out and the pool never outgrows the lane count.
  std::mutex down_buffers_mu_;
  std::vector<comm::Bytes> down_buffers_;
  comm::Bytes borrow_down_buffer();
  void return_down_buffer(comm::Bytes buffer);
};

/// What one client's update stage hands back to the pipeline.
struct ClientUpdate {
  double loss = 0.0;   // summed over the local epochs (local_train)
  comm::Bytes upload;  // sent to the server on upload_tag()
};

/// A RoundStrategy written as the stages of the one round pipeline
/// (FederatedRun::run_pipeline). Per round the pipeline calls, in order:
///   downlink()  once: the server -> cohort payload, produced under the
///               "serialize" span and sent under "broadcast";
///   update()    per live client, under its lease on the round executor,
///               with the downlink bytes (a client whose downlink was lost
///               skips the round);
///   reduce()    once, inside the "aggregate" span, over the uploads that
///               reached the server — only when the quorum is met and
///               someone survived.
class PipelineStrategy : public RoundStrategy {
 public:
  float execute_round(FederatedRun& run, int round,
                      const std::vector<int>& selected) final {
    return run.run_pipeline(*this, round, selected);
  }

  /// False for strategies without a downlink (LocalOnly, KT-pFL): no
  /// serialize/broadcast, and update() gets empty `down` bytes.
  virtual bool has_downlink() const { return true; }
  virtual comm::Bytes downlink(FederatedRun& run) {
    (void)run;
    return {};
  }
  /// One client's local update: apply `down`, train via run.local_train(),
  /// return the summed loss and the upload. Must touch only `client` (it
  /// runs concurrently with other clients' updates).
  virtual ClientUpdate update(FederatedRun& run, int round, Client& client,
                              std::span<const std::byte> down) = 0;
  /// Tag the uploads travel on; kTagNone skips upload, gather and reduce.
  virtual int upload_tag() const { return kTagModelUp; }
  virtual void reduce(FederatedRun& run,
                      const FederatedRun::SurvivorGather& gathered) {
    (void)run;
    (void)gathered;
  }
};

}  // namespace fca::fl
