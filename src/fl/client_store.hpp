// O(active-cohort) client lifetime management.
//
// A ClientStore owns the run's client population as a population size plus
// a deterministic factory. Clients are materialized on first use and, with
// no budget, stay in memory for the rest of the run. Under a
// --max-resident-clients budget, idle clients are paged to disk (LRU)
// through the checkpoint container format (CRC-protected, atomically
// written) and restored bit-identically on reselection. The factory must be
// pure in the client id — same id, same freshly-initialized client — which
// is what makes paging invisible to the curve: a clean (never-mutated)
// client can simply be dropped and re-derived, and a dirty one round-trips
// through its page file.
//
// Dirty tracking is what keeps the page traffic proportional to the active
// cohort rather than the population: only clients the run has actually
// mutated (training, checkpoint restore, eager-init restore) ever hit disk;
// everything else is re-derivable from the factory (plus the armed
// bootstrap payload under lazy initialization, see RoundStrategy's
// initialize_lazy contract in fl/server.hpp).
//
// Concurrency: one mutex guards bookkeeping only — the entry table, LRU
// ticks, pins, dirty/page flags and a per-client "in transit" mark. The
// expensive work runs on the calling lane with the lock released: the
// factory build, the page load (read + CRC + decode), the lazy-init
// bootstrap, and a victim's encode + atomic page write. A client in transit
// is invisible to everyone else (waiters block on a condition variable until
// it lands or leaves), and a victim keeps its slot until its page is on
// disk, so the resident count never exceeds the budget. Executor bodies pin
// their client with a Lease (RAII refcount) for the body's duration, so at
// most `client_parallelism` clients are pinned at once and the LRU can never
// evict a client mid-train. References returned by touch() stay valid until
// the next store operation (the most-recently-touched entry is never the
// eviction victim), which serial driver code relies on.
#pragma once

#include <condition_variable>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <unordered_map>
#include <vector>

#include "comm/transport/transport.hpp"
#include "fl/client.hpp"
#include "utils/error.hpp"

namespace fca::fl {

class FederatedRun;
class RoundStrategy;

/// Deterministic client constructor: same id must yield the same
/// freshly-initialized client (weights, shards, RNG stream) every call.
using ClientFactory = std::function<ClientPtr(int)>;

/// A client page file failed validation (CRC mismatch, truncation, wrong
/// client id): the on-disk state is untrustworthy and the error is surfaced
/// instead of silently re-deriving a stale client. Also thrown when a
/// victim's page cannot be written; the victim then stays resident.
class PageError : public Error {
 public:
  PageError(int client_id, std::string path, const std::string& why);
  int client_id() const { return client_id_; }
  const std::string& path() const { return path_; }

 private:
  int client_id_;
  std::string path_;
};

struct ClientStoreOptions {
  /// Maximum clients resident in memory at once; 0 disables paging (clients
  /// still materialize on first use, then stay resident). The run driver
  /// requires at least client_parallelism + 1 so every executor lane can pin
  /// its client while one slot stays free for materialization.
  int max_resident = 0;
  /// Directory for page files; required when max_resident > 0. Pages are
  /// owned by the store and deleted on destruction.
  std::string page_dir;
};

struct ClientStoreStats {
  int peak_resident = 0;          // high-water mark of in-memory clients
  uint64_t materializations = 0;  // factory constructions (incl. restores)
  uint64_t page_writes = 0;       // stale dirty evictions flushed to disk
  uint64_t page_loads = 0;        // page files restored into a client
  uint64_t clean_drops = 0;       // evictions that needed no page write
                                  // (clean, or unchanged since its load)
};

class ClientStore {
 public:
  /// `factory(k)` materializes client k on demand; `train_sizes[k]` caches
  /// |D_k| so data-weight computations never force a materialization. With
  /// options.max_resident > 0, idle clients page to options.page_dir.
  ClientStore(int population, ClientFactory factory,
              std::vector<int64_t> train_sizes, ClientStoreOptions options);

  ~ClientStore();
  ClientStore(const ClientStore&) = delete;
  ClientStore& operator=(const ClientStore&) = delete;

  int population() const { return population_; }
  bool paged() const { return options_.max_resident > 0; }
  int max_resident() const { return options_.max_resident; }
  int64_t train_size(int k) const;

  /// Static per-client work estimates, set by whoever builds the store from
  /// the clients' model configs and shard sizes: forward multiply-adds over
  /// the local epochs (train) and over the test shard (eval). They only
  /// order the executor's claims (RoundExecutor::map), so reading them never
  /// materializes a client. Unset, every client costs the same.
  struct Cost {
    double train = 0.0;
    double eval = 0.0;
  };
  void set_costs(std::vector<Cost> costs);
  /// Per-position costs of `clients` (`which` = &Cost::train or
  /// &Cost::eval); empty when no costs are set.
  std::vector<double> costs(const std::vector<int>& clients,
                            double Cost::*which) const;

  /// RAII pin on one materialized client: the client cannot be evicted while
  /// any lease on it is alive. Executor bodies hold one for the body's
  /// duration.
  class Lease {
   public:
    Lease() = default;
    Lease(Lease&& o) noexcept : store_(o.store_), id_(o.id_), client_(o.client_) {
      o.store_ = nullptr;
      o.client_ = nullptr;
    }
    ~Lease() { release(); }
    Lease(const Lease&) = delete;
    Lease& operator=(const Lease&) = delete;

    Client& operator*() const { return *client_; }
    Client* operator->() const { return client_; }
    Client* get() const { return client_; }
    void release();

   private:
    friend class ClientStore;
    Lease(ClientStore* store, int id, Client* client)
        : store_(store), id_(id), client_(client) {}
    ClientStore* store_ = nullptr;
    int id_ = 0;
    Client* client_ = nullptr;
  };

  /// Materializes (if needed) and pins client k. With mark_dirty, the client
  /// is flagged as mutated: it will be paged on eviction and checkpointed.
  /// Pass mark_dirty = false for read-only access (evaluation, snapshots of
  /// initial weights) so clean clients stay droppable, and a dirty client
  /// loaded from its page and only read since is dropped, not rewritten.
  /// Safe to call from concurrent lanes; throws PageError when the page
  /// this lease needed to load or write is unusable.
  Lease lease(int k, bool mark_dirty);

  /// Materializes (if needed) client k and returns a reference valid until
  /// the next store operation. For serial driver/test code; concurrent
  /// phases must use lease().
  Client& touch(int k, bool mark_dirty);

  // -- lazy initialization ---------------------------------------------------
  /// Arms the bootstrap applied to every clean client at materialization:
  /// strategy->bootstrap_client(*run, client, payload). Under lazy
  /// initialization this replaces the all-population init sweep — the
  /// bootstrap must be a pure function of the payload and the client's own
  /// state (in particular it must not touch the store, the network, or other
  /// clients). Re-arming replaces the previous payload.
  void arm_bootstrap(FederatedRun* run, RoundStrategy* strategy,
                     comm::Bytes payload);
  bool bootstrap_armed() const;
  const comm::Bytes& bootstrap_payload() const { return bootstrap_payload_; }

  // -- checkpoint integration ------------------------------------------------
  /// Clients a checkpoint must record: the dirty set, ascending. Clean
  /// clients are re-derived on resume from factory + bootstrap.
  std::vector<int> checkpoint_clients() const;
  /// Client k's encoded state (fl/client_state.hpp), whether k is resident
  /// (encoded live under a pin) or paged out (lifted from its page file
  /// without materializing).
  std::vector<std::byte> serialized_state(int k);
  /// Overwrites client k's state with checkpoint bytes: written as k's page
  /// for a paged store (no materialization), decoded into a materialized
  /// client otherwise. Marks k dirty.
  void restore_serialized_state(int k, std::span<const std::byte> bytes);
  /// Drops every materialized client, page file and dirty flag so the next
  /// access re-derives from factory + bootstrap — the first step of a
  /// checkpoint rollback (clients recorded in the checkpoint are then
  /// re-applied via restore_serialized_state).
  void reset();
  /// Forgets client k's state (resident + page + dirty flag) so it
  /// re-derives from factory + bootstrap; targeted restore of a client a
  /// checkpoint recorded as clean.
  void invalidate(int k);

  // -- introspection ---------------------------------------------------------
  /// Resident clients, counting slots held by clients in transit (being
  /// materialized or paged out).
  int resident_count() const;
  bool resident(int k) const;
  bool dirty(int k) const;
  ClientStoreStats stats() const;
  /// Pages out every unpinned resident client (test hook / memory release).
  void evict_idle();
  std::string page_path(int k) const;

 private:
  struct Entry {
    ClientPtr client;  // null while the entry is being materialized
    uint64_t last_use = 0;
    int pins = 0;
    /// The resident state equals k's page file: loaded from it and not
    /// leased dirty since, so eviction can drop it without a rewrite.
    bool page_current = false;
  };

  Client& acquire(int k, bool mark_dirty, bool pin,
                  std::unique_lock<std::mutex>& lk);
  Client& materialize(int k, bool mark_dirty, bool pin,
                      std::unique_lock<std::mutex>& lk);
  void make_room(std::unique_lock<std::mutex>& lk);
  void evict(int k, std::unique_lock<std::mutex>& lk);
  /// Runs `io` with the lock released while k is marked in transit; the
  /// mark clears (and waiters wake) whether or not `io` throws.
  void off_lock(int k, std::unique_lock<std::mutex>& lk,
                const std::function<void()>& io);
  /// Blocks until k is not in transit.
  void settle(int k, std::unique_lock<std::mutex>& lk);
  /// Blocks until no client is in transit.
  void settle_all(std::unique_lock<std::mutex>& lk);
  void load_page(int k, Client& client) const;
  void write_page(int k, std::vector<std::byte> state) const;
  void release(int k);
  void check_id(int k) const;

  int population_ = 0;
  ClientFactory factory_;
  std::vector<int64_t> train_sizes_;
  std::vector<Cost> costs_;               // empty = unset
  ClientStoreOptions options_;

  mutable std::mutex mu_;
  std::condition_variable settled_;         // a transit mark cleared
  std::unordered_map<int, Entry> entries_;  // materialized clients
  std::vector<char> dirty_;                 // sticky mutation flags
  std::vector<char> page_valid_;            // page file exists for client k
  std::vector<char> in_transit_;            // k's I/O runs off the lock
  int transits_ = 0;                        // clients in transit
  uint64_t use_tick_ = 0;
  int mru_id_ = -1;                         // never the eviction victim
  ClientStoreStats stats_;

  FederatedRun* bootstrap_run_ = nullptr;
  RoundStrategy* bootstrap_strategy_ = nullptr;
  comm::Bytes bootstrap_payload_;
  bool bootstrap_armed_ = false;
};

}  // namespace fca::fl
