// Deterministic parallel round executor.
//
// RoundExecutor fans per-client work — local training, distillation,
// model restore/upload — out over the process-wide fca::ThreadPool while
// guaranteeing that the results are bit-identical to a serial sweep in
// cohort order. The guarantees rest on four properties:
//
//   1. Client bodies are self-contained: each touches only its own model,
//      optimizer, RNG stream and shard, plus the thread-safe comm::Network
//      whose per-(src, dst, tag) mailboxes keep every channel's FIFO order
//      regardless of how sends from *different* ranks interleave.
//   2. Results are written into per-position slots and reduced on the
//      calling thread in cohort order, so floating-point reduction order
//      never depends on scheduling.
//   3. Every lane (including the caller's) runs inside a
//      ThreadPool::SerialRegion, so nested kernel parallel_for_range degrades
//      to a serial loop — no pool oversubscription, and the kernels' outputs
//      are chunk-invariant, so the numbers do not change.
//   4. If bodies throw, the exception of the lowest cohort position is
//      rethrown after all lanes drain — the same error a serial sweep that
//      got that far would report.
//
// Given a static cost per position, lanes claim positions costliest first
// (ties in cohort order), so the longest bodies do not start last and run
// alone at the end of the sweep. Only which lane runs a body, and when,
// depends on the order; slots, reduction, exception selection and trace
// coordinates stay in cohort order.
//
// parallelism semantics: 1 (default) is a plain serial loop on the calling
// thread with kernel parallelism left enabled — the historical behavior;
// N > 1 runs at most N client bodies concurrently; 0 means auto (one lane
// per available hardware worker plus the caller).
#pragma once

#include <functional>
#include <vector>

namespace fca {
class ThreadPool;
}

namespace fca::fl {

class RoundExecutor {
 public:
  /// Scoped-mode (multi-process) hooks. When armed, a sweep runs only the
  /// bodies whose client this rank owns — the other positions' results are
  /// quiet NaN placeholders — and then calls `reconcile` so the run driver
  /// can exchange the real values over the fabric. The reconcile call after
  /// every armed sweep doubles as the per-round cross-rank barrier.
  struct ScopeHooks {
    std::function<bool(int)> owns;
    std::function<void(const std::vector<int>&, std::vector<double>&)>
        reconcile;
  };

  /// `pool` defaults to fca::global_pool(); tests inject standalone pools.
  explicit RoundExecutor(int parallelism = 1, ThreadPool* pool = nullptr);

  int parallelism() const { return parallelism_; }

  /// Installs (once) the scoped-mode hooks; they stay dormant until armed.
  void install_scope(ScopeHooks hooks) { scope_ = std::move(hooks); }
  /// Toggles the installed hooks. The run driver arms them only around
  /// strategy code (initialize / execute_round): evaluation and test
  /// harness sweeps keep the all-local semantics.
  void arm_scope(bool armed) { scope_armed_ = armed; }
  bool scope_armed() const { return scope_armed_ && scope_.owns != nullptr; }

  /// Runs body(clients[i]) for every position i and returns the results in
  /// cohort order. Bodies may run concurrently (see class comment); the
  /// returned vector is always positionally deterministic. `costs`, when
  /// given, holds one static work estimate per position and sets the order
  /// in which lanes claim positions (claim_order); a serial sweep ignores it.
  std::vector<double> map(const std::vector<int>& clients,
                          const std::function<double(int)>& body,
                          const std::vector<double>& costs = {}) const;

  /// Positions sorted by descending cost, ties by ascending position.
  static std::vector<size_t> claim_order(const std::vector<double>& costs);

  /// map() for side-effect-only bodies (restore/upload sweeps).
  void for_each(const std::vector<int>& clients,
                const std::function<void(int)>& body) const;

 private:
  int parallelism_;
  ThreadPool* pool_;
  ScopeHooks scope_;
  bool scope_armed_ = false;
};

}  // namespace fca::fl
