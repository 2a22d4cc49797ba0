#include "fl/executor.hpp"

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <limits>
#include <memory>
#include <mutex>
#include <numeric>

#include "obs/trace.hpp"
#include "utils/error.hpp"
#include "utils/threadpool.hpp"

namespace fca::fl {
namespace {

/// Shared between the caller and its lanes. Held by shared_ptr: a lane task
/// that was queued but only runs after the pool frees up (e.g. on a
/// zero-worker pool, during some later wait_all) finds the claim counter
/// exhausted and exits without touching the long-gone caller frame.
struct MapState {
  std::vector<int> clients;
  std::function<double(int)> body;
  /// Position of each claim; empty = cohort order.
  std::vector<size_t> order;
  std::atomic<size_t> next{0};
  std::vector<double> results;
  std::vector<std::exception_ptr> errors;
  /// Non-empty in scoped mode: 1 = another process owns this position, the
  /// slot was pre-filled with NaN and the body must not run here.
  std::vector<char> skip;
  std::mutex mu;
  std::condition_variable cv;
  size_t done = 0;
};

/// One lane: claim positions until none remain. Which lane runs which client
/// is scheduling-dependent, but every body is self-contained and lands its
/// result in its own slot, so the outcome is not.
void run_lane(const std::shared_ptr<MapState>& st) {
  ThreadPool::SerialRegion serial;
  const size_t n = st->clients.size();
  for (;;) {
    const size_t claim = st->next.fetch_add(1, std::memory_order_relaxed);
    if (claim >= n) break;
    const size_t i = st->order.empty() ? claim : st->order[claim];
    if (!st->skip.empty() && st->skip[i] != 0) {
      std::lock_guard lk(st->mu);
      if (++st->done == n) st->cv.notify_all();
      continue;
    }
    try {
      // The body traces as its client's rank no matter which lane claimed
      // it — the coordinates come from here, not the thread.
      obs::ContextScope ctx(st->clients[i] + 1);
      st->results[i] = st->body(st->clients[i]);
    } catch (...) {
      st->errors[i] = std::current_exception();
    }
    std::lock_guard lk(st->mu);
    if (++st->done == n) st->cv.notify_all();
  }
}

}  // namespace

RoundExecutor::RoundExecutor(int parallelism, ThreadPool* pool)
    : parallelism_(parallelism), pool_(pool) {
  FCA_CHECK_MSG(parallelism >= 0,
                "client parallelism must be >= 0, got " << parallelism);
}

std::vector<size_t> RoundExecutor::claim_order(
    const std::vector<double>& costs) {
  std::vector<size_t> order(costs.size());
  std::iota(order.begin(), order.end(), size_t{0});
  std::stable_sort(order.begin(), order.end(), [&costs](size_t a, size_t b) {
    return costs[a] > costs[b];
  });
  return order;
}

std::vector<double> RoundExecutor::map(
    const std::vector<int>& clients, const std::function<double(int)>& body,
    const std::vector<double>& costs) const {
  const size_t n = clients.size();
  FCA_CHECK(costs.empty() || costs.size() == n);
  const bool scoped = scope_armed();
  ThreadPool& pool = pool_ != nullptr ? *pool_ : global_pool();
  size_t lanes = parallelism_ == 0 ? static_cast<size_t>(pool.size()) + 1
                                   : static_cast<size_t>(parallelism_);
  lanes = std::min(lanes, n);
  if (lanes <= 1 || pool.size() == 0) {
    // Serial sweep in cohort order on the calling thread. No SerialRegion:
    // with one client at a time the kernels keep their inner parallelism.
    std::vector<double> out;
    out.reserve(n);
    for (int k : clients) {
      if (scoped && !scope_.owns(k)) {
        // Another process runs this body; reconcile() fills the slot.
        out.push_back(std::numeric_limits<double>::quiet_NaN());
        continue;
      }
      obs::ContextScope ctx(k + 1);  // same coordinates as the lane path
      out.push_back(body(k));
    }
    if (scoped) scope_.reconcile(clients, out);
    return out;
  }

  auto st = std::make_shared<MapState>();
  st->clients = clients;
  st->body = body;
  if (!costs.empty()) st->order = claim_order(costs);
  st->results.assign(n, 0.0);
  st->errors.assign(n, nullptr);
  if (scoped) {
    st->skip.assign(n, 0);
    for (size_t i = 0; i < n; ++i) {
      if (!scope_.owns(clients[i])) {
        st->skip[i] = 1;
        st->results[i] = std::numeric_limits<double>::quiet_NaN();
      }
    }
  }
  for (size_t l = 1; l < lanes; ++l) {
    pool.submit([st] { run_lane(st); });
  }
  run_lane(st);  // the caller is lane 0
  {
    std::unique_lock lk(st->mu);
    st->cv.wait(lk, [&st, n] { return st->done == n; });
  }
  // Deterministic failure: the lowest cohort position's exception wins, as
  // it would in a serial sweep that reached that client.
  for (size_t i = 0; i < n; ++i) {
    if (st->errors[i]) std::rethrow_exception(st->errors[i]);
  }
  if (scoped) scope_.reconcile(clients, st->results);
  return std::move(st->results);
}

void RoundExecutor::for_each(const std::vector<int>& clients,
                             const std::function<void(int)>& body) const {
  map(clients, [&body](int k) {
    body(k);
    return 0.0;
  });
}

}  // namespace fca::fl
