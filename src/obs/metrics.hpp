// Named runtime metrics: counters, gauges and latency histograms.
//
// A process-wide MetricsRegistry hands out stable references by name —
// callers may cache the returned pointer/reference for the process lifetime
// (reset() zeroes values but never invalidates instruments). Counters and
// gauges are lock-free atomics; histograms take one short mutex per observe
// (their call sites — optimizer steps, checkpoint saves — are far off any
// inner loop). Collection is gated by metrics_enabled(): one relaxed atomic
// load when disabled.
//
// Export is a sorted-by-name JSONL snapshot (write_jsonl), making metric
// files diffable across runs.
#pragma once

#include <atomic>
#include <cstdint>
#include <limits>
#include <mutex>
#include <string>
#include <vector>

namespace fca::obs {

namespace detail {
extern std::atomic<bool> g_metrics;
}  // namespace detail

inline bool metrics_enabled() {
  return detail::g_metrics.load(std::memory_order_relaxed);
}
void set_metrics(bool on);

/// Monotonic event count.
class Counter {
 public:
  void add(uint64_t n = 1) { v_.fetch_add(n, std::memory_order_relaxed); }
  uint64_t value() const { return v_.load(std::memory_order_relaxed); }
  void reset() { v_.store(0, std::memory_order_relaxed); }

 private:
  std::atomic<uint64_t> v_{0};
};

/// Last-write-wins scalar.
class Gauge {
 public:
  void set(double v) { v_.store(v, std::memory_order_relaxed); }
  double value() const { return v_.load(std::memory_order_relaxed); }
  void reset() { v_.store(0.0, std::memory_order_relaxed); }

 private:
  std::atomic<double> v_{0.0};
};

/// Latency/size distribution: count, sum, min and max.
class Histogram {
 public:
  void observe(double v);
  uint64_t count() const;
  double sum() const;
  double min() const;  // +inf when empty
  double max() const;  // -inf when empty
  void reset();

 private:
  mutable std::mutex mu_;
  uint64_t count_ = 0;
  double sum_ = 0.0;
  double min_ = std::numeric_limits<double>::infinity();
  double max_ = -std::numeric_limits<double>::infinity();
};

/// Observes elapsed seconds into a histogram at scope exit; a null
/// histogram makes the timer a no-op (the disabled-metrics path).
class ScopedTimer {
 public:
  explicit ScopedTimer(Histogram* h);
  ~ScopedTimer();
  ScopedTimer(const ScopedTimer&) = delete;
  ScopedTimer& operator=(const ScopedTimer&) = delete;

 private:
  Histogram* h_;
  double start_us_ = 0.0;
};

class MetricsRegistry {
 public:
  static MetricsRegistry& instance();

  /// Find-or-create by name; the returned reference is stable for the
  /// process lifetime. Registering the same name as two different kinds
  /// throws.
  Counter& counter(const std::string& name);
  Gauge& gauge(const std::string& name);
  Histogram& histogram(const std::string& name);

  /// Registered metric names, sorted.
  std::vector<std::string> names() const;
  /// Zeroes every instrument's value; cached references stay valid.
  void reset();

  /// Sorted-by-name JSONL snapshot:
  ///   {"name":...,"kind":"counter","value":N}
  ///   {"name":...,"kind":"gauge","value":X}
  ///   {"name":...,"kind":"histogram","count":N,"sum":S,"min":m,"max":M}
  std::string render_jsonl() const;
  void write_jsonl(const std::string& path) const;

 private:
  MetricsRegistry() = default;
  struct Impl;
  Impl& impl() const;
};

}  // namespace fca::obs
