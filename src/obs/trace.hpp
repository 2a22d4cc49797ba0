// Deterministic tracing: structured span events for federated rounds and
// hot kernels.
//
// Every event carries two kinds of fields:
//   * logical coordinates — (round, rank, seq), category, name and an
//     integer value. These are pure functions of the run's configuration and
//     seed: the same run produces byte-identical logical traces regardless
//     of client_parallelism, wall-clock speed, or a checkpoint/resume split.
//   * wall-clock fields — ts_us/dur_us, measured from std::chrono. These are
//     segregated into their own struct members, kept out of logical_line()
//     and logical_digest(), and only surface in the exporters' timing
//     columns.
//
// The determinism contract rests on three properties (DESIGN.md §8):
//   1. Context. A span inherits (round, rank) from the innermost
//      ContextScope on its thread. The driver scopes rank 0 around each
//      round; the round executor scopes rank k+1 around each client body —
//      so the coordinates never depend on which lane ran the body.
//   2. Sequence. seq comes from a central per-(round, rank) counter. Within
//      one executor sweep a rank's body runs on exactly one thread, and
//      consecutive sweeps are barrier-separated, so each rank's events are
//      numbered in program order no matter the interleaving across ranks.
//   3. Merge. drain() stable-sorts the per-thread buffers by
//      (round, rank, seq) — a total order independent of emission timing.
//
// Overhead: when tracing is off (the default), every entry point reduces to
// one relaxed atomic load and a branch. Kernel-level spans (gemm, conv,
// SupCon, optimizer steps) are additionally gated behind the profile flag so
// round-phase tracing stays cheap.
#pragma once

#include <atomic>
#include <cstdint>
#include <string>
#include <vector>

namespace fca::obs {

namespace detail {
extern std::atomic<bool> g_tracing;
extern std::atomic<bool> g_kernels;
}  // namespace detail

/// Round/phase spans are recorded.
inline bool tracing_enabled() {
  return detail::g_tracing.load(std::memory_order_relaxed);
}
/// Kernel-level spans (gemm/conv/SupCon/optimizer) are recorded too.
inline bool kernel_tracing_enabled() {
  return detail::g_kernels.load(std::memory_order_relaxed) &&
         tracing_enabled();
}

void set_tracing(bool on);
void set_kernel_tracing(bool on);

/// True when a kernel span opened on this thread right now would be
/// deterministic: the thread holds a ContextScope and sits at the context's
/// own parallel_for_range nesting level (parallel_for_depth()). Calls made
/// from inside a parallel_for_range body fail the last condition however the
/// loop was scheduled — which thread runs a chunk, and whether chunks run
/// inline, depends on the pool and the lane count — so spans there are
/// suppressed and only the enclosing (context-level) kernel span is recorded.
bool kernel_spans_armed();

/// One completed span. cat/name point at string literals (every emission
/// site passes compile-time strings), so events are cheap to copy.
struct TraceEvent {
  // -- logical fields (determinism-relevant) --------------------------------
  int32_t round = 0;  // 0 = outside any round
  int32_t rank = -1;  // -1 = unscoped, 0 = server, k+1 = client k
  uint64_t seq = 0;   // per-(round, rank) emission index
  const char* cat = "";
  const char* name = "";
  int64_t value = -1;  // span-defined payload (cohort size, flops, ...)
  // -- wall-clock fields (excluded from logical_line / logical_digest) -----
  double ts_us = 0.0;   // span start, µs since process trace epoch
  double dur_us = 0.0;  // span duration, µs
};

/// Process-wide event sink. Emission goes to a per-thread buffer (one
/// uncontended mutex each); drain() merges deterministically.
class Tracer {
 public:
  static Tracer& instance();

  /// Sets the round new ContextScopes inherit (driver-owned; 0 = none).
  void set_round(int round) {
    round_.store(round, std::memory_order_relaxed);
  }
  int current_round() const {
    return round_.load(std::memory_order_relaxed);
  }

  /// Merges all thread buffers in (round, rank, seq) order and clears the
  /// capture (buffers and sequence counters) for the next one.
  std::vector<TraceEvent> drain();
  /// drain() without keeping the events.
  void reset() { (void)drain(); }

  // Internal API used by ContextScope / span guards.
  struct Context {
    int32_t round = 0;
    int32_t rank = -1;
    std::atomic<uint64_t>* seq = nullptr;
    int for_depth = 0;  // parallel_for_depth() at push time
  };
  /// Pushes a (current_round, rank) context on this thread; returns the
  /// previous one for restoration.
  Context push_context(int rank);
  void pop_context(const Context& previous);
  /// Records one completed span against this thread's innermost context.
  void record(const char* cat, const char* name, int64_t value, double ts_us,
              double dur_us);
  /// Appends an externally produced event verbatim — logical coordinates
  /// included, bypassing this process's context and sequence counters. The
  /// multi-process root merges joiner-shipped events this way; cat/name are
  /// interned (events normally point at string literals), wall-clock fields
  /// are zeroed (they are process-local and excluded from logical output).
  void inject(const TraceEvent& e, const std::string& cat,
              const std::string& name);

 private:
  Tracer() = default;
  std::atomic<int> round_{0};
};

/// Establishes the (round, rank) coordinates for spans on this thread.
/// No-op when tracing is disabled at construction.
class ContextScope {
 public:
  explicit ContextScope(int rank);
  ~ContextScope();
  ContextScope(const ContextScope&) = delete;
  ContextScope& operator=(const ContextScope&) = delete;

 private:
  bool armed_ = false;
  Tracer::Context previous_;
};

/// RAII span: times a block and emits one TraceEvent at destruction.
class TraceSpan {
 public:
  TraceSpan(const char* cat, const char* name, int64_t value = -1);
  ~TraceSpan();
  TraceSpan(const TraceSpan&) = delete;
  TraceSpan& operator=(const TraceSpan&) = delete;
  /// Overrides the logical value before emission (for quantities only known
  /// at block end, e.g. bytes written).
  void set_value(int64_t value) { value_ = value; }

 protected:
  TraceSpan(const char* cat, const char* name, int64_t value, bool armed);

 private:
  bool armed_ = false;
  const char* cat_ = "";
  const char* name_ = "";
  int64_t value_ = -1;
  double start_us_ = 0.0;
};

/// TraceSpan gated behind the kernel/profile flag — for hot paths whose
/// per-call instrumentation would drown a phase-level trace. Emits only
/// when kernel_spans_armed() (see above), keeping profiled traces
/// deterministic under both client- and kernel-level parallelism.
class ProfileSpan : public TraceSpan {
 public:
  ProfileSpan(const char* cat, const char* name, int64_t value = -1)
      : TraceSpan(cat, name, value,
                  kernel_tracing_enabled() && kernel_spans_armed()) {}
};

// -- exporters --------------------------------------------------------------

/// The logical (determinism-checked) rendering of one event:
/// "round=R rank=K seq=S cat=C name=N value=V". No wall-clock fields.
std::string logical_line(const TraceEvent& e);
std::vector<std::string> logical_lines(const std::vector<TraceEvent>& events);
/// FNV-1a over the '\n'-joined logical lines — the replay-stability digest.
uint64_t logical_digest(const std::vector<TraceEvent>& events);

/// One JSON object per line; logical fields first, wall-clock fields
/// ("ts_us"/"dur_us") last so determinism diffs can strip them by key.
void write_trace_jsonl(const std::string& path,
                       const std::vector<TraceEvent>& events);
/// Chrome trace_event JSON (load via chrome://tracing or Perfetto): complete
/// ("ph":"X") events, tid = rank, logical coordinates under "args".
void write_chrome_trace(const std::string& path,
                        const std::vector<TraceEvent>& events);
/// Dispatches on extension: ".json" -> Chrome trace, anything else -> JSONL.
void export_trace(const std::string& path,
                  const std::vector<TraceEvent>& events);

/// Enables tracing/metrics from the FCA_TRACE_OUT, FCA_TRACE_KERNELS and
/// FCA_METRICS_OUT environment variables and registers an atexit exporter
/// for whichever outputs are set. Used by the benches; idempotent.
void configure_from_env();

}  // namespace fca::obs
