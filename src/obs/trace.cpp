#include "obs/trace.hpp"

#include <algorithm>
#include <chrono>
#include <cstdlib>
#include <map>
#include <memory>
#include <mutex>
#include <set>
#include <sstream>
#include <utility>

#include "obs/metrics.hpp"
#include "utils/atomic_io.hpp"
#include "utils/threadpool.hpp"

namespace fca::obs {

namespace detail {
std::atomic<bool> g_tracing{false};
std::atomic<bool> g_kernels{false};
}  // namespace detail

void set_tracing(bool on) {
  detail::g_tracing.store(on, std::memory_order_relaxed);
}
void set_kernel_tracing(bool on) {
  detail::g_kernels.store(on, std::memory_order_relaxed);
}

namespace {

double now_us() {
  // One epoch per process; steady_clock so spans never go backwards.
  static const auto epoch = std::chrono::steady_clock::now();
  return std::chrono::duration<double, std::micro>(
             std::chrono::steady_clock::now() - epoch)
      .count();
}

/// Per-thread event sink. Owned by the registry (threads outlive their
/// buffers only logically: a pool worker keeps appending to the same buffer
/// across captures). The tiny per-buffer mutex is uncontended — only its own
/// thread appends — and exists so drain() from another thread is race-free.
struct EventBuffer {
  std::mutex mu;
  std::vector<TraceEvent> events;
};

struct TracerState {
  std::mutex registry_mu;
  std::vector<std::unique_ptr<EventBuffer>> buffers;
  std::mutex seq_mu;
  // One emission counter per (round, rank); cleared by drain(). node-based
  // map => stable addresses for the pointers cached in thread contexts.
  std::map<std::pair<int32_t, int32_t>, std::atomic<uint64_t>> seq;
  // Events emitted with no ContextScope (tools, tests) sequence globally.
  std::atomic<uint64_t> unscoped_seq{0};
};

TracerState& state() {
  static TracerState* s = new TracerState();  // leaked: outlives exit hooks
  return *s;
}

thread_local EventBuffer* tl_buffer = nullptr;
thread_local Tracer::Context tl_context;

EventBuffer& local_buffer() {
  if (tl_buffer == nullptr) {
    auto owned = std::make_unique<EventBuffer>();
    tl_buffer = owned.get();
    std::lock_guard lk(state().registry_mu);
    state().buffers.push_back(std::move(owned));
  }
  return *tl_buffer;
}

}  // namespace

Tracer& Tracer::instance() {
  static Tracer* t = new Tracer();
  return *t;
}

Tracer::Context Tracer::push_context(int rank) {
  Context previous = tl_context;
  Context next;
  next.round = current_round();
  next.rank = rank;
  next.for_depth = parallel_for_depth();
  {
    std::lock_guard lk(state().seq_mu);
    next.seq = &state().seq[{next.round, next.rank}];
  }
  tl_context = next;
  return previous;
}

bool kernel_spans_armed() {
  return tl_context.seq != nullptr &&
         parallel_for_depth() == tl_context.for_depth;
}

void Tracer::pop_context(const Context& previous) { tl_context = previous; }

void Tracer::record(const char* cat, const char* name, int64_t value,
                    double ts_us, double dur_us) {
  TraceEvent e;
  e.round = tl_context.round;
  e.rank = tl_context.rank;
  e.seq = tl_context.seq != nullptr
              ? tl_context.seq->fetch_add(1, std::memory_order_relaxed)
              : state().unscoped_seq.fetch_add(1, std::memory_order_relaxed);
  e.cat = cat;
  e.name = name;
  e.value = value;
  e.ts_us = ts_us;
  e.dur_us = dur_us;
  EventBuffer& buf = local_buffer();
  std::lock_guard lk(buf.mu);
  buf.events.push_back(e);
}

void Tracer::inject(const TraceEvent& e, const std::string& cat,
                    const std::string& name) {
  // Leaked interning pool: TraceEvent carries const char* (emission sites
  // pass literals), so wire-decoded strings need storage that outlives every
  // drain and the exit hooks.
  static std::mutex* pool_mu = new std::mutex();
  static std::set<std::string>* pool = new std::set<std::string>();
  TraceEvent copy = e;
  {
    std::lock_guard lk(*pool_mu);
    copy.cat = pool->insert(cat).first->c_str();
    copy.name = pool->insert(name).first->c_str();
  }
  copy.ts_us = 0.0;
  copy.dur_us = 0.0;
  EventBuffer& buf = local_buffer();
  std::lock_guard lk(buf.mu);
  buf.events.push_back(copy);
}

std::vector<TraceEvent> Tracer::drain() {
  TracerState& s = state();
  std::vector<TraceEvent> merged;
  {
    std::lock_guard lk(s.registry_mu);
    for (auto& buf : s.buffers) {
      std::lock_guard blk(buf->mu);
      merged.insert(merged.end(), buf->events.begin(), buf->events.end());
      buf->events.clear();
    }
  }
  {
    std::lock_guard lk(s.seq_mu);
    s.seq.clear();
  }
  s.unscoped_seq.store(0, std::memory_order_relaxed);
  std::stable_sort(merged.begin(), merged.end(),
                   [](const TraceEvent& a, const TraceEvent& b) {
                     if (a.round != b.round) return a.round < b.round;
                     if (a.rank != b.rank) return a.rank < b.rank;
                     return a.seq < b.seq;
                   });
  return merged;
}

ContextScope::ContextScope(int rank) {
  if (!tracing_enabled()) return;
  armed_ = true;
  previous_ = Tracer::instance().push_context(rank);
}

ContextScope::~ContextScope() {
  if (armed_) Tracer::instance().pop_context(previous_);
}

TraceSpan::TraceSpan(const char* cat, const char* name, int64_t value)
    : TraceSpan(cat, name, value, tracing_enabled()) {}

TraceSpan::TraceSpan(const char* cat, const char* name, int64_t value,
                     bool armed) {
  if (!armed) return;
  armed_ = true;
  cat_ = cat;
  name_ = name;
  value_ = value;
  start_us_ = now_us();
}

TraceSpan::~TraceSpan() {
  if (!armed_) return;
  const double end = now_us();
  Tracer::instance().record(cat_, name_, value_, start_us_,
                            end - start_us_);
}

// -- exporters --------------------------------------------------------------

std::string logical_line(const TraceEvent& e) {
  std::ostringstream os;
  os << "round=" << e.round << " rank=" << e.rank << " seq=" << e.seq
     << " cat=" << e.cat << " name=" << e.name << " value=" << e.value;
  return os.str();
}

std::vector<std::string> logical_lines(const std::vector<TraceEvent>& events) {
  std::vector<std::string> lines;
  lines.reserve(events.size());
  for (const TraceEvent& e : events) lines.push_back(logical_line(e));
  return lines;
}

uint64_t logical_digest(const std::vector<TraceEvent>& events) {
  uint64_t h = 1469598103934665603ull;  // FNV-1a offset basis
  const auto mix = [&h](const char* data, size_t n) {
    for (size_t i = 0; i < n; ++i) {
      h ^= static_cast<unsigned char>(data[i]);
      h *= 1099511628211ull;
    }
  };
  for (const TraceEvent& e : events) {
    const std::string line = logical_line(e);
    mix(line.data(), line.size());
    mix("\n", 1);
  }
  return h;
}

void write_trace_jsonl(const std::string& path,
                       const std::vector<TraceEvent>& events) {
  std::ostringstream os;
  for (const TraceEvent& e : events) {
    os << "{\"round\":" << e.round << ",\"rank\":" << e.rank
       << ",\"seq\":" << e.seq << ",\"cat\":\"" << e.cat << "\",\"name\":\""
       << e.name << "\",\"value\":" << e.value << ",\"ts_us\":" << e.ts_us
       << ",\"dur_us\":" << e.dur_us << "}\n";
  }
  atomic_write_file(path, os.str());
}

void write_chrome_trace(const std::string& path,
                        const std::vector<TraceEvent>& events) {
  std::ostringstream os;
  os << "{\"traceEvents\":[";
  bool first = true;
  for (const TraceEvent& e : events) {
    if (!first) os << ",";
    first = false;
    os << "\n{\"name\":\"" << e.name << "\",\"cat\":\"" << e.cat
       << "\",\"ph\":\"X\",\"pid\":0,\"tid\":" << e.rank
       << ",\"ts\":" << e.ts_us << ",\"dur\":" << e.dur_us
       << ",\"args\":{\"round\":" << e.round << ",\"seq\":" << e.seq
       << ",\"value\":" << e.value << "}}";
  }
  os << "\n]}\n";
  atomic_write_file(path, os.str());
}

void export_trace(const std::string& path,
                  const std::vector<TraceEvent>& events) {
  if (path.size() >= 5 && path.compare(path.size() - 5, 5, ".json") == 0) {
    write_chrome_trace(path, events);
  } else {
    write_trace_jsonl(path, events);
  }
}

namespace {

std::string g_env_trace_out;    // set once by configure_from_env
std::string g_env_metrics_out;  // set once by configure_from_env

void export_env_outputs() {
  if (!g_env_trace_out.empty()) {
    export_trace(g_env_trace_out, Tracer::instance().drain());
  }
  if (!g_env_metrics_out.empty()) {
    MetricsRegistry::instance().write_jsonl(g_env_metrics_out);
  }
}

}  // namespace

void configure_from_env() {
  static bool configured = false;
  if (configured) return;
  configured = true;
  const char* trace_out = std::getenv("FCA_TRACE_OUT");
  const char* kernels = std::getenv("FCA_TRACE_KERNELS");
  const char* metrics_out = std::getenv("FCA_METRICS_OUT");
  if (trace_out != nullptr && *trace_out != '\0') {
    g_env_trace_out = trace_out;
    set_tracing(true);
  }
  if (kernels != nullptr && *kernels != '\0' &&
      std::string(kernels) != "0") {
    set_kernel_tracing(true);
  }
  if (metrics_out != nullptr && *metrics_out != '\0') {
    g_env_metrics_out = metrics_out;
    set_metrics(true);
  }
  if (!g_env_trace_out.empty() || !g_env_metrics_out.empty()) {
    std::atexit(export_env_outputs);
  }
}

}  // namespace fca::obs
