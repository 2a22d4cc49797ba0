#include "obs/metrics.hpp"

#include <algorithm>
#include <chrono>
#include <map>
#include <memory>
#include <sstream>
#include <variant>

#include "utils/atomic_io.hpp"
#include "utils/error.hpp"

namespace fca::obs {

namespace detail {
std::atomic<bool> g_metrics{false};
}  // namespace detail

void set_metrics(bool on) {
  detail::g_metrics.store(on, std::memory_order_relaxed);
}

namespace {

double now_us() {
  static const auto epoch = std::chrono::steady_clock::now();
  return std::chrono::duration<double, std::micro>(
             std::chrono::steady_clock::now() - epoch)
      .count();
}

}  // namespace

void Histogram::observe(double v) {
  std::lock_guard lk(mu_);
  ++count_;
  sum_ += v;
  min_ = std::min(min_, v);
  max_ = std::max(max_, v);
}

uint64_t Histogram::count() const {
  std::lock_guard lk(mu_);
  return count_;
}

double Histogram::sum() const {
  std::lock_guard lk(mu_);
  return sum_;
}

double Histogram::min() const {
  std::lock_guard lk(mu_);
  return min_;
}

double Histogram::max() const {
  std::lock_guard lk(mu_);
  return max_;
}

void Histogram::reset() {
  std::lock_guard lk(mu_);
  count_ = 0;
  sum_ = 0.0;
  min_ = std::numeric_limits<double>::infinity();
  max_ = -std::numeric_limits<double>::infinity();
}

ScopedTimer::ScopedTimer(Histogram* h) : h_(h) {
  if (h_ != nullptr) start_us_ = now_us();
}

ScopedTimer::~ScopedTimer() {
  if (h_ != nullptr) h_->observe((now_us() - start_us_) * 1e-6);
}

struct MetricsRegistry::Impl {
  using Slot = std::variant<std::unique_ptr<Counter>, std::unique_ptr<Gauge>,
                            std::unique_ptr<Histogram>>;
  mutable std::mutex mu;
  std::map<std::string, Slot> metrics;
};

MetricsRegistry::Impl& MetricsRegistry::impl() const {
  static Impl* i = new Impl();  // leaked: usable from atexit exporters
  return *i;
}

MetricsRegistry& MetricsRegistry::instance() {
  static MetricsRegistry* r = new MetricsRegistry();
  return *r;
}

Counter& MetricsRegistry::counter(const std::string& name) {
  Impl& i = impl();
  std::lock_guard lk(i.mu);
  auto it = i.metrics.find(name);
  if (it == i.metrics.end()) {
    it = i.metrics.emplace(name, std::make_unique<Counter>()).first;
  }
  auto* slot = std::get_if<std::unique_ptr<Counter>>(&it->second);
  FCA_CHECK_MSG(slot != nullptr,
                "metric '" << name << "' already registered as a non-counter");
  return **slot;
}

Gauge& MetricsRegistry::gauge(const std::string& name) {
  Impl& i = impl();
  std::lock_guard lk(i.mu);
  auto it = i.metrics.find(name);
  if (it == i.metrics.end()) {
    it = i.metrics.emplace(name, std::make_unique<Gauge>()).first;
  }
  auto* slot = std::get_if<std::unique_ptr<Gauge>>(&it->second);
  FCA_CHECK_MSG(slot != nullptr,
                "metric '" << name << "' already registered as a non-gauge");
  return **slot;
}

Histogram& MetricsRegistry::histogram(const std::string& name) {
  Impl& i = impl();
  std::lock_guard lk(i.mu);
  auto it = i.metrics.find(name);
  if (it == i.metrics.end()) {
    it = i.metrics.emplace(name, std::make_unique<Histogram>()).first;
  }
  auto* slot = std::get_if<std::unique_ptr<Histogram>>(&it->second);
  FCA_CHECK_MSG(
      slot != nullptr,
      "metric '" << name << "' already registered as a non-histogram");
  return **slot;
}

std::vector<std::string> MetricsRegistry::names() const {
  Impl& i = impl();
  std::lock_guard lk(i.mu);
  std::vector<std::string> out;
  out.reserve(i.metrics.size());
  for (const auto& [name, slot] : i.metrics) out.push_back(name);
  return out;
}

void MetricsRegistry::reset() {
  Impl& i = impl();
  std::lock_guard lk(i.mu);
  for (auto& [name, slot] : i.metrics) {
    std::visit([](auto& m) { m->reset(); }, slot);
  }
}

std::string MetricsRegistry::render_jsonl() const {
  Impl& i = impl();
  std::lock_guard lk(i.mu);
  std::ostringstream os;
  for (const auto& [name, slot] : i.metrics) {
    os << "{\"name\":\"" << name << "\",";
    if (const auto* c = std::get_if<std::unique_ptr<Counter>>(&slot)) {
      os << "\"kind\":\"counter\",\"value\":" << (*c)->value();
    } else if (const auto* g = std::get_if<std::unique_ptr<Gauge>>(&slot)) {
      os << "\"kind\":\"gauge\",\"value\":" << (*g)->value();
    } else {
      const auto& h = *std::get<std::unique_ptr<Histogram>>(slot);
      const uint64_t n = h.count();
      os << "\"kind\":\"histogram\",\"count\":" << n << ",\"sum\":" << h.sum();
      if (n > 0) os << ",\"min\":" << h.min() << ",\"max\":" << h.max();
    }
    os << "}\n";
  }
  return os.str();
}

void MetricsRegistry::write_jsonl(const std::string& path) const {
  atomic_write_file(path, render_jsonl());
}

}  // namespace fca::obs
