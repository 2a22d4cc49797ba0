#include "fl/rank_runner.hpp"

#include <algorithm>
#include <bit>
#include <limits>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "obs/trace.hpp"
#include "utils/bytes.hpp"
#include "utils/error.hpp"

namespace fca::fl {

namespace {

// Smallest encodings the out-of-band decoders bound their counts by: a
// gather mirror entry is an i32 client + a u32-prefixed payload; a trace
// event two i32s, two u64s and two u32-prefixed strings.
constexpr size_t kMinUploadBytes = 2 * sizeof(uint32_t);
constexpr size_t kMinTraceEventBytes =
    4 * sizeof(uint32_t) + 2 * sizeof(uint64_t);

void fnv_mix(uint64_t& h, uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    h ^= (v >> (8 * i)) & 0xFFu;
    h *= 1099511628211ull;
  }
}

[[noreturn]] void reject_context(const std::string& why) {
  throw comm::TransportError(comm::TransportErrc::kHandshakeRejected,
                             comm::TransportError::kNoPeer,
                             "run context mismatch: " + why);
}

}  // namespace

uint64_t scoped_config_digest(const FLConfig& config, int population) {
  uint64_t h = 1469598103934665603ull;  // FNV-1a offset basis
  fnv_mix(h, static_cast<uint64_t>(config.rounds));
  fnv_mix(h, static_cast<uint64_t>(config.local_epochs));
  fnv_mix(h, std::bit_cast<uint64_t>(config.sample_rate));
  fnv_mix(h, static_cast<uint64_t>(config.eval_every));
  fnv_mix(h, static_cast<uint64_t>(config.quorum));
  fnv_mix(h, static_cast<uint64_t>(config.eval_clients));
  fnv_mix(h, config.seed);
  fnv_mix(h, std::bit_cast<uint64_t>(config.cost.latency_s));
  fnv_mix(h, std::bit_cast<uint64_t>(config.cost.bandwidth_bps));
  fnv_mix(h, static_cast<uint64_t>(population));
  fnv_mix(h, static_cast<uint64_t>(population + 1));  // world size
  return h;
}

comm::Handshake make_scoped_handshake(const FLConfig& config, int population) {
  comm::Handshake hs;
  hs.seed = config.seed;
  hs.next_round = config.resume_next_round;
  hs.faults = config.faults;
  hs.world_size = static_cast<uint32_t>(population + 1);
  hs.population = static_cast<uint32_t>(population);
  hs.config_digest = scoped_config_digest(config, population);
  hs.flags = obs::tracing_enabled() ? comm::Handshake::kFlagTracing : 0u;
  return hs;
}

void verify_scoped_handshake(const comm::Handshake& got,
                             const comm::Handshake& expected) {
  if (got.seed != expected.seed) {
    std::ostringstream os;
    os << "seed " << got.seed << " != " << expected.seed;
    reject_context(os.str());
  }
  if (got.next_round != expected.next_round) {
    std::ostringstream os;
    os << "resume round " << got.next_round << " != " << expected.next_round
       << " (stale checkpoint view?)";
    reject_context(os.str());
  }
  if (got.world_size != expected.world_size ||
      got.population != expected.population) {
    std::ostringstream os;
    os << "world " << got.world_size << "/" << got.population
       << " clients != " << expected.world_size << "/" << expected.population;
    reject_context(os.str());
  }
  if (got.config_digest != expected.config_digest) {
    reject_context("run configuration digests differ");
  }
  if (comm::serialize_fault_config(got.faults) !=
      comm::serialize_fault_config(expected.faults)) {
    reject_context("fault schedules differ");
  }
  // Tracing is adopted, not compared: the root decides whether the run is
  // traced, and joiners must record events exactly when it does.
  obs::set_tracing((got.flags & comm::Handshake::kFlagTracing) != 0);
}

comm::Bytes encode_gather_mirror(const FederatedRun::SurvivorGather& g) {
  utils::ByteWriter w;
  w.u32(static_cast<uint32_t>(g.survivors.size()));
  for (size_t i = 0; i < g.survivors.size(); ++i) {
    w.i32(g.survivors[i]);
    w.bytes(g.payloads[i]);
  }
  return w.take();
}

FederatedRun::SurvivorGather decode_gather_mirror(
    std::span<const std::byte> blob, const std::vector<int>& expected) {
  FederatedRun::SurvivorGather g;
  utils::ByteReader r(blob);
  const uint32_t n = r.count(kMinUploadBytes);
  g.survivors.reserve(n);
  g.payloads.reserve(n);
  size_t next = 0;  // survivors are a subsequence of `expected`, in order
  for (uint32_t i = 0; i < n; ++i) {
    const int k = r.i32();
    while (next < expected.size() && expected[next] != k) ++next;
    FCA_CHECK_MSG(next < expected.size(), "gather mirror lists client "
                                              << k << " out of gather order");
    ++next;
    g.survivors.push_back(k);
    const std::span<const std::byte> payload = r.bytes();
    g.payloads.emplace_back(payload.begin(), payload.end());
  }
  r.expect_done();
  return g;
}

// -- FederatedRun scoped machinery -------------------------------------------

void FederatedRun::scoped_install_hooks() {
  executor_.install_scope(RoundExecutor::ScopeHooks{
      [this](int k) { return owns_client(k); },
      [this](const std::vector<int>& clients, std::vector<double>& results) {
        scoped_reconcile(clients, results);
      }});
}

void FederatedRun::scoped_reconcile(const std::vector<int>& clients,
                                    std::vector<double>& results) {
  if (!is_root()) {
    for (size_t i = 0; i < clients.size(); ++i) {
      if (!owns_client(clients[i])) continue;
      utils::ByteWriter w;
      w.f64(results[i]);
      network_->oob_send(0, kOobMapValue, w.take());
    }
    return;
  }
  for (size_t i = 0; i < clients.size(); ++i) {
    const int k = clients[i];
    if (!network_->peer_alive(k + 1)) {
      results[i] = std::numeric_limits<double>::quiet_NaN();
      continue;
    }
    // Blocking: this is the per-sweep barrier, and — the owner having sent
    // its value strictly after its data-plane sends on the same FIFO edge —
    // the proof that every surviving owner's round traffic has arrived
    // before the server-side gather polls for it. A drained timeout here is
    // where a SIGKILLed peer is detected and condemned.
    std::optional<comm::Bytes> blob = network_->oob_recv(k + 1, kOobMapValue);
    if (!blob.has_value()) {
      results[i] = std::numeric_limits<double>::quiet_NaN();
      continue;
    }
    utils::ByteReader r(*blob);
    results[i] = r.f64();
  }
}

void FederatedRun::scoped_publish_gather(const SurvivorGather& g) {
  const comm::Bytes blob = encode_gather_mirror(g);
  for (int k = 0; k < num_clients(); ++k) {
    if (!network_->peer_alive(k + 1)) continue;
    network_->oob_send(k + 1, kOobGather, blob);
  }
}

FederatedRun::SurvivorGather FederatedRun::scoped_consume_gather(
    const std::vector<int>& expected) {
  // Patient wait: the root publishes the mirror only after it reconciled
  // every sweep position, and each joiner that died this round costs it one
  // full io timeout to discover. One attempt per possibly-dead peer (plus
  // slack) keeps a healthy-but-delayed root from being condemned here.
  std::optional<comm::Bytes> blob =
      network_->oob_recv(0, kOobGather, num_clients() + 1);
  FCA_CHECK_MSG(blob.has_value(),
                "root rank died: no gather mirror on the control channel");
  return decode_gather_mirror(*blob, expected);
}

void FederatedRun::scoped_sync_state() {
  if (!is_root()) {
    const int own = self_rank() - 1;
    network_->oob_send(0, kOobState, store_->serialized_state(own));
    return;
  }
  for (int k = 0; k < num_clients(); ++k) {
    if (!network_->peer_alive(k + 1)) continue;
    std::optional<comm::Bytes> blob = network_->oob_recv(k + 1, kOobState);
    // A timeout condemned the peer just now; the mirror keeps the last
    // synced state — exactly what an injected crash leaves behind.
    if (!blob.has_value()) continue;
    store_->restore_serialized_state(k, *blob);
  }
}

void FederatedRun::scoped_sync_trace() {
  if (!obs::tracing_enabled()) return;
  obs::Tracer& tracer = obs::Tracer::instance();
  if (!is_root()) {
    // Drain everything this joiner buffered and forward only its own rank's
    // events: SPMD means joiners also emit the driver's rank-0 spans, which
    // the root already produces itself.
    const std::vector<obs::TraceEvent> events = tracer.drain();
    utils::ByteWriter w;
    uint32_t count = 0;
    for (const obs::TraceEvent& e : events) {
      if (e.rank == self_rank()) ++count;
    }
    w.u32(count);
    for (const obs::TraceEvent& e : events) {
      if (e.rank != self_rank()) continue;
      w.i32(e.round);
      w.i32(e.rank);
      w.u64(e.seq);
      w.str(e.cat);
      w.str(e.name);
      w.u64(static_cast<uint64_t>(e.value));
    }
    network_->oob_send(0, kOobTrace, w.take());
    return;
  }
  for (int k = 0; k < num_clients(); ++k) {
    if (!network_->peer_alive(k + 1)) continue;
    std::optional<comm::Bytes> blob = network_->oob_recv(k + 1, kOobTrace);
    if (!blob.has_value()) continue;
    utils::ByteReader r(*blob);
    const uint32_t n = r.count(kMinTraceEventBytes);
    for (uint32_t i = 0; i < n; ++i) {
      obs::TraceEvent e;
      e.round = r.i32();
      e.rank = r.i32();
      e.seq = r.u64();
      const std::string cat(r.str());
      const std::string name(r.str());
      e.value = static_cast<int64_t>(r.u64());
      tracer.inject(e, cat, name);
    }
  }
}

}  // namespace fca::fl
