// Transport regression bench: message rate, throughput and per-message
// latency quantiles for each comm backend (DESIGN.md §11), written to
// BENCH_transport.json so CI can track the fabrics over time.
//
// Each case runs an all-local world of 2 ranks and pushes `iters` messages
// of one payload size through a full send -> recv round trip — the path a
// federated round actually takes (Network policy included, so the numbers
// reflect what an experiment pays, not a bare ring write). Latency is the
// wall time of one send+recv pair; p50/p99 come from the recorded samples.
//
// The star rows time a round's two collectives per backend in a 21-rank
// all-local world (a server and 20 clients, 1 MiB shm rings): one
// Network::broadcast of a payload to the 20 clients, and one
// Network::gather of 20 such uploads into buffers kept across iterations,
// as the round driver keeps them. The clients' own receives and sends
// between the two are not timed. Two payloads: FedAvg's 708,000-byte model,
// which the shm backend moves on the kernel pool, and a 1,400-byte
// classifier pair, which stays under kFanOutFrameBytes and on the caller.
//
// Usage: bench_transport [output.json]   (default BENCH_transport.json)
#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <limits>
#include <optional>
#include <string>
#include <vector>

#include "comm/network.hpp"
#include "comm/transport/transport.hpp"

namespace {

using fca::comm::Bytes;
using fca::comm::Network;
using fca::comm::TransportKind;
using fca::comm::TransportOptions;
using Clock = std::chrono::steady_clock;

struct PayloadCase {
  const char* name;
  size_t bytes;
  int iters;
};

// 64 B covers control traffic (prototype tags, ACKs); 4 KiB a classifier
// upload at the scaled feature_dim; 64 KiB-1 MiB full model payloads.
const PayloadCase kPayloads[] = {
    {"64B", 64, 20000},
    {"4KiB", 4u << 10, 10000},
    {"64KiB", 64u << 10, 2000},
    {"1MiB", 1u << 20, 200},
};

const TransportKind kBackends[] = {TransportKind::kInproc,
                                   TransportKind::kShm, TransportKind::kTcp};

struct Measurement {
  const char* backend;
  const PayloadCase* payload;
  double seconds = 0.0;
  double msgs_per_sec = 0.0;
  double mb_per_sec = 0.0;
  double p50_us = 0.0;
  double p99_us = 0.0;
};

double percentile(std::vector<double>& sorted_us, double q) {
  if (sorted_us.empty()) return 0.0;
  const size_t idx = std::min(
      sorted_us.size() - 1,
      static_cast<size_t>(q * static_cast<double>(sorted_us.size() - 1)));
  return sorted_us[idx];
}

Measurement measure(TransportKind kind, const PayloadCase& pc) {
  TransportOptions opts;
  opts.kind = kind;
  // The auto ring size tops out at 1 MiB — too small for the 1 MiB payload
  // case's frame (payload + header). Size rings explicitly instead.
  opts.shm_ring_capacity = 8u << 20;
  Network net(2, {}, {}, fca::comm::make_transport(opts, 2));
  const Bytes payload(pc.bytes, std::byte{0x5A});

  // Warm-up: page in the rings / open the loopback streams.
  for (int i = 0; i < 16; ++i) {
    net.send(0, 1, 1, payload);
    (void)net.recv(1, 0, 1);
  }

  std::vector<double> samples_us;
  samples_us.reserve(static_cast<size_t>(pc.iters));
  const auto t0 = Clock::now();
  for (int i = 0; i < pc.iters; ++i) {
    const auto s0 = Clock::now();
    net.send(0, 1, 1, payload);
    (void)net.recv(1, 0, 1);
    const auto s1 = Clock::now();
    samples_us.push_back(
        std::chrono::duration<double, std::micro>(s1 - s0).count());
  }
  const auto t1 = Clock::now();

  Measurement m;
  m.backend = std::string_view(net.transport().name()).data();
  m.payload = &pc;
  m.seconds = std::chrono::duration<double>(t1 - t0).count();
  if (m.seconds > 0.0) {
    m.msgs_per_sec = static_cast<double>(pc.iters) / m.seconds;
    m.mb_per_sec = static_cast<double>(pc.iters) *
                   static_cast<double>(pc.bytes) / m.seconds / (1024.0 * 1024.0);
  }
  std::sort(samples_us.begin(), samples_us.end());
  m.p50_us = percentile(samples_us, 0.50);
  m.p99_us = percentile(samples_us, 0.99);
  return m;
}

constexpr int kStarClients = 20;
// FedClassAvg's classifier pair and fedavg-shm's model.
constexpr size_t kStarPayloadBytes[] = {1400, 708000};
constexpr int kStarIters = 100;

struct StarMeasurement {
  const char* backend;
  size_t payload_bytes = 0;
  double bcast_p50_us = 0.0;
  double bcast_p99_us = 0.0;
  double gather_p50_us = 0.0;
  double gather_p99_us = 0.0;
};

StarMeasurement measure_star(TransportKind kind, size_t payload_bytes) {
  TransportOptions opts;
  opts.kind = kind;
  opts.shm_ring_capacity = 1u << 20;
  const int world = kStarClients + 1;
  Network net(world, {}, {}, fca::comm::make_transport(opts, world));
  std::vector<int> clients(kStarClients);
  for (int k = 0; k < kStarClients; ++k) clients[static_cast<size_t>(k)] = k + 1;
  const Bytes payload(payload_bytes, std::byte{0x5A});
  std::vector<Bytes> storage(clients.size());
  std::vector<double> bcast_us, gather_us;
  // Two untimed warm-up rounds page in the rings and the kept buffers.
  for (int i = -2; i < kStarIters; ++i) {
    const auto b0 = Clock::now();
    net.broadcast(0, clients, 1, payload);
    const auto b1 = Clock::now();
    for (int k : clients) {
      (void)net.recv(k, 0, 1);
      net.send(k, 0, 2, payload);
    }
    const auto g0 = Clock::now();
    std::vector<std::optional<Bytes>> got = net.gather(
        0, clients, 2, std::numeric_limits<double>::infinity(), storage);
    const auto g1 = Clock::now();
    for (size_t k = 0; k < got.size(); ++k) storage[k] = std::move(*got[k]);
    if (i < 0) continue;
    bcast_us.push_back(std::chrono::duration<double, std::micro>(b1 - b0).count());
    gather_us.push_back(std::chrono::duration<double, std::micro>(g1 - g0).count());
  }
  std::sort(bcast_us.begin(), bcast_us.end());
  std::sort(gather_us.begin(), gather_us.end());
  StarMeasurement m;
  m.backend = std::string_view(net.transport().name()).data();
  m.payload_bytes = payload_bytes;
  m.bcast_p50_us = percentile(bcast_us, 0.50);
  m.bcast_p99_us = percentile(bcast_us, 0.99);
  m.gather_p50_us = percentile(gather_us, 0.50);
  m.gather_p99_us = percentile(gather_us, 0.99);
  return m;
}

}  // namespace

int main(int argc, char** argv) {
  const std::string out_path = argc > 1 ? argv[1] : "BENCH_transport.json";

  std::vector<Measurement> results;
  for (const TransportKind kind : kBackends) {
    for (const PayloadCase& pc : kPayloads) {
      const Measurement m = measure(kind, pc);
      std::printf(
          "%-7s %-6s %9.0f msg/s %9.1f MiB/s  p50 %7.2f us  p99 %7.2f us\n",
          m.backend, pc.name, m.msgs_per_sec, m.mb_per_sec, m.p50_us,
          m.p99_us);
      results.push_back(m);
    }
  }

  std::vector<StarMeasurement> stars;
  for (const TransportKind kind : kBackends) {
    for (const size_t bytes : kStarPayloadBytes) {
      const StarMeasurement m = measure_star(kind, bytes);
      std::printf(
          "%-7s star %d x %zu B  broadcast p50 %8.1f us p99 %8.1f us  "
          "gather p50 %8.1f us p99 %8.1f us\n",
          m.backend, kStarClients, m.payload_bytes, m.bcast_p50_us,
          m.bcast_p99_us, m.gather_p50_us, m.gather_p99_us);
      stars.push_back(m);
    }
  }

  std::FILE* f = std::fopen(out_path.c_str(), "w");
  if (!f) {
    std::fprintf(stderr, "cannot open %s for writing\n", out_path.c_str());
    return 1;
  }
  std::fprintf(f,
               "{\n  \"bench\": \"transport\",\n  \"setup\": \"all-local "
               "world of 2 ranks, send+recv round trip through Network\",\n");
  std::fprintf(f, "  \"results\": [\n");
  for (size_t i = 0; i < results.size(); ++i) {
    const Measurement& m = results[i];
    std::fprintf(f,
                 "    {\"backend\": \"%s\", \"payload\": \"%s\", "
                 "\"payload_bytes\": %zu, \"iters\": %d, \"seconds\": %.6f, "
                 "\"msgs_per_sec\": %.1f, \"mb_per_sec\": %.2f, "
                 "\"p50_us\": %.2f, \"p99_us\": %.2f}%s\n",
                 m.backend, m.payload->name, m.payload->bytes,
                 m.payload->iters, m.seconds, m.msgs_per_sec, m.mb_per_sec,
                 m.p50_us, m.p99_us, i + 1 < results.size() ? "," : "");
  }
  std::fprintf(f, "  ],\n");
  std::fprintf(f,
               "  \"star_setup\": \"all-local world of %d ranks, one "
               "Network::broadcast to and one Network::gather from %d "
               "clients\",\n",
               kStarClients + 1, kStarClients);
  std::fprintf(f, "  \"star\": [\n");
  for (size_t i = 0; i < stars.size(); ++i) {
    const StarMeasurement& m = stars[i];
    std::fprintf(f,
                 "    {\"backend\": \"%s\", \"clients\": %d, "
                 "\"payload_bytes\": %zu, \"iters\": %d, "
                 "\"bcast_p50_us\": %.1f, \"bcast_p99_us\": %.1f, "
                 "\"gather_p50_us\": %.1f, \"gather_p99_us\": %.1f}%s\n",
                 m.backend, kStarClients, m.payload_bytes, kStarIters,
                 m.bcast_p50_us, m.bcast_p99_us, m.gather_p50_us,
                 m.gather_p99_us, i + 1 < stars.size() ? "," : "");
  }
  std::fprintf(f, "  ]\n}\n");
  std::fclose(f);
  std::printf("\nwrote %s\n", out_path.c_str());
  return 0;
}
