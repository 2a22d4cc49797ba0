// Command-line experiment runner: compose any experiment the library
// supports without writing code.
//
//   $ ./examples/fca_cli --dataset synth-fmnist --algorithm fedclassavg
//   $ ./examples/fca_cli --algorithm ktpfl --models homogeneous
//   $ ./examples/fca_cli --rounds 30 --partition skewed --save-curve out.csv
//   $ ./examples/fca_cli --rounds 20 --checkpoint-dir ckpts
//         --checkpoint-every 5          # checkpoint as the run progresses
//   $ ./examples/fca_cli --rounds 20 --checkpoint-dir ckpts --resume
//                                       # continue from the last checkpoint
//   $ ./examples/fca_cli --trace-out trace.json --metrics-out metrics.jsonl
//                                       # deterministic trace + metrics dump
//   $ ./examples/fca_cli --transport shm   # run over shared-memory rings
//   $ ./examples/fca_cli probe --rank 0 --world-size 2 --bind :7077 &
//   $ ./examples/fca_cli probe --rank 1 --world-size 2
//         --connect 127.0.0.1:7077      # 2-process fabric probe (DESIGN §11)
//   $ ./examples/fca_cli --help
//
// Algorithms: local | fedavg | fedprox | fedproto | ktpfl | ktpfl-weight |
//             fedclassavg | fedclassavg-weight | fedclassavg-simclr |
//             fedclassavg-proto
#include <charconv>
#include <climits>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <limits>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <type_traits>

#include "comm/endpoint.hpp"
#include "comm/fault.hpp"
#include "comm/network.hpp"
#include "comm/retry.hpp"
#include "comm/transport/error.hpp"
#include "comm/transport/handshake.hpp"
#include "comm/transport/transport.hpp"
#include "core/fedclassavg.hpp"
#include "core/fedclassavg_proto.hpp"
#include "core/trainer.hpp"
#include "fl/fedavg.hpp"
#include "fl/fedprox.hpp"
#include "fl/fedproto.hpp"
#include "fl/ktpfl.hpp"
#include "fl/local_only.hpp"
#include "fl/metrics.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "utils/csv.hpp"
#include "utils/error.hpp"

namespace {

using namespace fca;

void print_help() {
  std::printf(
      "fca_cli — run a FedClassAvg-framework experiment\n\n"
      "  --dataset NAME      synth-fmnist | synth-cifar10 | synth-emnist\n"
      "  --algorithm NAME    local | fedavg | fedprox | fedproto | ktpfl |\n"
      "                      ktpfl-weight | fedclassavg | fedclassavg-weight\n"
      "                      | fedclassavg-simclr | fedclassavg-proto\n"
      "  --clients N         number of clients (default 10)\n"
      "  --rounds N          communication rounds (default 20)\n"
      "  --partition NAME    dirichlet | skewed (default dirichlet)\n"
      "  --alpha X           Dirichlet concentration (default 0.5)\n"
      "  --models NAME       heterogeneous | homogeneous | cnn2\n"
      "  --sample-rate X     client participation per round (default 1.0)\n"
      "  --train-per-class N synthetic samples per class (default 25)\n"
      "  --seed N            experiment seed (default 42)\n"
      "  --client-parallelism N  concurrent client updates per round:\n"
      "                      1 serial (default), N>1 bounded fan-out, 0 auto.\n"
      "                      Results are bit-identical at any value\n"
      "  --max-resident-clients N  cap on clients held in memory at once\n"
      "                      (O(active-cohort) memory; DESIGN.md §13). Idle\n"
      "                      clients page to disk and restore bit-identically\n"
      "                      on reselection. 0 (default) keeps the whole\n"
      "                      population resident; N must be at least\n"
      "                      --client-parallelism + 1. The env var\n"
      "                      FCA_MAX_RESIDENT_CLIENTS overrides\n"
      "  --page-dir D        directory for paged client state (default: a\n"
      "                      fresh directory under the system temp dir,\n"
      "                      cleaned up when the run ends)\n"
      "  --lazy-init         skip the all-population init sweep; clients are\n"
      "                      built on first selection from a bootstrap\n"
      "                      payload. Curve bit-identical to eager init;\n"
      "                      total traffic is smaller (init broadcasts\n"
      "                      skipped). Supported by every built-in algorithm\n"
      "  --eval-clients N    evaluate only clients [0, N) per eval round\n"
      "                      (0 = all; bounds eval cost at massive scale)\n"
      "  --save-curve PATH   write the learning curve as CSV\n"
      "  --checkpoint-dir D  checkpoint directory (enables checkpointing)\n"
      "  --checkpoint-every N  save every N rounds (default 1)\n"
      "  --checkpoint-keep N   retain the newest N checkpoints (default 2)\n"
      "  --resume            continue from the last checkpoint in\n"
      "                      --checkpoint-dir (fresh run if none exists)\n"
      "\nFault injection (replayable chaos; see DESIGN.md §7):\n"
      "  --drop-rate X       probability a message is lost in flight\n"
      "  --straggler-rate X  probability a client's sends are delayed for a\n"
      "                      round\n"
      "  --straggler-delay S extra transfer seconds per straggling message\n"
      "                      (default 1.0)\n"
      "  --round-deadline S  simulated-time budget per message; slower ones\n"
      "                      miss the round (default: none)\n"
      "  --crash-rate X      per-round probability a client goes down\n"
      "  --crash-rounds K    outage length in rounds (default 1)\n"
      "  --crash-schedule S  explicit outages, e.g. 2@3x2,5@7 = client rank\n"
      "                      2 down rounds 3-4, rank 5 down round 7\n"
      "  --fault-seed N      fault randomness, independent of --seed\n"
      "                      (default 0)\n"
      "  --quorum N          min survivors to commit a round (default 1)\n"
      "\nTransport (pluggable comm backend; see DESIGN.md §11):\n"
      "  --transport NAME    inproc | shm | tcp (default inproc; the\n"
      "                      FCA_TRANSPORT env var overrides). Any backend\n"
      "                      yields bit-identical curves and traffic\n"
      "  --shm-name NAME     POSIX shm object (\"/name\") for the shm\n"
      "                      backend; default: anonymous process mapping\n"
      "  --io-retries N      attempts per transport operation (dials,\n"
      "                      reconnects; default 40). 1 disables retries\n"
      "  --io-backoff S      base backoff seconds before the first retry;\n"
      "                      doubles per attempt, capped, seeded jitter\n"
      "                      (default 0.02). See DESIGN.md §12\n"
      "\nMulti-process run (one OS process per fabric rank; DESIGN.md §14):\n"
      "  --rank N            run this process as fabric rank N: 0 hosts the\n"
      "                      server (aggregation, eval, checkpoints, curve),\n"
      "                      rank k+1 runs client k. Launch clients+1\n"
      "                      processes with the same experiment flags and\n"
      "                      distinct ranks; curves and checkpoints are\n"
      "                      byte-identical to the single-process run\n"
      "  --world-size N      total processes; must equal --clients + 1\n"
      "  --bind HOST:PORT    tcp rank 0: rendezvous listener address\n"
      "  --connect HOST:PORT tcp rank >0: rank 0's rendezvous address\n"
      "  (--resume works too: every rank reads the shared --checkpoint-dir\n"
      "  and the rendezvous handshake rejects stale checkpoint views)\n"
      "\nFabric probe (multi-process transport smoke test):\n"
      "  probe               first positional arg: run the probe instead of\n"
      "                      an experiment. Each participating process runs\n"
      "                      one rank; they rendezvous, exchange the seed +\n"
      "                      fault plan, cross-check the derived fault\n"
      "                      schedule and ping-pong verification traffic.\n"
      "                      Exit codes: 0 = every check passed on this\n"
      "                      rank, 1 = determinism failure (fault-schedule\n"
      "                      digest or payload mismatch), 2 = connectivity\n"
      "                      failure (unreachable / reset / timed-out /\n"
      "                      corrupt peer), 3 = handshake rejected\n"
      "                      (incompatible build or world)\n"
      "  --rank N            this process's fabric rank (0 = root)\n"
      "  --world-size N      total ranks across all processes (default 2)\n"
      "  --bind HOST:PORT    tcp rank 0: rendezvous listener address\n"
      "  --connect HOST:PORT tcp rank >0: rank 0's rendezvous address\n"
      "  --io-timeout S      wall-clock budget for remote peers (default 30)\n"
      "  --probe-messages N  ping-pong messages per peer (default 8)\n"
      "\nObservability (DESIGN.md §8):\n"
      "  --trace-out PATH    write the round/phase trace after the run\n"
      "                      (.json = Chrome trace_event, else JSONL). The\n"
      "                      logical fields are deterministic: same seed =>\n"
      "                      same trace at any --client-parallelism\n"
      "  --metrics-out PATH  write the metrics registry (counters, gauges,\n"
      "                      histograms) as JSONL after the run\n"
      "  --profile           also record kernel-level spans (gemm, conv,\n"
      "                      SupCon, optimizer steps); implies tracing\n"
      "  --help              this text\n");
}

std::map<std::string, std::string> parse_flags(int argc, char** argv) {
  std::map<std::string, std::string> flags;
  for (int i = 1; i < argc; ++i) {
    std::string key = argv[i];
    if (key.rfind("--", 0) != 0) {
      if (key == "probe") {  // the only positional command
        flags["probe"] = "1";
        continue;
      }
      throw Error("unexpected argument: " + key + " (see --help)");
    }
    key = key.substr(2);
    if (key == "help" || key == "resume" || key == "profile" ||
        key == "lazy-init") {
      // value-less flags
      flags[key] = "1";
      continue;
    }
    if (i + 1 >= argc) throw Error("missing value for --" + key);
    flags[key] = argv[++i];
  }
  return flags;
}

std::string get_flag(const std::map<std::string, std::string>& flags,
                     const char* key, const std::string& fallback) {
  auto it = flags.find(key);
  return it == flags.end() ? fallback : it->second;
}

/// The value of numeric flag --key (or `fallback`), parsed as a whole
/// string and checked against [lo, hi]. Trailing characters, a non-number,
/// a non-finite value or one outside the range throw an Error that names
/// the flag and its value.
template <class T>
T number_flag(const std::map<std::string, std::string>& flags,
              const char* key, const char* fallback, T lo, T hi) {
  const std::string value = get_flag(flags, key, fallback);
  const char* end = value.data() + value.size();
  T v{};
  const auto [ptr, ec] = std::from_chars(value.data(), end, v);
  if (value.empty() || ec == std::errc::invalid_argument || ptr != end) {
    throw Error("--" + std::string(key) + " expects a number, got '" +
                value + "'");
  }
  bool finite = true;
  if constexpr (std::is_floating_point_v<T>) finite = std::isfinite(v);
  if (ec == std::errc::result_out_of_range || !finite || v < lo || v > hi) {
    std::ostringstream os;
    os << "--" << key << " " << value << " is outside [" << lo << ", " << hi
       << "]";
    throw Error(os.str());
  }
  return v;
}

int int_flag(const std::map<std::string, std::string>& flags, const char* key,
             const char* fallback, int lo, int hi = INT_MAX) {
  return number_flag<int>(flags, key, fallback, lo, hi);
}

double double_flag(const std::map<std::string, std::string>& flags,
                   const char* key, const char* fallback, double lo = 0.0,
                   double hi = std::numeric_limits<double>::max()) {
  return number_flag<double>(flags, key, fallback, lo, hi);
}

uint64_t u64_flag(const std::map<std::string, std::string>& flags,
                  const char* key, const char* fallback) {
  return number_flag<uint64_t>(flags, key, fallback, 0,
                               std::numeric_limits<uint64_t>::max());
}

comm::FaultConfig fault_config_from_flags(
    const std::map<std::string, std::string>& flags) {
  comm::FaultConfig faults;
  faults.drop_rate = double_flag(flags, "drop-rate", "0", 0.0, 1.0);
  faults.straggler_rate = double_flag(flags, "straggler-rate", "0", 0.0, 1.0);
  faults.straggler_delay_s = double_flag(flags, "straggler-delay", "1");
  if (flags.count("round-deadline") != 0) {
    faults.round_deadline_s = double_flag(flags, "round-deadline", "");
  }
  faults.crash_rate = double_flag(flags, "crash-rate", "0", 0.0, 1.0);
  faults.crash_rounds = int_flag(flags, "crash-rounds", "1", 1);
  faults.crash_schedule =
      comm::parse_crash_schedule(get_flag(flags, "crash-schedule", ""));
  faults.fault_seed = u64_flag(flags, "fault-seed", "0");
  return faults;
}

/// --io-retries / --io-backoff over the policy defaults, rejected with the
/// flag names in the message when meaningless (RetryPolicy::validate).
comm::RetryPolicy retry_policy_from_flags(
    const std::map<std::string, std::string>& flags) {
  comm::RetryPolicy retry;
  retry.max_attempts = int_flag(flags, "io-retries", "40", 1);
  retry.base_backoff_s = double_flag(flags, "io-backoff", "0.02");
  retry.validate();
  return retry;
}

/// FNV-1a over every fault decision a fixed coordinate grid can ask for.
/// Pure function of the FaultConfig, so every process of a correctly
/// rendezvoused world computes the identical digest.
uint64_t fault_schedule_digest(const comm::FaultPlan& plan, int world) {
  uint64_t h = 1469598103934665603ull;
  auto mix = [&h](uint64_t v) {
    h ^= v;
    h *= 1099511628211ull;
  };
  constexpr int kRounds = 8;
  constexpr uint64_t kSeqs = 16;
  for (int round = 1; round <= kRounds; ++round) {
    for (int rank = 0; rank < world; ++rank) {
      mix(plan.crashed(round, rank) ? 1 : 0);
      mix(plan.rejoined(round, rank) ? 1 : 0);
      mix(plan.straggling(round, rank) ? 1 : 0);
    }
  }
  for (int src = 0; src < world; ++src) {
    for (int dst = 0; dst < world; ++dst) {
      for (uint64_t seq = 1; seq <= kSeqs; ++seq) {
        mix(plan.drop_message(src, dst, /*tag=*/1, seq) ? 1 : 0);
      }
    }
  }
  return h;
}

/// Probe body once the options are validated: rendezvous, fault-schedule
/// digest cross-check, deterministic ping-pong. Returns 0 (all checks
/// passed) or 1 (determinism failure); typed transport errors escape to
/// run_probe, which maps them onto the connectivity/handshake exit codes.
int probe_checks(comm::TransportOptions topts, int world, int messages,
                 comm::Handshake hs) {
  const int rank = topts.self_rank;
  std::unique_ptr<comm::Transport> transport =
      comm::make_transport(topts, world, &hs);
  std::printf("probe rank %d/%d up on %s (seed %llu)\n", rank, world,
              std::string(transport->name()).c_str(),
              static_cast<unsigned long long>(hs.seed));

  comm::Network net(world, comm::CostModel{}, hs.faults,
                    std::move(transport));
  comm::Endpoint ep(net, rank);
  constexpr int kTagDigest = 1, kTagPing = 2, kTagPong = 3;
  bool ok = true;

  // Check 1: every rank derives the identical fault schedule from the
  // handshake — the property that makes multi-process fault injection
  // deterministic.
  const uint64_t digest = fault_schedule_digest(net.fault_plan(), world);
  if (rank == 0) {
    for (int peer = 1; peer < world; ++peer) {
      const comm::Bytes blob = ep.recv(peer, kTagDigest);
      uint64_t theirs = 0;
      std::memcpy(&theirs, blob.data(), std::min(sizeof(theirs), blob.size()));
      if (blob.size() != sizeof(uint64_t) || theirs != digest) {
        std::fprintf(stderr,
                     "probe: rank %d fault digest %016llx != root %016llx\n",
                     peer, static_cast<unsigned long long>(theirs),
                     static_cast<unsigned long long>(digest));
        ok = false;
      }
    }
  } else {
    const auto* p = reinterpret_cast<const std::byte*>(&digest);
    ep.send(0, kTagDigest, std::span(p, sizeof(digest)));
  }

  // Check 2: deterministic ping-pong per peer — payload bytes are a pure
  // function of (seed, peer, message index), so both sides can verify
  // content and FIFO order without further coordination.
  auto payload_for = [&hs](int peer, int index) {
    comm::Bytes p(64 + static_cast<size_t>(index) * 17);
    for (size_t j = 0; j < p.size(); ++j) {
      p[j] = static_cast<std::byte>(
          (hs.seed + static_cast<uint64_t>(peer) * 131 +
           static_cast<uint64_t>(index) * 31 + j) &
          0xFF);
    }
    return p;
  };
  if (rank == 0) {
    for (int i = 0; i < messages; ++i) {
      for (int peer = 1; peer < world; ++peer) {
        ep.send(peer, kTagPing, payload_for(peer, i));
      }
    }
    for (int peer = 1; peer < world; ++peer) {
      for (int i = 0; i < messages; ++i) {
        if (ep.recv(peer, kTagPong) != payload_for(peer, i)) {
          std::fprintf(stderr, "probe: bad echo %d from rank %d\n", i, peer);
          ok = false;
        }
      }
    }
  } else {
    for (int i = 0; i < messages; ++i) {
      const comm::Bytes ping = ep.recv(0, kTagPing);
      if (ping != payload_for(rank, i)) {
        std::fprintf(stderr, "probe: rank %d got bad ping %d\n", rank, i);
        ok = false;
      }
      ep.send(0, kTagPong, ping);
    }
  }

  const comm::TrafficStats sent = net.rank_stats(rank);
  std::printf(
      "probe rank %d: %s — %llu message(s) sent (%llu payload bytes, "
      "%llu wire bytes)\n",
      rank, ok ? "all checks passed" : "FAILED",
      static_cast<unsigned long long>(sent.messages),
      static_cast<unsigned long long>(sent.payload_bytes),
      static_cast<unsigned long long>(net.transport().wire_bytes()));
  return ok ? 0 : 1;
}

/// Multi-process fabric probe: one rank per process over a shm or tcp
/// backend. Verifies the rendezvous handshake (every rank derives the same
/// fault schedule from the exchanged FaultConfig) and the fabric itself
/// (deterministic ping-pong payloads, delivered in order and intact).
/// Exit codes distinguish the failure class for scripts and CI: 0 = all
/// checks passed, 1 = determinism failure, 2 = connectivity failure
/// (unreachable/reset/timed-out/corrupt peer), 3 = handshake rejected.
int run_probe(const std::map<std::string, std::string>& flags) {
  comm::TransportOptions topts;
  topts.kind = comm::parse_transport_kind(get_flag(flags, "transport", "tcp"));
  FCA_CHECK_MSG(topts.kind != comm::TransportKind::kInproc,
                "the probe spans processes; use --transport shm or tcp");
  FCA_CHECK_MSG(flags.count("rank") != 0, "probe needs --rank (0 = root)");
  topts.self_rank = int_flag(flags, "rank", "", INT_MIN);
  const int world = int_flag(flags, "world-size", "2", INT_MIN);
  if (world < 2) {
    // A 1-rank (or smaller) world has no peers: rank 0 would block at
    // rendezvous forever waiting for joiners that cannot exist. Diagnose it
    // as the typed connectivity failure it is instead of hanging.
    const comm::TransportError err(
        comm::TransportErrc::kPeerUnreachable, comm::TransportError::kNoPeer,
        "--world-size " + std::to_string(world) +
            " leaves no peers to probe; a multi-process world needs at "
            "least 2 ranks (one root + one joiner)");
    std::fprintf(stderr, "probe: connectivity failure: %s\n", err.what());
    return 2;
  }
  FCA_CHECK_MSG(topts.self_rank >= 0 && topts.self_rank < world,
                "--rank outside [0, world-size)");
  topts.shm_name = get_flag(flags, "shm-name", "/fca_probe");
  topts.shm_create = topts.self_rank == 0;
  topts.bind_address = get_flag(flags, "bind", "");
  topts.connect_address = get_flag(flags, "connect", "");
  topts.io_timeout_s = double_flag(flags, "io-timeout", "30");
  FCA_CHECK_MSG(topts.io_timeout_s > 0.0 &&
                    std::isfinite(topts.io_timeout_s),
                "--io-timeout must be a positive finite number of seconds, "
                "got " << topts.io_timeout_s);
  topts.retry = retry_policy_from_flags(flags);
  const int messages = int_flag(flags, "probe-messages", "8", 1);
  FCA_CHECK_MSG(messages >= 1, "--probe-messages must be >= 1, got "
                                   << messages);
  const int rank = topts.self_rank;

  // The root publishes the run context; joiners have theirs overwritten by
  // the handshake, exactly as a resumed multi-process run would.
  comm::Handshake hs;
  hs.seed = u64_flag(flags, "seed", "42");
  hs.faults = fault_config_from_flags(flags);

  try {
    return probe_checks(std::move(topts), world, messages, std::move(hs));
  } catch (const comm::TransportError& e) {
    const bool handshake =
        e.code() == comm::TransportErrc::kHandshakeRejected;
    std::fprintf(stderr, "probe rank %d: %s failure: %s\n", rank,
                 handshake ? "handshake" : "connectivity", e.what());
    if (e.peer() != comm::TransportError::kNoPeer) {
      std::fprintf(stderr, "probe rank %d: offending peer: rank %d\n", rank,
                   e.peer());
    }
    return handshake ? 3 : 2;
  }
}

std::unique_ptr<fl::RoundStrategy> make_strategy(
    const std::string& name, const core::Experiment& experiment) {
  if (name == "local") return std::make_unique<fl::LocalOnly>();
  if (name == "fedavg") return std::make_unique<fl::FedAvg>();
  if (name == "fedprox") return std::make_unique<fl::FedProx>(0.1f);
  if (name == "fedproto") return std::make_unique<fl::FedProto>();
  if (name == "ktpfl") {
    return std::make_unique<fl::KTpFL>(experiment.public_data(),
                                       fl::KTpFLConfig{});
  }
  if (name == "ktpfl-weight") {
    fl::KTpFLConfig cfg;
    cfg.share_weights = true;
    return std::make_unique<fl::KTpFL>(experiment.public_data(), cfg);
  }
  if (name == "fedclassavg") {
    return std::make_unique<core::FedClassAvg>(
        experiment.fedclassavg_config());
  }
  if (name == "fedclassavg-weight") {
    core::FedClassAvgConfig cfg = experiment.fedclassavg_config();
    cfg.share_all_weights = true;
    return std::make_unique<core::FedClassAvg>(cfg);
  }
  if (name == "fedclassavg-simclr") {
    core::FedClassAvgConfig cfg = experiment.fedclassavg_config();
    cfg.contrastive_mode = core::ContrastiveMode::kSelfSupervised;
    cfg.temperature = 0.5f;  // the customary NT-Xent temperature
    return std::make_unique<core::FedClassAvg>(cfg);
  }
  if (name == "fedclassavg-proto") {
    core::FedClassAvgProtoConfig cfg;
    cfg.base = experiment.fedclassavg_config();
    return std::make_unique<core::FedClassAvgProto>(cfg);
  }
  throw Error("unknown algorithm: " + name + " (see --help)");
}

}  // namespace

int main(int argc, char** argv) {
  try {
    const auto flags = parse_flags(argc, argv);
    if (flags.count("help") != 0) {
      print_help();
      return 0;
    }
    if (flags.count("probe") != 0) return run_probe(flags);
    auto get = [&](const char* key, const std::string& fallback) {
      return get_flag(flags, key, fallback);
    };

    core::ExperimentConfig config;
    config.dataset = get("dataset", "synth-fmnist");
    config.num_clients = int_flag(flags, "clients", "10", 1);
    config.rounds = int_flag(flags, "rounds", "20", 1);
    config.dirichlet_alpha = double_flag(flags, "alpha", "0.5");
    config.sample_rate = double_flag(flags, "sample-rate", "1.0", 0.0, 1.0);
    config.train_per_class = int_flag(flags, "train-per-class", "25", 1);
    config.seed = u64_flag(flags, "seed", "42");
    config.client_parallelism = int_flag(flags, "client-parallelism", "1", 0);
    config.max_resident_clients =
        int_flag(flags, "max-resident-clients", "0", 0);
    config.page_dir = get("page-dir", "");
    config.lazy_init = flags.count("lazy-init") != 0;
    config.eval_clients = int_flag(flags, "eval-clients", "0", 0);
    config.faults = fault_config_from_flags(flags);
    config.quorum = int_flag(flags, "quorum", "1", 0);
    config.transport.kind =
        comm::parse_transport_kind(get("transport", "inproc"));
    config.transport.shm_name = get("shm-name", "");
    config.transport.retry = retry_policy_from_flags(flags);
    config.transport.io_timeout_s = double_flag(flags, "io-timeout", "30");
    FCA_CHECK_MSG(
        config.transport.io_timeout_s > 0.0 &&
            std::isfinite(config.transport.io_timeout_s),
        "--io-timeout must be a positive finite number of seconds, got "
            << config.transport.io_timeout_s);
    // Multi-process run (DESIGN.md §14): --rank pins this process to one
    // fabric rank; every participating process runs the same command line
    // with its own --rank. World shape is clients + 1 (rank 0 = server,
    // rank k+1 = client k), checked here so a typo fails before rendezvous.
    const bool scoped_run = flags.count("rank") != 0;
    if (scoped_run) {
      config.transport.self_rank = int_flag(flags, "rank", "", INT_MIN);
      const int world =
          flags.count("world-size") != 0
              ? int_flag(flags, "world-size", "", INT_MIN)
              : config.num_clients + 1;
      FCA_CHECK_MSG(world == config.num_clients + 1,
                    "--world-size " << world << " must equal --clients + 1 = "
                                    << config.num_clients + 1
                                    << " (one process per fabric rank)");
      FCA_CHECK_MSG(config.transport.self_rank >= 0 &&
                        config.transport.self_rank < world,
                    "--rank " << config.transport.self_rank
                              << " outside [0, " << world << ")");
      FCA_CHECK_MSG(config.transport.kind != comm::TransportKind::kInproc,
                    "a multi-process run spans processes; use --transport "
                    "shm or tcp");
      if (config.transport.shm_name.empty()) {
        config.transport.shm_name = "/fca_run";
      }
      config.transport.shm_create = config.transport.self_rank == 0;
      config.transport.bind_address = get("bind", "");
      config.transport.connect_address = get("connect", "");
    }
    const std::string partition = get("partition", "dirichlet");
    if (partition == "skewed") {
      config.partition = core::PartitionScheme::kSkewed;
    } else if (partition != "dirichlet") {
      throw Error("unknown partition: " + partition);
    }
    const std::string algorithm = get("algorithm", "fedclassavg");
    // Weight-sharing algorithms average whole models, so every client must
    // run the same architecture; FedProto wants its CNN2 family.
    const bool shares_weights =
        algorithm == "fedavg" || algorithm == "fedprox" ||
        algorithm == "ktpfl-weight" || algorithm == "fedclassavg-weight";
    std::string models = get("models", "");
    if (shares_weights && !models.empty() && models != "homogeneous") {
      throw Error("--algorithm " + algorithm +
                  " averages whole models and needs --models homogeneous, "
                  "got --models " + models);
    }
    if (models.empty()) {
      if (shares_weights) {
        models = "homogeneous";
      } else if (algorithm == "fedproto") {
        models = "cnn2";
      } else {
        models = "heterogeneous";
      }
    }
    if (models == "homogeneous") {
      config.models = core::ModelScheme::kHomogeneousResNet;
    } else if (models == "cnn2") {
      config.models = core::ModelScheme::kFedProtoFamily;
    } else if (models != "heterogeneous") {
      throw Error("unknown model scheme: " + models);
    }
    config.with_scaled_preset();

    const std::string trace_path = get("trace-out", "");
    const std::string metrics_path = get("metrics-out", "");
    const bool profile = flags.count("profile") != 0;
    if (!trace_path.empty() || profile) obs::set_tracing(true);
    if (profile) obs::set_kernel_tracing(true);
    if (!metrics_path.empty()) obs::set_metrics(true);

    const std::string ckpt_dir = get("checkpoint-dir", "");
    const bool resume = flags.count("resume") != 0;
    if (resume && ckpt_dir.empty()) {
      throw Error("--resume requires --checkpoint-dir");
    }
    if (scoped_run && resume) {
      // Every rank derives the resume round from the shared checkpoint
      // directory before rendezvous; the handshake then pins it, so a rank
      // looking at a stale directory is rejected instead of silently
      // training from the wrong round.
      const std::vector<int> rounds =
          ckpt::CheckpointManager::available_rounds(ckpt_dir);
      if (!rounds.empty()) config.resume_next_round = rounds.back() + 1;
    }

    core::Experiment experiment(config);
    auto strategy = make_strategy(algorithm, experiment);
    std::printf("running %s on %s (%d clients, %d rounds, %s, models=%s)\n",
                strategy->name().c_str(), config.dataset.c_str(),
                config.num_clients, config.rounds, partition.c_str(),
                models.c_str());

    core::CompletedRun done;
    if (!ckpt_dir.empty()) {
      ckpt::Options opts;
      opts.dir = ckpt_dir;
      opts.every = int_flag(flags, "checkpoint-every", "1", 1);
      opts.keep_last = int_flag(flags, "checkpoint-keep", "2", 1);
      done = resume ? experiment.execute_or_resume(*strategy, opts)
                    : experiment.execute(*strategy, opts);
      if (done.run->is_root()) {
        std::printf("checkpoints: %d saved (%.1f ms total, newest %.1f KB)\n",
                    done.checkpoint_stats.saves,
                    done.checkpoint_stats.save_seconds * 1e3,
                    done.checkpoint_stats.last_file_bytes / 1024.0);
      }
    } else {
      done = experiment.execute(*strategy);
    }

    if (!done.run->is_root()) {
      // The curve, checkpoints and merged trace all live on rank 0; a
      // joiner's job was its clients' bodies, now synced to the root. Exit
      // quietly so per-rank logs compose.
      std::printf("joiner rank %d finished\n", done.run->self_rank());
      return 0;
    }

    const bool faulty = config.faults.enabled();
    if (faulty) {
      std::printf("\n%8s %12s %12s %14s %10s %8s\n", "round", "mean acc",
                  "std acc", "KB this round", "survivors", "faults");
      for (const auto& m : done.result.curve) {
        std::printf("%8d %12.4f %12.4f %14.1f %6d/%-3d %8llu\n", m.round,
                    m.mean_accuracy, m.std_accuracy, m.round_bytes / 1024.0,
                    m.survivor_count, m.selected_count,
                    static_cast<unsigned long long>(m.fault_events));
      }
    } else {
      std::printf("\n%8s %12s %12s %14s\n", "round", "mean acc", "std acc",
                  "KB this round");
      for (const auto& m : done.result.curve) {
        std::printf("%8d %12.4f %12.4f %14.1f\n", m.round, m.mean_accuracy,
                    m.std_accuracy, m.round_bytes / 1024.0);
      }
    }
    std::printf("\nfinal %.4f ± %.4f | total traffic %.1f KB | "
                "%.1f KB/client-round\n",
                done.result.final_mean_accuracy,
                done.result.final_std_accuracy,
                done.result.total_traffic.payload_bytes / 1024.0,
                done.result.client_upload_bytes_per_round / 1024.0);
    if (faulty) {
      const comm::FaultStats& f = done.result.total_faults;
      std::printf(
          "faults: %llu msgs dropped (%.1f KB), %llu delayed, %llu deadline "
          "misses, %llu crashed client-rounds, %llu rejoins, %llu quorum "
          "aborts\n",
          static_cast<unsigned long long>(f.dropped_messages),
          f.dropped_bytes / 1024.0,
          static_cast<unsigned long long>(f.delayed_messages),
          static_cast<unsigned long long>(f.deadline_misses),
          static_cast<unsigned long long>(f.crashed_client_rounds),
          static_cast<unsigned long long>(f.rejoins),
          static_cast<unsigned long long>(f.aborted_rounds));
    }
    if (done.result.total_faults.real_peer_faults > 0) {
      std::printf("real transport faults: %llu peer(s) condemned (see the "
                  "warn log for per-peer reasons)\n",
                  static_cast<unsigned long long>(
                      done.result.total_faults.real_peer_faults));
    }

    const std::string curve_path = get("save-curve", "");
    if (!curve_path.empty()) {
      CsvWriter csv(curve_path, fl::curve_csv_columns());
      for (const auto& m : done.result.curve) {
        csv.row(fl::curve_csv_row(m));
      }
      std::printf("curve written to %s\n", curve_path.c_str());
    }

    if (!trace_path.empty()) {
      obs::export_trace(trace_path, obs::Tracer::instance().drain());
      std::printf("trace written to %s\n", trace_path.c_str());
    } else if (profile) {
      // --profile without --trace-out: summarize to stdout via the digest.
      const auto events = obs::Tracer::instance().drain();
      std::printf("trace: %zu spans, logical digest %016llx\n", events.size(),
                  static_cast<unsigned long long>(
                      obs::logical_digest(events)));
    }
    if (!metrics_path.empty()) {
      obs::MetricsRegistry::instance().write_jsonl(metrics_path);
      std::printf("metrics written to %s\n", metrics_path.c_str());
    }
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
}
