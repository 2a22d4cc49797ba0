// Multi-process execution tier (DESIGN.md §14): fork+exec one real OS
// process per fabric rank and assert the distributed run is byte-identical
// to the single-process all-local oracle.
//
// The binary is its own rank launcher: when FCA_MP_ROLE=rank is set in the
// environment, main() skips gtest entirely and runs one rank of a scoped
// world (the role, rank, transport, algorithm and output paths all arrive
// via FCA_MP_* variables), exiting 0 on success. The parent test forks and
// execs /proc/self/exe per rank, waits for the world, then compares what
// the root rank wrote — curve CSV, logical trace stream, checkpoint bytes —
// against an inproc run of the identical configuration executed in-process.
//
// The SIGKILL case kills one joiner at an exact round boundary (the rank
// raises SIGKILL against itself in an after_round hook) and compares the
// degraded run against the chaos oracle: an all-local run whose transport
// kills the same rank's link from the same round. Detection points differ
// (reconcile timeout / socket reset vs an in-process throw) but the curve —
// survivors, per-round traffic, real-fault counts, accuracies — must match
// byte for byte.
#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <sys/wait.h>
#include <unistd.h>

#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "ckpt/format.hpp"
#include "core/fedclassavg.hpp"
#include "core/fedclassavg_proto.hpp"
#include "core/trainer.hpp"
#include "fl/fedavg.hpp"
#include "fl/fedprox.hpp"
#include "fl/fedproto.hpp"
#include "fl/ktpfl.hpp"
#include "fl/local_only.hpp"
#include "fl/metrics.hpp"
#include "fl_fixtures.hpp"
#include "obs/trace.hpp"
#include "utils/bytes.hpp"
#include "utils/csv.hpp"
#include "utils/error.hpp"

extern char** environ;

namespace fca {
namespace {

namespace fs = std::filesystem;

// -- configuration shared by every rank and the oracle -----------------------

/// The experiment every process of a world builds: the tiny fixture with the
/// model scheme each algorithm requires (weight-sharing strategies need
/// homogeneous architectures; FedProto uses its CNN family).
core::ExperimentConfig mp_config(const std::string& algo, int clients,
                                 int rounds) {
  core::ExperimentConfig cfg = test::tiny_experiment_config(clients);
  cfg.rounds = rounds;
  if (algo == "fedavg" || algo == "fedprox" || algo == "ktpfl-weight") {
    cfg.models = core::ModelScheme::kHomogeneousResNet;
  } else if (algo == "fedproto") {
    cfg.models = core::ModelScheme::kFedProtoFamily;
  }
  return cfg;
}

std::unique_ptr<fl::RoundStrategy> make_mp_strategy(
    const std::string& algo, const core::Experiment& experiment) {
  if (algo == "local") return std::make_unique<fl::LocalOnly>();
  if (algo == "fedavg") return std::make_unique<fl::FedAvg>();
  if (algo == "fedprox") return std::make_unique<fl::FedProx>(0.1f);
  if (algo == "fedproto") return std::make_unique<fl::FedProto>();
  if (algo == "ktpfl") {
    return std::make_unique<fl::KTpFL>(experiment.public_data(),
                                       fl::KTpFLConfig{});
  }
  if (algo == "ktpfl-weight") {
    fl::KTpFLConfig cfg;
    cfg.share_weights = true;
    return std::make_unique<fl::KTpFL>(experiment.public_data(), cfg);
  }
  if (algo == "fedclassavg") {
    return std::make_unique<core::FedClassAvg>(
        experiment.fedclassavg_config());
  }
  if (algo == "fedclassavg-proto") {
    core::FedClassAvgProtoConfig cfg;
    cfg.base = experiment.fedclassavg_config();
    return std::make_unique<core::FedClassAvgProto>(cfg);
  }
  throw Error("test: unknown algorithm " + algo);
}

/// Raises SIGKILL against the calling process at an exact round boundary —
/// the moment the cursor says round `kill_round` is next. Installed only on
/// the rank under execution; everything the rank sent for earlier rounds is
/// already on the wire, so the death is indistinguishable from a crash
/// between rounds.
class KillAtRoundHook : public fl::RoundHook {
 public:
  explicit KillAtRoundHook(int kill_round) : kill_round_(kill_round) {}
  void after_round(fl::FederatedRun&, fl::RoundStrategy&,
                   const fl::ResumeState& cursor) override {
    if (cursor.next_round == kill_round_) {
      std::fflush(nullptr);
      raise(SIGKILL);
    }
  }

 private:
  int kill_round_;
};

struct RunOutput {
  fl::RunResult result;
  bool root = true;
};

/// One full run — the exact same code path for a scoped rank (config carries
/// scoped transport options) and the in-process oracle (all-local options).
/// With a checkpoint directory the run goes through execute_or_resume with
/// the scoped resume pin; `kill_round` > 0 arms the SIGKILL hook.
RunOutput run_once(core::ExperimentConfig config, const std::string& algo,
                   int kill_round, const std::string& ckpt_dir) {
  if (!ckpt_dir.empty()) {
    // Scoped resume pin (what a launcher does): every rank derives the
    // first round to execute from the shared directory before rendezvous,
    // so a stale view is rejected at handshake instead of diverging.
    const std::vector<int> rounds =
        ckpt::CheckpointManager::available_rounds(ckpt_dir);
    if (!rounds.empty()) config.resume_next_round = rounds.back() + 1;
  }
  core::Experiment experiment(config);
  std::unique_ptr<fl::RoundStrategy> strategy =
      make_mp_strategy(algo, experiment);
  if (!ckpt_dir.empty()) {
    ckpt::Options opts;
    opts.dir = ckpt_dir;
    opts.every = 1;
    opts.keep_last = 2;
    core::CompletedRun done = experiment.execute_or_resume(*strategy, opts);
    return {std::move(done.result), done.run->is_root()};
  }
  auto run = std::make_unique<fl::FederatedRun>(experiment.build_store(),
                                                experiment.fl_config());
  KillAtRoundHook kill_hook(kill_round);
  fl::RoundHookChain hooks;
  if (kill_round > 0) hooks.add(&kill_hook);
  fl::RunResult result =
      run->execute(*strategy, kill_round > 0 ? &hooks : nullptr);
  return {std::move(result), run->is_root()};
}

void write_curve_csv(const std::string& path, const fl::RunResult& result) {
  CsvWriter csv(path, fl::curve_csv_columns());
  for (const fl::RoundMetrics& m : result.curve) {
    csv.row(fl::curve_csv_row(m));
  }
}

std::string drain_logical_trace() {
  const std::vector<obs::TraceEvent> events = obs::Tracer::instance().drain();
  std::string out;
  for (const std::string& line : obs::logical_lines(events)) {
    out += line;
    out += '\n';
  }
  return out;
}

// -- child (rank) entry ------------------------------------------------------

std::string env_str(const char* name, const std::string& fallback = "") {
  const char* v = std::getenv(name);
  return v != nullptr ? std::string(v) : fallback;
}

int env_int(const char* name, int fallback) {
  const char* v = std::getenv(name);
  return v != nullptr ? std::atoi(v) : fallback;
}

/// Runs one rank of a scoped world, configured entirely from FCA_MP_*
/// variables; never returns to gtest.
int rank_child_main() {
  try {
    const int rank = env_int("FCA_MP_RANK", -1);
    const std::string transport = env_str("FCA_MP_TRANSPORT");
    const std::string algo = env_str("FCA_MP_ALGO");
    const int clients = env_int("FCA_MP_CLIENTS", 0);
    const int rounds = env_int("FCA_MP_ROUNDS", 0);
    FCA_CHECK_MSG(rank >= 0 && clients > 0 && rounds > 0 && !algo.empty(),
                  "rank child missing FCA_MP_* configuration");
    // A CI-level FCA_TRANSPORT would override the kind below at run
    // construction; make the environment agree with this world's choice.
    setenv("FCA_TRANSPORT", transport.c_str(), 1);

    const std::string trace_out = env_str("FCA_MP_TRACE_OUT");
    if (rank == 0 && !trace_out.empty()) {
      // The root decides whether the run is traced; joiners adopt the flag
      // from the rendezvous handshake.
      obs::set_tracing(true);
    }

    core::ExperimentConfig config = mp_config(algo, clients, rounds);
    config.transport.self_rank = rank;
    if (transport == "shm") {
      config.transport.kind = comm::TransportKind::kShm;
      config.transport.shm_name = env_str("FCA_MP_SHM_NAME");
      config.transport.shm_create = rank == 0;
    } else {
      config.transport.kind = comm::TransportKind::kTcp;
      if (rank == 0) {
        config.transport.bind_address = env_str("FCA_MP_BIND");
      } else {
        config.transport.connect_address = env_str("FCA_MP_CONNECT");
      }
    }
    const std::string timeout = env_str("FCA_MP_IO_TIMEOUT");
    if (!timeout.empty()) config.transport.io_timeout_s = std::stod(timeout);
    const std::string drop_rate = env_str("FCA_MP_DROP_RATE");
    if (!drop_rate.empty()) config.faults.drop_rate = std::stod(drop_rate);
    const std::string sample_rate = env_str("FCA_MP_SAMPLE_RATE");
    if (!sample_rate.empty()) config.sample_rate = std::stod(sample_rate);
    config.quorum = env_int("FCA_MP_QUORUM", config.quorum);

    const int kill_rank = env_int("FCA_MP_KILL_RANK", -1);
    const int kill_round =
        kill_rank == rank ? env_int("FCA_MP_KILL_ROUND", -1) : -1;
    const RunOutput out =
        run_once(config, algo, kill_round, env_str("FCA_MP_CKPT_DIR"));
    if (!out.root) return 0;

    const std::string curve_out = env_str("FCA_MP_CURVE_OUT");
    if (!curve_out.empty()) write_curve_csv(curve_out, out.result);
    if (!trace_out.empty()) {
      std::ofstream f(trace_out, std::ios::binary | std::ios::trunc);
      f << drain_logical_trace();
    }
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "rank child (rank %s) failed: %s\n",
                 env_str("FCA_MP_RANK", "?").c_str(), e.what());
    return 1;
  }
}

// -- parent-side process orchestration ---------------------------------------

int reserve_loopback_port() {
  const int fd = socket(AF_INET, SOCK_STREAM, 0);
  EXPECT_GE(fd, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = 0;
  EXPECT_EQ(bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)), 0);
  socklen_t len = sizeof(addr);
  EXPECT_EQ(getsockname(fd, reinterpret_cast<sockaddr*>(&addr), &len), 0);
  const int port = ntohs(addr.sin_port);
  close(fd);
  return port;
}

uint64_t next_unique_id() {
  static uint64_t counter = 0;
  return ++counter;
}

std::string fresh_dir(const std::string& stem) {
  // FCA_MP_WORK_DIR relocates the work dirs (CI points it at a workspace
  // path so failed runs' curves/traces/checkpoints upload as artifacts).
  const char* base = std::getenv("FCA_MP_WORK_DIR");
  const fs::path dir =
      (base != nullptr ? fs::path(base) : fs::temp_directory_path()) /
      (stem + "_" + std::to_string(::getpid()) + "_" +
       std::to_string(next_unique_id()));
  fs::create_directories(dir);
  return dir.string();
}

/// Deletes a test's work dir on success; a failed test keeps it so the
/// mismatching curve/trace/checkpoint files can be diffed (and uploaded).
void cleanup_dir(const std::string& dir) {
  if (!::testing::Test::HasFailure()) fs::remove_all(dir);
}

std::string read_file(const std::string& path) {
  std::ifstream f(path, std::ios::binary);
  std::ostringstream os;
  os << f.rdbuf();
  return os.str();
}

/// fork+exec /proc/self/exe with this process's environment plus `extra` —
/// the exec flips the binary into rank_child_main() via FCA_MP_ROLE.
pid_t spawn_rank(const std::vector<std::string>& extra) {
  std::vector<std::string> storage;
  for (char** e = environ; *e != nullptr; ++e) storage.emplace_back(*e);
  storage.emplace_back("FCA_MP_ROLE=rank");
  storage.insert(storage.end(), extra.begin(), extra.end());
  std::vector<char*> envp;
  envp.reserve(storage.size() + 1);
  for (std::string& s : storage) envp.push_back(s.data());
  envp.push_back(nullptr);
  char* argv[] = {const_cast<char*>("test_multiprocess_run"), nullptr};
  const pid_t pid = fork();
  if (pid == 0) {
    execve("/proc/self/exe", argv, envp.data());
    _exit(127);  // exec failed; only reachable in the child
  }
  EXPECT_GE(pid, 0) << "fork failed";
  return pid;
}

struct WorldOpts {
  std::string algo;
  std::string transport;  // "shm" | "tcp"
  int clients = 3;
  int rounds = 2;
  int kill_rank = -1;   // joiner rank to SIGKILL, -1 = none
  int kill_round = -1;  // boundary it dies at (cursor.next_round)
  std::string ckpt_dir;
  std::string curve_out;
  std::string trace_out;
  double io_timeout_s = 0.0;  // 0 = backend default
  double drop_rate = 0.0;     // fault-plan message drop rate
  double sample_rate = 1.0;   // fraction of clients selected per round
  int quorum = 1;
};

/// Launches clients+1 rank processes, waits for all of them, and asserts
/// every rank exited clean — except a SIGKILLed rank, which must have died
/// of exactly that signal.
void run_world(const WorldOpts& o) {
  const int world = o.clients + 1;
  std::string shm_name;
  std::string address;
  if (o.transport == "shm") {
    shm_name = "/fca_mp_" + std::to_string(::getpid()) + "_" +
               std::to_string(next_unique_id());
  } else {
    address = "127.0.0.1:" + std::to_string(reserve_loopback_port());
  }
  std::vector<pid_t> pids;
  for (int r = 0; r < world; ++r) {
    std::vector<std::string> env = {
        "FCA_MP_RANK=" + std::to_string(r),
        "FCA_MP_TRANSPORT=" + o.transport,
        "FCA_MP_ALGO=" + o.algo,
        "FCA_MP_CLIENTS=" + std::to_string(o.clients),
        "FCA_MP_ROUNDS=" + std::to_string(o.rounds),
    };
    if (o.transport == "shm") {
      env.push_back("FCA_MP_SHM_NAME=" + shm_name);
    } else if (r == 0) {
      env.push_back("FCA_MP_BIND=" + address);
    } else {
      env.push_back("FCA_MP_CONNECT=" + address);
    }
    if (r == 0 && !o.curve_out.empty()) {
      env.push_back("FCA_MP_CURVE_OUT=" + o.curve_out);
    }
    if (!o.trace_out.empty()) {
      // Present on every rank: the root uses it to enable tracing and write
      // the merged stream; joiners only learn tracing via the handshake.
      if (r == 0) env.push_back("FCA_MP_TRACE_OUT=" + o.trace_out);
    }
    if (!o.ckpt_dir.empty()) env.push_back("FCA_MP_CKPT_DIR=" + o.ckpt_dir);
    if (o.kill_rank >= 0) {
      env.push_back("FCA_MP_KILL_RANK=" + std::to_string(o.kill_rank));
      env.push_back("FCA_MP_KILL_ROUND=" + std::to_string(o.kill_round));
    }
    if (o.io_timeout_s > 0.0) {
      env.push_back("FCA_MP_IO_TIMEOUT=" + std::to_string(o.io_timeout_s));
    }
    if (o.drop_rate > 0.0) {
      env.push_back("FCA_MP_DROP_RATE=" + std::to_string(o.drop_rate));
    }
    if (o.sample_rate < 1.0) {
      env.push_back("FCA_MP_SAMPLE_RATE=" + std::to_string(o.sample_rate));
    }
    env.push_back("FCA_MP_QUORUM=" + std::to_string(o.quorum));
    pids.push_back(spawn_rank(env));
    // Head start for the root's listener / shm region; joiners also retry.
    if (r == 0) usleep(50 * 1000);
  }
  for (int r = 0; r < world; ++r) {
    int status = 0;
    ASSERT_EQ(waitpid(pids[static_cast<size_t>(r)], &status, 0),
              pids[static_cast<size_t>(r)]);
    if (r == o.kill_rank) {
      EXPECT_TRUE(WIFSIGNALED(status) && WTERMSIG(status) == SIGKILL)
          << "rank " << r << " was meant to die of SIGKILL, status "
          << status;
      continue;
    }
    ASSERT_TRUE(WIFEXITED(status))
        << o.algo << "/" << o.transport << " rank " << r
        << " died of signal " << (WIFSIGNALED(status) ? WTERMSIG(status) : 0);
    ASSERT_EQ(WEXITSTATUS(status), 0)
        << o.algo << "/" << o.transport << " rank " << r;
  }
}

/// The core matrix assertion: a scoped world over `transport` produces the
/// byte-identical curve CSV of the in-process oracle.
void expect_world_matches_oracle(const std::string& algo,
                                 const std::string& transport) {
  SCOPED_TRACE(algo + " over " + transport);
  const std::string dir = fresh_dir("fca_mp_" + algo + "_" + transport);
  WorldOpts o;
  o.algo = algo;
  o.transport = transport;
  o.curve_out = dir + "/curve_mp.csv";
  run_world(o);
  if (::testing::Test::HasFatalFailure()) return;

  const RunOutput oracle =
      run_once(mp_config(algo, o.clients, o.rounds), algo, -1, "");
  const std::string oracle_csv = dir + "/curve_oracle.csv";
  write_curve_csv(oracle_csv, oracle.result);

  const std::string got = read_file(o.curve_out);
  ASSERT_FALSE(got.empty()) << "root rank wrote no curve";
  EXPECT_EQ(got, read_file(oracle_csv));
  cleanup_dir(dir);
}

// -- tests -------------------------------------------------------------------

TEST(MultiProcessRun, ShmMatchesInprocOracleForEveryStrategy) {
  for (const char* algo :
       {"local", "fedavg", "fedprox", "fedproto", "ktpfl", "ktpfl-weight",
        "fedclassavg", "fedclassavg-proto"}) {
    expect_world_matches_oracle(algo, "shm");
    if (::testing::Test::HasFatalFailure()) return;
  }
}

TEST(MultiProcessRun, TcpMatchesInprocOracleForEveryStrategy) {
  for (const char* algo :
       {"local", "fedavg", "fedprox", "fedproto", "ktpfl", "ktpfl-weight",
        "fedclassavg", "fedclassavg-proto"}) {
    expect_world_matches_oracle(algo, "tcp");
    if (::testing::Test::HasFatalFailure()) return;
  }
}

TEST(MultiProcessRun, MergedTraceStreamMatchesInprocOracle) {
  const std::string dir = fresh_dir("fca_mp_trace");
  WorldOpts o;
  o.algo = "fedclassavg";
  o.transport = "shm";
  o.curve_out = dir + "/curve_mp.csv";
  o.trace_out = dir + "/trace_mp.txt";
  run_world(o);
  if (::testing::Test::HasFatalFailure()) return;

  obs::Tracer::instance().reset();
  obs::set_tracing(true);
  const RunOutput oracle =
      run_once(mp_config(o.algo, o.clients, o.rounds), o.algo, -1, "");
  const std::string oracle_trace = drain_logical_trace();
  obs::set_tracing(false);

  const std::string got = read_file(o.trace_out);
  ASSERT_FALSE(got.empty()) << "root rank wrote no trace";
  EXPECT_EQ(got, oracle_trace)
      << "joiner-shipped trace events must merge into the oracle's exact "
         "logical stream";
  const std::string oracle_csv = dir + "/curve_oracle.csv";
  write_curve_csv(oracle_csv, oracle.result);
  EXPECT_EQ(read_file(o.curve_out), read_file(oracle_csv));
  cleanup_dir(dir);
}

TEST(MultiProcessRun, RootWrittenCheckpointMatchesInprocOracle) {
  const std::string dir = fresh_dir("fca_mp_ckpt");
  WorldOpts o;
  o.algo = "fedavg";
  o.transport = "shm";
  o.ckpt_dir = dir + "/ckpt_mp";
  o.curve_out = dir + "/curve_mp.csv";
  run_world(o);
  if (::testing::Test::HasFatalFailure()) return;

  const std::string oracle_ckpt = dir + "/ckpt_oracle";
  const RunOutput oracle = run_once(mp_config(o.algo, o.clients, o.rounds),
                                    o.algo, -1, oracle_ckpt);
  const std::string oracle_csv = dir + "/curve_oracle.csv";
  write_curve_csv(oracle_csv, oracle.result);
  EXPECT_EQ(read_file(o.curve_out), read_file(oracle_csv));

  // The root's mirror store — filled exclusively by per-round state syncs
  // from the joiners — must serialize to the oracle's exact image.
  const std::string mp_file =
      ckpt::CheckpointManager::checkpoint_path(o.ckpt_dir, o.rounds);
  const std::string oracle_file =
      ckpt::CheckpointManager::checkpoint_path(oracle_ckpt, o.rounds);
  const std::string mp_bytes = read_file(mp_file);
  ASSERT_FALSE(mp_bytes.empty()) << "no root-written checkpoint at "
                                 << mp_file;
  EXPECT_EQ(mp_bytes, read_file(oracle_file))
      << "final checkpoint images diverge";
  cleanup_dir(dir);
}

TEST(MultiProcessRun, CleanClientsStayOutOfTheRootWrittenCheckpoint) {
  // LocalOnly under sampling leaves some client never trained: clean on
  // its own rank, so its joiner ships no state and the root's mirror must
  // keep it clean too, or the checkpoints would record different client
  // sets.
  const std::string dir = fresh_dir("fca_mp_clean");
  WorldOpts o;
  o.algo = "local";
  o.transport = "shm";
  o.clients = 4;
  o.rounds = 2;
  o.sample_rate = 0.5;
  o.ckpt_dir = dir + "/ckpt_mp";
  o.curve_out = dir + "/curve_mp.csv";
  run_world(o);
  if (::testing::Test::HasFatalFailure()) return;

  core::ExperimentConfig cfg = mp_config(o.algo, o.clients, o.rounds);
  cfg.sample_rate = o.sample_rate;
  const std::string oracle_ckpt = dir + "/ckpt_oracle";
  const RunOutput oracle = run_once(cfg, o.algo, -1, oracle_ckpt);
  const std::string oracle_csv = dir + "/curve_oracle.csv";
  write_curve_csv(oracle_csv, oracle.result);
  EXPECT_EQ(read_file(o.curve_out), read_file(oracle_csv));

  const std::string mp_file =
      ckpt::CheckpointManager::checkpoint_path(o.ckpt_dir, o.rounds);
  const std::string oracle_file =
      ckpt::CheckpointManager::checkpoint_path(oracle_ckpt, o.rounds);
  const std::string mp_bytes = read_file(mp_file);
  ASSERT_FALSE(mp_bytes.empty()) << "no root-written checkpoint at "
                                 << mp_file;
  EXPECT_EQ(mp_bytes, read_file(oracle_file))
      << "final checkpoint images diverge";
  // The oracle must have left a client clean, or the clean path never ran.
  ckpt::SectionReader reader(oracle_file);
  utils::ByteReader index(reader.section("clients"));
  EXPECT_LT(index.u32(), static_cast<uint32_t>(o.clients));
  cleanup_dir(dir);
}

TEST(MultiProcessRun, ResumeContinuesAcrossProcessWorlds) {
  const std::string dir = fresh_dir("fca_mp_resume");
  const std::string ckpt_mp = dir + "/ckpt_mp";

  // Phase A: a 2-round world checkpoints and exits.
  WorldOpts a;
  a.algo = "fedavg";
  a.transport = "shm";
  a.rounds = 2;
  a.ckpt_dir = ckpt_mp;
  run_world(a);
  if (::testing::Test::HasFatalFailure()) return;
  ASSERT_FALSE(ckpt::CheckpointManager::available_rounds(ckpt_mp).empty());

  // Phase B: a fresh world resumes mid-training to 3 rounds; every rank
  // re-derives the resume round from the shared directory, and the
  // handshake pins it.
  WorldOpts b = a;
  b.rounds = 3;
  b.curve_out = dir + "/curve_mp.csv";
  run_world(b);
  if (::testing::Test::HasFatalFailure()) return;

  // Oracle: one uninterrupted 3-round checkpointed run.
  const std::string oracle_ckpt = dir + "/ckpt_oracle";
  const RunOutput oracle =
      run_once(mp_config(b.algo, b.clients, 3), b.algo, -1, oracle_ckpt);
  const std::string oracle_csv = dir + "/curve_oracle.csv";
  write_curve_csv(oracle_csv, oracle.result);
  EXPECT_EQ(read_file(b.curve_out), read_file(oracle_csv))
      << "resumed multi-process curve must equal the uninterrupted oracle";
  EXPECT_EQ(
      read_file(ckpt::CheckpointManager::checkpoint_path(ckpt_mp, 3)),
      read_file(ckpt::CheckpointManager::checkpoint_path(oracle_ckpt, 3)))
      << "post-resume checkpoint images diverge";
  cleanup_dir(dir);
}

void expect_sigkill_matches_chaos_oracle(const std::string& transport) {
  SCOPED_TRACE("SIGKILL over " + transport);
  const std::string dir = fresh_dir("fca_mp_kill_" + transport);
  WorldOpts o;
  o.algo = "fedavg";
  o.transport = transport;
  o.rounds = 3;
  o.kill_rank = 2;   // client 1's process
  o.kill_round = 2;  // dies at the round-2 boundary
  o.io_timeout_s = 2.0;  // bound the root's discovery of the dead peer
  o.curve_out = dir + "/curve_mp.csv";
  run_world(o);
  if (::testing::Test::HasFatalFailure()) return;

  // Chaos oracle: the same run, all-local, with the transport killing the
  // same rank's link from the same round (DESIGN.md §12). The degradation
  // machinery must land both worlds on the same curve.
  core::ExperimentConfig cfg = mp_config(o.algo, o.clients, o.rounds);
  cfg.transport.chaos.kill_peer = o.kill_rank;
  cfg.transport.chaos.kill_from_round = o.kill_round;
  cfg.transport.chaos.kill_after_bytes = 0;
  const RunOutput oracle = run_once(cfg, o.algo, -1, "");
  const std::string oracle_csv = dir + "/curve_oracle.csv";
  write_curve_csv(oracle_csv, oracle.result);

  const std::string got = read_file(o.curve_out);
  ASSERT_FALSE(got.empty()) << "root rank wrote no curve";
  EXPECT_EQ(got, read_file(oracle_csv))
      << "a SIGKILLed rank must degrade exactly like the chaos-killed link";
  // The oracle itself must have seen the degradation, or the comparison
  // proves nothing.
  ASSERT_FALSE(oracle.result.curve.empty());
  EXPECT_GE(oracle.result.total_faults.real_peer_faults, 1u);
  cleanup_dir(dir);
}

void expect_quorum_aborts_match_oracle(const std::string& algo,
                                       const std::string& transport) {
  SCOPED_TRACE("quorum aborts of " + algo + " over " + transport);
  const std::string dir = fresh_dir("fca_mp_quorum_" + algo + "_" + transport);
  WorldOpts o;
  o.algo = algo;
  o.transport = transport;
  o.rounds = 3;
  o.drop_rate = 0.3;
  o.quorum = o.clients;  // any lost upload aborts the round
  o.curve_out = dir + "/curve_mp.csv";
  run_world(o);
  if (::testing::Test::HasFatalFailure()) return;

  // Every joiner decides each quorum itself, from the mirrored survivors:
  // the root's curve must still be the oracle's, aborted rounds included.
  // (KT-pFL's reduce runs client sweeps, so a joiner that decided
  // otherwise than the root would fall out of step with it.)
  core::ExperimentConfig cfg = mp_config(o.algo, o.clients, o.rounds);
  cfg.faults.drop_rate = o.drop_rate;
  cfg.quorum = o.quorum;
  const RunOutput oracle = run_once(cfg, o.algo, -1, "");
  const std::string oracle_csv = dir + "/curve_oracle.csv";
  write_curve_csv(oracle_csv, oracle.result);

  const std::string got = read_file(o.curve_out);
  ASSERT_FALSE(got.empty()) << "root rank wrote no curve";
  EXPECT_EQ(got, read_file(oracle_csv));
  // The oracle must have aborted a round, or the comparison proves nothing.
  EXPECT_GE(oracle.result.total_faults.aborted_rounds, 1u);
  cleanup_dir(dir);
}

TEST(MultiProcessRun, QuorumAbortsMatchInprocOracleOverShmAndTcp) {
  for (const char* algo : {"fedclassavg", "ktpfl"}) {
    for (const char* transport : {"shm", "tcp"}) {
      expect_quorum_aborts_match_oracle(algo, transport);
      if (::testing::Test::HasFatalFailure()) return;
    }
  }
}

TEST(MultiProcessRun, SigkilledJoinerMatchesChaosOracleOverShm) {
  expect_sigkill_matches_chaos_oracle("shm");
}

TEST(MultiProcessRun, SigkilledJoinerMatchesChaosOracleOverTcp) {
  expect_sigkill_matches_chaos_oracle("tcp");
}

}  // namespace
}  // namespace fca

int main(int argc, char** argv) {
  if (std::getenv("FCA_MP_ROLE") != nullptr) {
    return fca::rank_child_main();
  }
  // Zero wall-clock curve fields in this process and every spawned rank so
  // curve CSVs and checkpoint images compare byte for byte.
  setenv("FCA_DETERMINISTIC_WALL", "1", 1);
  ::testing::InitGoogleTest(&argc, argv);
  return RUN_ALL_TESTS();
}
