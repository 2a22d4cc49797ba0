// Massive-cohort scale tracker: rounds/sec and peak RSS for paged
// (O(active-cohort)) federated runs at populations {1k, 10k, 100k}, written
// to BENCH_scale.json (DESIGN.md §13).
//
// Every scenario runs in its own re-exec'd child process so the parent can
// read its peak RSS from wait4()'s rusage with nothing but that scenario in
// the address space — the whole point of the measurement is the gap between
// the all-resident baseline and the paged runs, so the numbers must not
// share a heap.
//
// Scenarios (FedAvg on homogeneous MiniResNet, 3 rounds, 16 selected
// clients per round, 16-client eval cohort):
//   1k  resident eager      — an unbudgeted store: eager init builds all
//                             1,000 clients and each stays in memory. The
//                             O(population) baseline, and the reference
//                             curve for the byte-identity check below
//   1k  paged lazy          — 24-client residency budget; its curve CSV
//                             must match the baseline byte for byte
//   10k paged lazy          — same budget
//   100k paged lazy         — same budget; the per-client shard shrinks to
//                             one sample, which is the regime the paging
//                             design targets: population far beyond memory
//
// FCA_SCALE_RSS_CEILING_MB (optional): fail (exit 1) if any paged
// scenario's peak RSS exceeds the ceiling — CI's guard against the store
// silently regressing to O(population) memory.
//
// Usage: bench_scale [output.json]        (default BENCH_scale.json)
//        bench_scale --child N MODE CURVE STATS   (internal per-scenario run)
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "core/trainer.hpp"
#include "fl/fedavg.hpp"
#include "fl/metrics.hpp"
#include "utils/csv.hpp"

namespace {

using Clock = std::chrono::steady_clock;

constexpr int kRounds = 3;
constexpr int kSelectedPerRound = 16;
constexpr int kEvalClients = 16;
constexpr int kMaxResident = 24;

fca::core::ExperimentConfig scale_config(int population, bool paged) {
  fca::core::ExperimentConfig cfg;
  cfg.dataset = "synth-fmnist";
  cfg.num_clients = population;
  cfg.models = fca::core::ModelScheme::kHomogeneousResNet;
  // Keep the shared dataset O(population): the Dirichlet partition hands
  // every client an equal split, so 10 classes x (population / 10) samples
  // is exactly one sample per client at 100k — the smallest legal shard.
  cfg.train_per_class = std::max(12, population / 10);
  cfg.test_per_class = 20;
  cfg.public_per_class = 2;
  cfg.test_per_client = 12;
  cfg.image_size = 8;
  cfg.feature_dim = 16;
  cfg.width = 8;
  cfg.batch_size = 8;
  cfg.lr = 3e-3f;
  cfg.rounds = kRounds;
  cfg.local_epochs = 1;
  cfg.sample_rate = static_cast<double>(kSelectedPerRound) / population;
  cfg.eval_clients = kEvalClients;
  cfg.client_parallelism = 4;
  cfg.seed = 123;
  if (paged) {
    cfg.max_resident_clients = kMaxResident;
    cfg.lazy_init = true;
  }
  return cfg;
}

/// Child body: run one scenario, write its curve CSV and a key-value stats
/// file, exit 0. Peak RSS is the parent's to collect.
int run_child(int population, const std::string& mode,
              const std::string& curve_path, const std::string& stats_path) {
  const bool paged = mode == "paged";
  const fca::core::Experiment exp(scale_config(population, paged));
  fca::fl::FedAvg strategy;

  const Clock::time_point t0 = Clock::now();
  const fca::core::CompletedRun done = exp.execute(strategy);
  const double wall_s =
      std::chrono::duration<double>(Clock::now() - t0).count();

  fca::CsvWriter csv(curve_path, fca::fl::curve_csv_columns());
  for (const fca::fl::RoundMetrics& m : done.result.curve) {
    csv.row(fca::fl::curve_csv_row(m));
  }

  const fca::fl::ClientStoreStats stats = done.run->store().stats();
  std::ofstream out(stats_path);
  out << "wall_s " << wall_s << "\n"
      << "peak_resident " << stats.peak_resident << "\n"
      << "materializations " << stats.materializations << "\n"
      << "page_writes " << stats.page_writes << "\n"
      << "page_loads " << stats.page_loads << "\n"
      << "clean_drops " << stats.clean_drops << "\n";
  return out.good() ? 0 : 1;
}

struct ScenarioResult {
  int population = 0;
  std::string mode;
  double wall_s = 0.0;
  double peak_rss_mb = 0.0;
  long peak_resident = 0;
  long materializations = 0;
  long page_writes = 0;
  long page_loads = 0;
  std::string curve_path;
};

/// Re-execs this binary in child mode and harvests wall time (child's
/// stats file) + peak RSS (wait4 rusage; Linux reports KB).
bool run_scenario(const char* self, const std::string& work_dir,
                  int population, const std::string& mode,
                  ScenarioResult& out) {
  const std::string tag = std::to_string(population) + "_" + mode;
  out.population = population;
  out.mode = mode;
  out.curve_path = work_dir + "/curve_" + tag + ".csv";
  const std::string stats_path = work_dir + "/stats_" + tag + ".txt";

  const pid_t pid = fork();
  if (pid < 0) {
    std::perror("fork");
    return false;
  }
  if (pid == 0) {
    const std::string pop = std::to_string(population);
    execl(self, self, "--child", pop.c_str(), mode.c_str(),
          out.curve_path.c_str(), stats_path.c_str(),
          static_cast<char*>(nullptr));
    std::perror("execl");
    _exit(127);
  }
  int status = 0;
  struct rusage ru;
  std::memset(&ru, 0, sizeof(ru));
  if (wait4(pid, &status, 0, &ru) < 0) {
    std::perror("wait4");
    return false;
  }
  if (!WIFEXITED(status) || WEXITSTATUS(status) != 0) {
    std::fprintf(stderr, "scenario %s failed (status %d)\n", tag.c_str(),
                 status);
    return false;
  }
  out.peak_rss_mb = static_cast<double>(ru.ru_maxrss) / 1024.0;

  std::ifstream in(stats_path);
  std::string key;
  double value = 0.0;
  while (in >> key >> value) {
    if (key == "wall_s") out.wall_s = value;
    if (key == "peak_resident") out.peak_resident = static_cast<long>(value);
    if (key == "materializations") {
      out.materializations = static_cast<long>(value);
    }
    if (key == "page_writes") out.page_writes = static_cast<long>(value);
    if (key == "page_loads") out.page_loads = static_cast<long>(value);
  }
  std::remove(stats_path.c_str());
  return true;
}

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

}  // namespace

int main(int argc, char** argv) {
  if (argc == 6 && std::strcmp(argv[1], "--child") == 0) {
    return run_child(std::atoi(argv[2]), argv[3], argv[4], argv[5]);
  }
  const std::string out_path = argc > 1 ? argv[1] : "BENCH_scale.json";
  const char* self = "/proc/self/exe";
  // A private scratch directory per invocation, so concurrent runs never
  // overwrite each other's curve and stats files.
  const char* tmp = std::getenv("TMPDIR");
  std::string work_dir =
      std::string(tmp != nullptr && *tmp != '\0' ? tmp : "/tmp") +
      "/fca_scale.XXXXXX";
  if (mkdtemp(work_dir.data()) == nullptr) {
    std::perror("mkdtemp");
    return 1;
  }

  struct Scenario {
    int population;
    const char* mode;
  };
  const Scenario scenarios[] = {
      {1000, "resident"},
      {1000, "paged"},
      {10000, "paged"},
      {100000, "paged"},
  };

  std::vector<ScenarioResult> results;
  for (const Scenario& sc : scenarios) {
    ScenarioResult r;
    if (!run_scenario(self, work_dir, sc.population, sc.mode, r)) {
      std::fprintf(stderr, "scenario files kept in %s\n", work_dir.c_str());
      return 1;
    }
    std::printf(
        "%7d clients %-8s  %5.1fs  %6.2f rounds/s  peak RSS %7.1f MB  "
        "(resident<=%ld, built %ld, paged out %ld)\n",
        r.population, r.mode.c_str(), r.wall_s,
        r.wall_s > 0 ? kRounds / r.wall_s : 0.0, r.peak_rss_mb,
        r.peak_resident, r.materializations, r.page_writes);
    results.push_back(std::move(r));
  }

  // Acceptance check: the paged 1k curve is byte-identical to the
  // unbudgeted 1k reference.
  const std::string reference = read_file(results[0].curve_path);
  const std::string paged_1k = read_file(results[1].curve_path);
  const bool curve_match = !reference.empty() && reference == paged_1k;
  if (!curve_match) {
    std::fprintf(stderr,
                 "FAIL: paged 1k curve CSV differs from the unbudgeted "
                 "reference\n");
  }

  // Optional CI guard: paged runs must stay under the RSS ceiling.
  bool rss_ok = true;
  if (const char* env = std::getenv("FCA_SCALE_RSS_CEILING_MB")) {
    const double ceiling = std::atof(env);
    for (const ScenarioResult& r : results) {
      if (r.mode == "paged" && r.peak_rss_mb > ceiling) {
        std::fprintf(stderr,
                     "FAIL: %d-client paged peak RSS %.1f MB exceeds "
                     "FCA_SCALE_RSS_CEILING_MB=%.0f\n",
                     r.population, r.peak_rss_mb, ceiling);
        rss_ok = false;
      }
    }
  }

  std::FILE* f = std::fopen(out_path.c_str(), "w");
  if (!f) {
    std::fprintf(stderr, "cannot open %s for writing\n", out_path.c_str());
    return 1;
  }
  std::fprintf(f, "{\n  \"bench\": \"scale\",\n");
  std::fprintf(f,
               "  \"note\": \"FedAvg, %d rounds, %d selected/round, "
               "%d-client eval cohort; paged = --max-resident-clients %d + "
               "lazy init; peak RSS per re-exec'd child via wait4\",\n",
               kRounds, kSelectedPerRound, kEvalClients, kMaxResident);
  std::fprintf(f, "  \"curve_match_1k\": %s,\n",
               curve_match ? "true" : "false");
  std::fprintf(f, "  \"results\": [\n");
  for (size_t i = 0; i < results.size(); ++i) {
    const ScenarioResult& r = results[i];
    std::fprintf(
        f,
        "    {\"population\": %d, \"mode\": \"%s\", \"rounds\": %d, "
        "\"wall_s\": %.3f, \"rounds_per_s\": %.3f, \"peak_rss_mb\": %.1f, "
        "\"peak_resident\": %ld, \"materializations\": %ld, "
        "\"page_writes\": %ld, \"page_loads\": %ld}%s\n",
        r.population, r.mode.c_str(), kRounds, r.wall_s,
        r.wall_s > 0 ? kRounds / r.wall_s : 0.0, r.peak_rss_mb,
        r.peak_resident, r.materializations, r.page_writes, r.page_loads,
        i + 1 < results.size() ? "," : "");
  }
  std::fprintf(f, "  ]\n}\n");
  std::fclose(f);
  std::printf("wrote %s\n", out_path.c_str());

  for (const ScenarioResult& r : results) std::remove(r.curve_path.c_str());
  rmdir(work_dir.c_str());
  return (curve_match && rss_ok) ? 0 : 1;
}
