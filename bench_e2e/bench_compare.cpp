// bench_compare: regression gate over two sets of bench_e2e results.
//
// Usage: bench_compare BENCHMARK.json BASE_DIR CHANGE_DIR
//
// Each directory holds result files named <workload>.<tag>.json, each the
// stdout of one timed invocation (`run.py --workload W --seed N --trace 0`);
// the last non-empty line is the result object. Files pair up across the
// two sides in name order, so name them by seed. For every (workload,
// end-to-end metric) the tool prints each side's median and quartiles
// (Python's statistics.quantiles, exclusive method) and one verdict:
//   unresolved  the run-to-run spread (quartile distance over median, the
//               wider side) exceeds the metric's bound, and not every run of
//               the change is better than every run of the base;
//   regressed   the change's median is worse than the base's by more than
//               the bound (a share of the base median);
//   improved    the change wins at least 9 in 10 pairs (ties count for
//               neither) and the medians differ by more than the base's own
//               quartile distance, or every change run beats every base run;
//   unchanged   otherwise.
// Exit status 1 when any pair regressed, when the change's failure ratio
// (failed / attempted, summed over its runs) is higher than the base's, or
// when any change run reports "correct": false; 0 otherwise.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "json.hpp"

namespace {

namespace json = fca::bench_json;

struct Run {
  bool correct = false;
  double attempted = 0.0;
  double failed = 0.0;
  std::map<std::string, double> metrics;
};

/// Runs per workload, in file-name order.
using Side = std::map<std::string, std::vector<Run>>;

std::string read_file(const std::filesystem::path& p) {
  std::ifstream in(p, std::ios::binary);
  std::ostringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

Run parse_run(const std::filesystem::path& p) {
  std::istringstream in(read_file(p));
  std::string line, last;
  while (std::getline(in, line)) {
    if (line.find_first_not_of(" \t\r") != std::string::npos) last = line;
  }
  const json::Value v = json::parse(last);
  Run r;
  r.correct = v.at("correct").boolean;
  r.attempted = v.at("attempted").number;
  r.failed = v.at("failed").number;
  for (const auto& [name, m] : v.at("metrics").object) {
    r.metrics[name] = m.at("value").number;
  }
  return r;
}

Side load_side(const std::string& dir) {
  std::vector<std::filesystem::path> files;
  for (const auto& e : std::filesystem::directory_iterator(dir)) {
    if (e.is_regular_file() && e.path().extension() == ".json") {
      files.push_back(e.path());
    }
  }
  std::sort(files.begin(), files.end());
  Side side;
  for (const auto& f : files) {
    const std::string name = f.filename().string();
    side[name.substr(0, name.find('.'))].push_back(parse_run(f));
  }
  return side;
}

double median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/// statistics.quantiles(v, n=4) with the default exclusive method.
std::pair<double, double> quartiles(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  const long ld = static_cast<long>(v.size());
  if (ld == 1) return {v[0], v[0]};
  const long m = ld + 1;
  auto q = [&](long i) {
    long j = std::clamp(i * m / 4, 1L, ld - 1);
    const long delta = i * m - j * 4;
    return (v[static_cast<size_t>(j - 1)] * static_cast<double>(4 - delta) +
            v[static_cast<size_t>(j)] * static_cast<double>(delta)) /
           4.0;
  };
  return {q(1), q(3)};
}

struct Metric {
  std::string name;
  bool lower_better = true;
  double bound = 0.0;
};

}  // namespace

int main(int argc, char** argv) {
  if (argc != 4) {
    std::fprintf(stderr,
                 "usage: bench_compare BENCHMARK.json BASE_DIR CHANGE_DIR\n");
    return 2;
  }
  try {
    const json::Value spec = json::parse(read_file(argv[1]));
    std::vector<Metric> metrics;
    for (const json::Value& m : spec.at("end_to_end").array) {
      metrics.push_back({m.at("name").string,
                         m.at("better").string == "lower",
                         m.at("bound").number});
    }
    const Side base = load_side(argv[2]);
    const Side change = load_side(argv[3]);

    bool fail = false;
    std::printf("%-14s %-16s %28s %28s %8s %6s  %s\n", "workload", "metric",
                "base median [q1, q3]", "change median [q1, q3]", "delta",
                "bound", "verdict");
    for (const auto& [workload, base_runs] : base) {
      const auto it = change.find(workload);
      if (it == change.end()) {
        std::printf("%-14s (no change runs)\n", workload.c_str());
        continue;
      }
      const std::vector<Run>& change_runs = it->second;
      double fb = 0, ab = 0, fc = 0, ac = 0;
      for (const Run& r : base_runs) fb += r.failed, ab += r.attempted;
      for (const Run& r : change_runs) {
        fc += r.failed, ac += r.attempted;
        if (!r.correct) {
          std::printf("%-14s a change run reports correct: false\n",
                      workload.c_str());
          fail = true;
        }
      }
      const double fail_b = ab > 0 ? fb / ab : 0.0;
      const double fail_c = ac > 0 ? fc / ac : 0.0;
      if (fail_c > fail_b) {
        std::printf("%-14s fail_ratio rose from %.6g to %.6g\n",
                    workload.c_str(), fail_b, fail_c);
        fail = true;
      }
      for (const Metric& m : metrics) {
        std::vector<double> b, c;
        for (const Run& r : base_runs) b.push_back(r.metrics.at(m.name));
        for (const Run& r : change_runs) c.push_back(r.metrics.at(m.name));
        const double mb = median(b), mc = median(c);
        const auto [b1, b3] = quartiles(b);
        const auto [c1, c3] = quartiles(c);
        const double sign = m.lower_better ? 1.0 : -1.0;
        const double worse_by = sign * (mc - mb) / mb;
        const double spread = std::max((b3 - b1) / mb, (c3 - c1) / mc);
        // "Better" compares in the metric's direction.
        auto better = [&](double x, double y) { return sign * (x - y) < 0; };
        const auto [c_lo, c_hi] = std::minmax_element(c.begin(), c.end());
        const auto [b_lo, b_hi] = std::minmax_element(b.begin(), b.end());
        const bool all_better = m.lower_better ? better(*c_hi, *b_lo)
                                               : better(*c_lo, *b_hi);
        const size_t pairs = std::min(b.size(), c.size());
        size_t wins = 0;
        for (size_t i = 0; i < pairs; ++i) wins += better(c[i], b[i]) ? 1 : 0;
        const char* verdict = "unchanged";
        if (spread > m.bound && !all_better) {
          verdict = "unresolved";
        } else if (worse_by > m.bound) {
          verdict = "regressed";
          fail = true;
        } else if (worse_by < 0 &&
                   (all_better || (wins * 10 >= pairs * 9 &&
                                   std::abs(mc - mb) > b3 - b1))) {
          verdict = "improved";
        }
        char bcell[64], ccell[64];
        std::snprintf(bcell, sizeof(bcell), "%.6g [%.6g, %.6g]", mb, b1, b3);
        std::snprintf(ccell, sizeof(ccell), "%.6g [%.6g, %.6g]", mc, c1, c3);
        std::printf("%-14s %-16s %28s %28s %+7.2f%% %5.1f%%  %s\n",
                    workload.c_str(), m.name.c_str(), bcell, ccell,
                    100.0 * (mc - mb) / mb, 100.0 * m.bound, verdict);
      }
    }
    return fail ? 1 : 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "bench_compare: %s\n", e.what());
    return 2;
  }
}
