#include "comm/fault.hpp"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <system_error>

#include "utils/bytes.hpp"
#include "utils/error.hpp"
#include "utils/rng.hpp"

namespace fca::comm {

namespace {
// Wire-format versions; bump on layout changes so a mismatched peer fails
// loudly instead of silently misreading the schedule.
constexpr uint32_t kFaultConfigVersion = 1;
// v2: appends real_peer_faults (peers condemned by real transport failures).
constexpr uint32_t kFaultStatsVersion = 2;
}  // namespace

std::vector<std::byte> serialize_fault_config(const FaultConfig& config) {
  utils::ByteWriter w;
  w.u32(kFaultConfigVersion);
  w.f64(config.drop_rate);
  w.f64(config.straggler_rate);
  w.f64(config.straggler_delay_s);
  w.f64(config.round_deadline_s);
  w.f64(config.crash_rate);
  w.i32(config.crash_rounds);
  w.u32(static_cast<uint32_t>(config.crash_schedule.size()));
  for (const CrashWindow& win : config.crash_schedule) {
    w.i32(win.rank);
    w.i32(win.first_round);
    w.i32(win.rounds);
  }
  w.u64(config.fault_seed);
  return w.take();
}

FaultConfig parse_fault_config(std::span<const std::byte> blob) {
  utils::ByteReader r(blob);
  const uint32_t version = r.u32();
  FCA_CHECK_MSG(version == kFaultConfigVersion,
                "fault config wire version " << version << ", expected "
                                             << kFaultConfigVersion);
  FaultConfig config;
  config.drop_rate = r.f64();
  config.straggler_rate = r.f64();
  config.straggler_delay_s = r.f64();
  config.round_deadline_s = r.f64();
  config.crash_rate = r.f64();
  config.crash_rounds = r.i32();
  // Three i32s per window: a corrupted count is a parse error, not a
  // multi-gigabyte allocation.
  const uint32_t windows = r.count(3 * sizeof(int32_t));
  config.crash_schedule.resize(windows);
  for (uint32_t i = 0; i < windows; ++i) {
    config.crash_schedule[i].rank = r.i32();
    config.crash_schedule[i].first_round = r.i32();
    config.crash_schedule[i].rounds = r.i32();
  }
  config.fault_seed = r.u64();
  r.expect_done();
  return config;
}

std::vector<std::byte> serialize_fault_stats(const FaultStats& stats) {
  utils::ByteWriter w;
  w.u32(kFaultStatsVersion);
  w.u64(stats.dropped_messages);
  w.u64(stats.dropped_bytes);
  w.u64(stats.delayed_messages);
  w.u64(stats.deadline_misses);
  w.u64(stats.crashed_client_rounds);
  w.u64(stats.rejoins);
  w.u64(stats.aborted_rounds);
  w.u64(stats.real_peer_faults);
  return w.take();
}

FaultStats parse_fault_stats(std::span<const std::byte> blob) {
  utils::ByteReader r(blob);
  const uint32_t version = r.u32();
  FCA_CHECK_MSG(version >= 1 && version <= kFaultStatsVersion,
                "fault stats wire version " << version << ", expected <= "
                                            << kFaultStatsVersion);
  FaultStats stats;
  stats.dropped_messages = r.u64();
  stats.dropped_bytes = r.u64();
  stats.delayed_messages = r.u64();
  stats.deadline_misses = r.u64();
  stats.crashed_client_rounds = r.u64();
  stats.rejoins = r.u64();
  stats.aborted_rounds = r.u64();
  // v1 writers predate real transport faults; the count is necessarily 0.
  if (version >= 2) stats.real_peer_faults = r.u64();
  r.expect_done();
  return stats;
}

std::vector<CrashWindow> parse_crash_schedule(const std::string& spec) {
  std::vector<CrashWindow> windows;
  size_t pos = 0;
  while (pos < spec.size()) {
    size_t end = spec.find(',', pos);
    if (end == std::string::npos) end = spec.size();
    const std::string entry = spec.substr(pos, end - pos);
    pos = end + 1;
    if (entry.empty()) continue;
    const size_t at = entry.find('@');
    FCA_CHECK_MSG(at != std::string::npos && at > 0 && at + 1 < entry.size(),
                  "crash schedule entry '" << entry
                                           << "' is not rank@round[xK]");
    // Each field must be a whole decimal int: "3abc" or "3x2y" is an error,
    // as for every numeric CLI flag.
    const auto field = [&](size_t from, size_t to) {
      int v = 0;
      const char* first = entry.data() + from;
      const char* last = entry.data() + to;
      const auto [ptr, ec] = std::from_chars(first, last, v);
      if (from == to || ec != std::errc() || ptr != last) {
        throw Error("crash schedule entry '" + entry +
                    "' has a field that is not an int (want rank@round[xK])");
      }
      return v;
    };
    CrashWindow w;
    w.rank = field(0, at);
    const size_t x = entry.find('x', at + 1);
    if (x == std::string::npos) {
      w.first_round = field(at + 1, entry.size());
    } else {
      w.first_round = field(at + 1, x);
      w.rounds = field(x + 1, entry.size());
    }
    FCA_CHECK_MSG(w.first_round >= 1 && w.rounds >= 1,
                  "crash schedule entry '"
                      << entry << "' needs round >= 1 and duration >= 1");
    windows.push_back(w);
  }
  return windows;
}

bool FaultConfig::enabled() const {
  return drop_rate > 0.0 || straggler_rate > 0.0 || crash_rate > 0.0 ||
         !crash_schedule.empty() || std::isfinite(round_deadline_s);
}

FaultPlan::FaultPlan(FaultConfig config, int ranks)
    : config_(std::move(config)) {
  FCA_CHECK_MSG(config_.drop_rate >= 0.0 && config_.drop_rate <= 1.0,
                "drop_rate " << config_.drop_rate << " outside [0, 1]");
  FCA_CHECK_MSG(
      config_.straggler_rate >= 0.0 && config_.straggler_rate <= 1.0,
      "straggler_rate " << config_.straggler_rate << " outside [0, 1]");
  FCA_CHECK_MSG(config_.crash_rate >= 0.0 && config_.crash_rate <= 1.0,
                "crash_rate " << config_.crash_rate << " outside [0, 1]");
  FCA_CHECK_MSG(config_.straggler_delay_s >= 0.0,
                "straggler_delay_s must be non-negative");
  FCA_CHECK_MSG(config_.round_deadline_s > 0.0,
                "round_deadline_s must be positive");
  FCA_CHECK_MSG(config_.crash_rounds >= 1, "crash_rounds must be >= 1");
  for (const CrashWindow& w : config_.crash_schedule) {
    FCA_CHECK_MSG(w.rank >= 1 && w.rank < ranks,
                  "crash schedule rank " << w.rank << " outside [1, " << ranks
                                         << ") — rank 0 (server) cannot "
                                            "crash, client k is rank k + 1");
    FCA_CHECK_MSG(w.first_round >= 1 && w.rounds >= 1,
                  "crash window for rank " << w.rank << " is degenerate");
  }
  enabled_ = config_.enabled();
}

void FaultPlan::begin_round(int round) {
  FCA_CHECK_MSG(round >= 1, "fault rounds are 1-based, got " << round);
  round_ = round;
}

double FaultPlan::draw(std::string_view kind, uint64_t a, uint64_t b,
                       uint64_t c) const {
  // A fresh stream per (kind, a, b, c): decisions are order-independent and
  // never consume from — or perturb — any training RNG stream.
  return Rng(config_.fault_seed)
      .fork(kind)
      .fork_indexed("a/", a)
      .fork_indexed("b/", b)
      .fork_indexed("c/", c)
      .uniform();
}

bool FaultPlan::crashed(int round, int rank) const {
  if (!enabled_ || rank == 0 || round < 1) return false;
  for (const CrashWindow& w : config_.crash_schedule) {
    // round - first_round cannot overflow (first_round >= 1), unlike
    // first_round + rounds.
    if (w.rank == rank && round >= w.first_round &&
        round - w.first_round < w.rounds) {
      return true;
    }
  }
  if (config_.crash_rate > 0.0) {
    // Down in `round` if a crash fired in any of the last crash_rounds
    // rounds — a K-round outage expressed statelessly.
    const int first = std::max(1, round - config_.crash_rounds + 1);
    for (int r = first; r <= round; ++r) {
      if (draw("crash", static_cast<uint64_t>(r), static_cast<uint64_t>(rank),
               0) < config_.crash_rate) {
        return true;
      }
    }
  }
  return false;
}

bool FaultPlan::rejoined(int round, int rank) const {
  return round >= 2 && !crashed(round, rank) && crashed(round - 1, rank);
}

bool FaultPlan::straggling(int round, int rank) const {
  if (!enabled_ || rank == 0 || round < 1 || config_.straggler_rate <= 0.0) {
    return false;
  }
  return draw("straggle", static_cast<uint64_t>(round),
              static_cast<uint64_t>(rank), 0) < config_.straggler_rate;
}

bool FaultPlan::drop_message(int src, int dst, int tag, uint64_t seq) const {
  if (config_.drop_rate <= 0.0) return false;
  // seq is src's running send count, so the decision is stable under any
  // client_parallelism (each rank's sends are ordered by its own lane) and
  // across checkpoint resume (the count rides the restored TrafficStats).
  const uint64_t channel = (static_cast<uint64_t>(static_cast<uint32_t>(dst))
                            << 32) |
                           static_cast<uint32_t>(tag);
  return draw("drop", static_cast<uint64_t>(src), channel, seq) <
         config_.drop_rate;
}

}  // namespace fca::comm
