#include "ckpt/checkpoint.hpp"

#include <algorithm>
#include <charconv>
#include <cstdio>
#include <filesystem>
#include <limits>

#include "ckpt/format.hpp"
#include "fl/client_state.hpp"
#include "models/serialize.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "utils/bytes.hpp"
#include "utils/error.hpp"
#include "utils/logging.hpp"
#include "utils/timer.hpp"

namespace fca::ckpt {
namespace {

constexpr char kFilePrefix[] = "ckpt_round_";
constexpr char kFileSuffix[] = ".fckpt";

std::string client_section(int k) { return "client/" + std::to_string(k); }

// The per-client payload lives in fl/client_state.hpp (shared with the
// client store's page files). A checkpoint carries sections only for the
// store's checkpoint_clients() set plus a "clients" index listing them;
// clients not listed were clean (pure factory + bootstrap output) and are
// re-derived on resume instead of being stored.
std::vector<std::byte> encode_client_index(const std::vector<int>& ids) {
  utils::ByteWriter w;
  w.u32(static_cast<uint32_t>(ids.size()));
  for (int k : ids) w.u32(static_cast<uint32_t>(k));
  return w.take();
}

std::vector<int> decode_client_index(std::span<const std::byte> bytes) {
  utils::ByteReader r(bytes);
  std::vector<int> ids(r.count(sizeof(uint32_t)));
  for (int& k : ids) k = r.i32();
  r.expect_done();
  return ids;
}

std::vector<std::byte> encode_metrics(
    const std::vector<fl::RoundMetrics>& curve) {
  utils::ByteWriter w;
  w.u32(static_cast<uint32_t>(curve.size()));
  for (const fl::RoundMetrics& m : curve) {
    w.i64(m.round);
    w.i64(m.cumulative_local_epochs);
    w.f64(m.mean_accuracy);
    w.f64(m.std_accuracy);
    w.f64(m.mean_train_loss);
    w.f64(m.wall_seconds);
    w.u64(m.round_bytes);
    w.i64(m.selected_count);
    w.i64(m.survivor_count);
    w.u64(m.fault_events);
    w.u64(m.real_fault_events);
    w.u32(static_cast<uint32_t>(m.client_accuracies.size()));
    for (double a : m.client_accuracies) w.f64(a);
  }
  return w.take();
}

std::vector<fl::RoundMetrics> decode_metrics(std::span<const std::byte> bytes) {
  utils::ByteReader r(bytes);
  // A row is 11 eight-byte fields and its accuracy count.
  const uint32_t count = r.count(11 * sizeof(uint64_t) + sizeof(uint32_t));
  std::vector<fl::RoundMetrics> curve;
  curve.reserve(count);
  for (uint32_t i = 0; i < count; ++i) {
    fl::RoundMetrics m;
    m.round = static_cast<int>(r.i64());
    m.cumulative_local_epochs = static_cast<int>(r.i64());
    m.mean_accuracy = r.f64();
    m.std_accuracy = r.f64();
    m.mean_train_loss = r.f64();
    m.wall_seconds = r.f64();
    m.round_bytes = r.u64();
    m.selected_count = static_cast<int>(r.i64());
    m.survivor_count = static_cast<int>(r.i64());
    m.fault_events = r.u64();
    m.real_fault_events = r.u64();
    m.client_accuracies.resize(r.count(sizeof(double)));
    for (double& a : m.client_accuracies) a = r.f64();
    curve.push_back(std::move(m));
  }
  r.expect_done();
  return curve;
}

}  // namespace

CheckpointManager::CheckpointManager(Options options)
    : options_(std::move(options)) {
  FCA_CHECK_MSG(!options_.dir.empty(), "checkpoint directory must be set");
  FCA_CHECK_MSG(options_.every >= 1, "checkpoint interval must be >= 1");
  FCA_CHECK_MSG(options_.keep_last >= 1, "must retain at least 1 checkpoint");
}

std::string CheckpointManager::checkpoint_path(const std::string& dir,
                                               int round) {
  char name[64];
  std::snprintf(name, sizeof(name), "%s%06d%s", kFilePrefix, round,
                kFileSuffix);
  return (std::filesystem::path(dir) / name).string();
}

std::vector<int> CheckpointManager::available_rounds(const std::string& dir) {
  std::vector<int> rounds;
  std::error_code ec;
  for (const auto& entry : std::filesystem::directory_iterator(dir, ec)) {
    const std::string name = entry.path().filename().string();
    if (name.rfind(kFilePrefix, 0) != 0) continue;
    if (name.size() <= sizeof(kFilePrefix) - 1 + sizeof(kFileSuffix) - 1 ||
        name.substr(name.size() - (sizeof(kFileSuffix) - 1)) != kFileSuffix) {
      continue;
    }
    const std::string digits =
        name.substr(sizeof(kFilePrefix) - 1,
                    name.size() - (sizeof(kFilePrefix) - 1) -
                        (sizeof(kFileSuffix) - 1));
    if (digits.empty() ||
        digits.find_first_not_of("0123456789") != std::string::npos) {
      continue;
    }
    // A digit run too long for an int is not a file this manager wrote.
    int round = 0;
    const auto [end, ec_parse] =
        std::from_chars(digits.data(), digits.data() + digits.size(), round);
    if (ec_parse != std::errc{} || end != digits.data() + digits.size()) {
      continue;
    }
    rounds.push_back(round);
  }
  std::sort(rounds.begin(), rounds.end());
  return rounds;
}

void CheckpointManager::after_round(fl::FederatedRun& run,
                                    fl::RoundStrategy& strategy,
                                    const fl::ResumeState& cursor) {
  const int round = cursor.next_round - 1;
  if (round % options_.every != 0 && round != run.config().rounds) return;
  save(run, strategy, cursor);
}

void CheckpointManager::save(fl::FederatedRun& run,
                             fl::RoundStrategy& strategy,
                             const fl::ResumeState& cursor) {
  Timer timer;
  const int round = cursor.next_round - 1;
  obs::TraceSpan save_span("ckpt", "save", round);
  obs::ScopedTimer save_timer(
      obs::metrics_enabled()
          ? &obs::MetricsRegistry::instance().histogram("ckpt.save_seconds")
          : nullptr);
  std::filesystem::create_directories(options_.dir);

  SectionWriter w;
  utils::ByteWriter meta;
  meta.u32(static_cast<uint32_t>(run.num_clients()));
  meta.u32(static_cast<uint32_t>(round));
  meta.str(strategy.name());
  meta.u64(cursor.sampler_state);
  meta.u64(cursor.bytes_marker);
  meta.i64(cursor.participating_rounds_total);
  meta.u64(cursor.fault_marker);
  meta.u64(cursor.real_fault_marker);
  w.add("meta", meta.take());
  w.add("strategy", strategy.save_state());
  // Dirty clients only: serialized_state lifts paged-out clients straight
  // from their page files without materializing them, so a checkpoint's
  // cost is O(dirty state), not O(population).
  const std::vector<int> recorded = run.store().checkpoint_clients();
  w.add("clients", encode_client_index(recorded));
  for (int k : recorded) {
    w.add(client_section(k), run.store().serialized_state(k));
  }
  if (run.store().bootstrap_armed()) {
    // Lazy-init runs: clients re-derived on resume need the same bootstrap
    // payload the original run armed.
    const comm::Bytes& boot = run.store().bootstrap_payload();
    w.add("bootstrap", std::vector<std::byte>(boot.begin(), boot.end()));
  }
  utils::ByteWriter net;
  const int ranks = run.network().size();
  net.u32(static_cast<uint32_t>(ranks));
  for (int r = 0; r < ranks; ++r) {
    const comm::TrafficStats s = run.network().rank_stats(r);
    net.u64(s.messages);
    net.u64(s.payload_bytes);
    net.f64(s.sim_seconds);
  }
  // Fault counters: injection decisions themselves are stateless (pure
  // functions of the fault seed and the restored send counts above), so the
  // counters are the only fault state a resume must carry.
  const comm::FaultStats f = run.network().fault_stats();
  net.u64(f.dropped_messages);
  net.u64(f.dropped_bytes);
  net.u64(f.delayed_messages);
  net.u64(f.deadline_misses);
  net.u64(f.crashed_client_rounds);
  net.u64(f.rejoins);
  net.u64(f.aborted_rounds);
  net.u64(f.real_peer_faults);
  w.add("network", net.take());
  w.add("metrics", encode_metrics(cursor.curve));

  const std::string path = checkpoint_path(options_.dir, round);
  w.write(path);

  ++stats_.saves;
  stats_.save_seconds += timer.seconds();
  std::error_code ec;
  const uint64_t size = std::filesystem::file_size(path, ec);
  if (!ec) {
    stats_.bytes_written += size;
    stats_.last_file_bytes = size;
    if (obs::metrics_enabled()) {
      obs::MetricsRegistry::instance().counter("ckpt.bytes_written").add(size);
    }
  }
  FCA_LOG_DEBUG << "checkpointed round " << round << " to " << path << " ("
                << size << " bytes)";

  // Retention: drop everything but the newest keep_last files.
  std::vector<int> rounds = available_rounds(options_.dir);
  const int excess =
      static_cast<int>(rounds.size()) - options_.keep_last;
  for (int i = 0; i < excess; ++i) {
    std::filesystem::remove(checkpoint_path(options_.dir, rounds[static_cast<size_t>(i)]), ec);
  }
}

fl::ResumeState CheckpointManager::resume(fl::FederatedRun& run,
                                          fl::RoundStrategy& strategy) {
  std::vector<int> rounds = available_rounds(options_.dir);
  FCA_CHECK_MSG(!rounds.empty(),
                "no checkpoints to resume from in " << options_.dir);
  for (auto it = rounds.rbegin(); it != rounds.rend(); ++it) {
    const std::string path = checkpoint_path(options_.dir, *it);
    Timer timer;
    try {
      SectionReader reader(path);

      utils::ByteReader meta(reader.section("meta"));
      const uint32_t num_clients = meta.u32();
      const uint32_t round = meta.u32();
      const std::string strategy_name(meta.str());
      FCA_CHECK_MSG(static_cast<int>(num_clients) == run.num_clients(),
                    "checkpoint has " << num_clients << " clients, run has "
                                      << run.num_clients());
      FCA_CHECK_MSG(strategy_name == strategy.name(),
                    "checkpoint was taken with strategy '"
                        << strategy_name << "', resuming with '"
                        << strategy.name() << "'");
      FCA_CHECK_MSG(round < static_cast<uint32_t>(
                                std::numeric_limits<int>::max()),
                    "checkpoint round " << round << " is out of range");
      fl::ResumeState cursor;
      cursor.next_round = static_cast<int>(round) + 1;
      cursor.sampler_state = meta.u64();
      cursor.bytes_marker = meta.u64();
      cursor.participating_rounds_total = static_cast<int>(meta.i64());
      cursor.fault_marker = meta.u64();
      cursor.real_fault_marker = meta.u64();
      meta.expect_done();

      strategy.load_state(reader.section("strategy"));
      fl::ClientStore& store = run.store();
      const std::vector<int> recorded =
          decode_client_index(reader.section("clients"));
      // Roll the store back to factory state, re-arm the lazy-init
      // bootstrap (clean clients must re-derive exactly as in the original
      // run), then overlay the recorded clients.
      store.reset();
      if (reader.has("bootstrap")) {
        const std::span<const std::byte> boot = reader.section("bootstrap");
        store.arm_bootstrap(&run, &strategy,
                            comm::Bytes(boot.begin(), boot.end()));
      } else if (run.config().lazy_init) {
        FCA_CHECK_MSG(false,
                      "resuming a lazy-init run, but " << path
                          << " carries no bootstrap section (checkpoint "
                             "was written by an eager-init run)");
      }
      for (int k : recorded) {
        store.restore_serialized_state(k, reader.section(client_section(k)));
      }

      utils::ByteReader net(reader.section("network"));
      const uint32_t ranks = net.u32();
      FCA_CHECK_MSG(static_cast<int>(ranks) == run.network().size(),
                    "checkpoint network has " << ranks << " ranks, run has "
                                              << run.network().size());
      std::vector<comm::TrafficStats> sent(ranks);
      for (uint32_t r = 0; r < ranks; ++r) {
        sent[r].messages = net.u64();
        sent[r].payload_bytes = net.u64();
        sent[r].sim_seconds = net.f64();
      }
      comm::FaultStats faults;
      faults.dropped_messages = net.u64();
      faults.dropped_bytes = net.u64();
      faults.delayed_messages = net.u64();
      faults.deadline_misses = net.u64();
      faults.crashed_client_rounds = net.u64();
      faults.rejoins = net.u64();
      faults.aborted_rounds = net.u64();
      faults.real_peer_faults = net.u64();
      net.expect_done();
      // All-local hygiene: a recovery replay must restart from an empty
      // fabric. A scoped rank must NOT purge its rings — peers resume at
      // unsynchronized times, and a faster rank's first-round traffic may
      // already be queued here; discarding it would stall this rank's first
      // recv until the io timeout condemns a healthy peer.
      if (!run.network().scoped()) run.network().clear_pending();
      run.network().restore_stats(sent);
      run.network().restore_fault_stats(faults);

      cursor.curve = decode_metrics(reader.section("metrics"));

      ++stats_.loads;
      stats_.load_seconds += timer.seconds();
      FCA_LOG_INFO << "resumed from " << path << " (round " << round << ")";
      return cursor;
    } catch (const Error& e) {
      FCA_LOG_WARN << "checkpoint " << path << " rejected: " << e.what()
                   << (std::next(it) != rounds.rend()
                           ? "; falling back to previous checkpoint"
                           : "");
    }
  }
  throw Error("no loadable checkpoint in " + options_.dir +
              " (all candidates failed validation)");
}

std::optional<fl::ResumeState> CheckpointManager::recover(
    fl::FederatedRun& run, fl::RoundStrategy& strategy) {
  try {
    return resume(run, strategy);
  } catch (const Error& e) {
    FCA_LOG_WARN << "crash recovery unavailable: " << e.what();
    return std::nullopt;
  }
}

}  // namespace fca::ckpt
