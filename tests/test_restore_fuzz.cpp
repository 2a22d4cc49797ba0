// Seeded mutation fuzz of every decoder that reads bytes from outside the
// process: the model payload decoders (restore_values, view_tensors /
// deserialize_tensors, deserialize_state), the client-state encoding, the
// checkpoint container (SectionReader, CheckpointManager::resume) and the
// client store's page files, the rendezvous Handshake, the fault
// config/stats blobs and the scoped gather mirror. Seeds are bytes the code
// itself writes; each mutant (bit flips, truncation, length inflation,
// trailing bytes, splices, swapped shapes) must either parse or throw the
// decoder's typed error, and the decoder may allocate only O(input) on the
// way. restore_values is held to more: a mutant restores exactly what
// deserialize_tensors would have parsed, or throws with every parameter
// untouched.
#include <gtest/gtest.h>

#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <functional>
#include <iterator>
#include <limits>
#include <new>
#include <optional>
#include <string>

#include "ckpt/checkpoint.hpp"
#include "comm/fault.hpp"
#include "comm/transport/handshake.hpp"
#include "fl/client_state.hpp"
#include "fl/client_store.hpp"
#include "fl/fedavg.hpp"
#include "fl/rank_runner.hpp"
#include "fl_fixtures.hpp"
#include "models/serialize.hpp"
#include "obs/trace.hpp"
#include "utils/bytes.hpp"
#include "utils/crc32.hpp"
#include "utils/error.hpp"
#include "utils/logging.hpp"
#include "utils/rng.hpp"

// -- allocation accounting ----------------------------------------------------
// This binary replaces the global operator new/delete with malloc/free
// wrappers that, while a thread is armed, sum the bytes it requests.
namespace {
thread_local bool t_armed = false;
thread_local size_t t_requested = 0;

void* counted_alloc(size_t n) {
  if (t_armed) t_requested += n;
  return std::malloc(n == 0 ? 1 : n);
}

void* counted_alloc_or_throw(size_t n) {
  void* p = counted_alloc(n);
  if (p == nullptr) throw std::bad_alloc();
  return p;
}
}  // namespace

void* operator new(std::size_t n) { return counted_alloc_or_throw(n); }
void* operator new[](std::size_t n) { return counted_alloc_or_throw(n); }
void* operator new(std::size_t n, const std::nothrow_t&) noexcept {
  return counted_alloc(n);
}
void* operator new[](std::size_t n, const std::nothrow_t&) noexcept {
  return counted_alloc(n);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete[](void* p, const std::nothrow_t&) noexcept {
  std::free(p);
}

namespace fca::models {
namespace {

/// Bytes the decoder may request per input byte: one TensorView (40 bytes)
/// per 8 input bytes the tensor count is checked against, plus shapes that
/// each consume 8 input bytes per dim. Error messages fit in the slack.
constexpr size_t kAllocPerInputByte = 8;
constexpr size_t kAllocSlack = 64 * 1024;

/// Where the header fields of a seed lie, and which of them hold a shape.
struct Layout {
  struct Field {
    size_t at;
    size_t width;  // 4 (u32) or 8 (u64/i64)
  };
  struct Record {
    size_t dims_at;
    uint32_t ndim;
  };
  std::vector<Field> fields;
  std::vector<Record> records;
  /// Where each region's fields start in `fields`. A mutation picks a
  /// region first, so a container's small sections are hit as often as
  /// its large ones. Empty: one region.
  std::vector<size_t> regions;

  void begin_region() { regions.push_back(fields.size()); }
};

template <typename T>
T load(const comm::Bytes& b, size_t at) {
  T v;
  std::memcpy(&v, b.data() + at, sizeof(v));
  return v;
}

template <typename T>
void store(comm::Bytes& b, size_t at, T v) {
  std::memcpy(b.data() + at, &v, sizeof(v));
}

/// The fields of a serialize_tensors (or named state) buffer at `base`:
/// the count, then per tensor name_len, ndim and dims. Returns its end.
size_t add_tensor_fields(Layout& l, const comm::Bytes& b, size_t base) {
  size_t at = base;
  const auto count = load<uint32_t>(b, at);
  l.fields.push_back({at, 4});
  at += 4;
  for (uint32_t t = 0; t < count; ++t) {
    l.fields.push_back({at, 4});
    at += 4 + load<uint32_t>(b, at);
    const auto ndim = load<uint32_t>(b, at);
    l.fields.push_back({at, 4});
    at += 4;
    l.records.push_back({at, ndim});
    int64_t numel = 1;
    for (uint32_t d = 0; d < ndim; ++d) {
      l.fields.push_back({at, 8});
      numel *= load<int64_t>(b, at);
      at += 8;
    }
    at += static_cast<size_t>(ndim == 0 ? 0 : numel) * sizeof(float);
  }
  return at;
}

Layout layout_of(const comm::Bytes& b) {
  Layout l;
  EXPECT_EQ(add_tensor_fields(l, b, 0), b.size());
  return l;
}

/// Every 4-aligned word of [base, end): the control blobs and the small
/// checkpoint sections are sequences of 4- and 8-byte fields.
void add_word_fields(Layout& l, size_t base, size_t end) {
  for (size_t at = base; at + 4 <= end; at += 4) l.fields.push_back({at, 4});
}

Layout word_layout(const comm::Bytes& b) {
  Layout l;
  add_word_fields(l, 0, b.size());
  return l;
}

/// encode_gather_mirror's fields: the count, then each survivor's client
/// index and payload length.
Layout gather_mirror_layout(const comm::Bytes& b) {
  Layout l;
  l.fields.push_back({0, 4});
  size_t at = 4;
  for (uint32_t i = load<uint32_t>(b, 0); i > 0; --i) {
    l.fields.push_back({at, 4});
    l.fields.push_back({at + 4, 4});
    at += 8 + load<uint32_t>(b, at + 4);
  }
  EXPECT_EQ(at, b.size());
  return l;
}

/// encode_trace_sync's fields: the count, then each event's round, rank,
/// seq, category and name lengths, and value.
Layout trace_sync_layout(const comm::Bytes& b) {
  Layout l;
  l.fields.push_back({0, 4});
  size_t at = 4;
  for (uint32_t i = load<uint32_t>(b, 0); i > 0; --i) {
    l.fields.push_back({at, 4});
    l.fields.push_back({at + 4, 4});
    l.fields.push_back({at + 8, 8});
    at += 16;
    for (int s = 0; s < 2; ++s) {
      l.fields.push_back({at, 4});
      at += 4 + load<uint32_t>(b, at);
    }
    l.fields.push_back({at, 8});
    at += 8;
  }
  EXPECT_EQ(at, b.size());
  return l;
}

/// encode_client_state's fields at `base`: the model blob, the optimizer
/// scalars, the slot blob and the RNG word. Returns its end.
size_t add_client_state_fields(Layout& l, const comm::Bytes& b, size_t base) {
  l.fields.push_back({base, 8});
  size_t at = add_tensor_fields(l, b, base + 8);
  EXPECT_EQ(at, base + 8 + load<uint64_t>(b, base));
  l.fields.push_back({at, 4});
  const auto scalars = load<uint32_t>(b, at);
  at += 4;
  for (uint32_t i = 0; i < scalars; ++i, at += 8) l.fields.push_back({at, 8});
  l.fields.push_back({at, 8});
  at = add_tensor_fields(l, b, at + 8);
  l.fields.push_back({at, 8});
  return at + 8;
}

Layout client_state_layout(const comm::Bytes& b) {
  Layout l;
  EXPECT_EQ(add_client_state_fields(l, b, 0), b.size());
  return l;
}

/// The counts in the checkpoint's "metrics" section at `base`: the row
/// count and each row's accuracy count (after 11 eight-byte fields).
void add_metrics_fields(Layout& l, const comm::Bytes& b, size_t base) {
  l.fields.push_back({base, 4});
  size_t at = base + 4;
  for (uint32_t r = load<uint32_t>(b, base); r > 0; --r) {
    at += 11 * 8;
    l.fields.push_back({at, 4});
    at += 4 + 8 * static_cast<size_t>(load<uint32_t>(b, at));
  }
}

/// A checkpoint or page file: the container header and every section's
/// prefix (one region), then with `deep` each payload's own fields (a
/// region per section).
Layout container_layout(const comm::Bytes& b, bool deep) {
  Layout l;
  l.begin_region();
  l.fields.push_back({8, 4});   // format version
  l.fields.push_back({12, 4});  // section count
  size_t at = 16;
  struct Section {
    std::string name;
    size_t at;
    size_t len;
  };
  std::vector<Section> sections;
  const auto count = load<uint32_t>(b, 12);
  for (uint32_t i = 0; i < count; ++i) {
    l.fields.push_back({at, 4});
    const auto name_len = load<uint32_t>(b, at);
    std::string name(reinterpret_cast<const char*>(b.data() + at + 4),
                     name_len);
    at += 4 + name_len;
    l.fields.push_back({at, 8});
    const auto len = static_cast<size_t>(load<uint64_t>(b, at));
    at += 12;  // length + CRC
    sections.push_back({std::move(name), at, len});
    at += len;
  }
  EXPECT_EQ(at, b.size());
  if (!deep) return l;
  for (const Section& sec : sections) {
    l.begin_region();
    if (sec.name == "state" || sec.name.starts_with("client/")) {
      EXPECT_EQ(add_client_state_fields(l, b, sec.at), sec.at + sec.len);
    } else if (sec.name == "strategy" || sec.name == "bootstrap") {
      EXPECT_EQ(add_tensor_fields(l, b, sec.at), sec.at + sec.len);
    } else if (sec.name == "metrics") {
      add_metrics_fields(l, b, sec.at);
    } else if (sec.name == "clients") {
      l.fields.push_back({sec.at, 4});  // the count; the ids are values
    } else {
      add_word_fields(l, sec.at, sec.at + sec.len);
    }
  }
  return l;
}

/// Re-stamps the CRC of every section whose prefix and payload still lie
/// inside the (mutated) file, so the mutant reaches the decoders behind the
/// CRC check instead of stopping at it.
void restamp_crcs(comm::Bytes& b) {
  if (b.size() < 16) return;
  const auto count = load<uint32_t>(b, 12);
  size_t at = 16;
  for (uint32_t i = 0; i < count; ++i) {
    if (b.size() - at < 4) return;
    const uint64_t name_len = load<uint32_t>(b, at);
    if (b.size() - at - 4 < name_len + 12) return;
    at += 4 + static_cast<size_t>(name_len);
    const auto len = load<uint64_t>(b, at);
    const size_t crc_at = at + 8;
    at += 12;
    if (len > b.size() - at) return;
    store<uint32_t>(b, crc_at,
                    crc32(std::span<const std::byte>(b).subspan(
                        at, static_cast<size_t>(len))));
    at += static_cast<size_t>(len);
  }
}

enum class Mutation {
  kBitFlip,
  kTruncate,
  kInflate,
  kTrailing,
  kSwapShape,
  kSplice
};

constexpr Mutation kMutations[] = {Mutation::kBitFlip, Mutation::kTruncate,
                                   Mutation::kInflate, Mutation::kTrailing,
                                   Mutation::kSwapShape, Mutation::kSplice};

const char* name_of(Mutation m) {
  switch (m) {
    case Mutation::kBitFlip: return "bit flip";
    case Mutation::kTruncate: return "truncation";
    case Mutation::kInflate: return "length inflation";
    case Mutation::kTrailing: return "trailing bytes";
    case Mutation::kSwapShape: return "swapped shape";
    case Mutation::kSplice: return "splice";
  }
  return "?";
}

/// One seeded mutant of `good`.
comm::Bytes mutate(const comm::Bytes& good, const Layout& layout,
                   Mutation kind, Rng& rng) {
  comm::Bytes b = good;
  const auto pick = [&rng](size_t n) {
    return static_cast<size_t>(rng.uniform_int(n));
  };
  const auto pick_field = [&]() -> const Layout::Field& {
    if (layout.regions.empty()) return layout.fields[pick(layout.fields.size())];
    const size_t r = pick(layout.regions.size());
    const size_t begin = layout.regions[r];
    const size_t end = r + 1 < layout.regions.size() ? layout.regions[r + 1]
                                                     : layout.fields.size();
    return layout.fields[begin + pick(end - begin)];
  };
  switch (kind) {
    case Mutation::kBitFlip: {
      // Half the flips land in a header field; the rest anywhere (mostly
      // float data, which must restore as the flipped values).
      const size_t flips = 1 + pick(4);
      for (size_t f = 0; f < flips; ++f) {
        size_t at = pick(b.size());
        if (rng.uniform_int(2) == 0) {
          const Layout::Field& field = pick_field();
          at = field.at + pick(field.width);
        }
        b[at] ^= static_cast<std::byte>(1u << pick(8));
      }
      break;
    }
    case Mutation::kTruncate:
      b.resize(pick(b.size()));
      break;
    case Mutation::kInflate: {
      const Layout::Field& field = pick_field();
      if (field.width == 4) {
        const auto old = load<uint32_t>(b, field.at);
        const uint32_t values[] = {old + 1, old * 2 + 1, 0x7FFFFFFFu,
                                   0xFFFFFFFFu};
        store<uint32_t>(b, field.at, values[pick(4)]);
      } else {
        const auto old = load<int64_t>(b, field.at);
        // -32 read as a u64 length is 2^64 - 32: added to any offset past
        // 32 it wraps back inside the input.
        const int64_t values[] = {old + 1, old * 2 + 1, int64_t{1} << 31,
                                  int64_t{1} << 40,
                                  std::numeric_limits<int64_t>::max(), -32};
        store<int64_t>(b, field.at, values[pick(6)]);
      }
      break;
    }
    case Mutation::kTrailing: {
      const size_t extra = 1 + pick(16);
      for (size_t i = 0; i < extra; ++i) {
        b.push_back(static_cast<std::byte>(rng.uniform_int(256)));
      }
      break;
    }
    case Mutation::kSwapShape: {
      // Swap two unequal dims of one tensor: the byte length is unchanged,
      // so only the shape check can catch it.
      const size_t start = pick(layout.records.size());
      for (size_t r = 0; r < layout.records.size(); ++r) {
        const Layout::Record& rec =
            layout.records[(start + r) % layout.records.size()];
        for (uint32_t i = 0; i < rec.ndim; ++i) {
          for (uint32_t j = i + 1; j < rec.ndim; ++j) {
            const size_t ai = rec.dims_at + 8 * i;
            const size_t aj = rec.dims_at + 8 * j;
            const auto di = load<int64_t>(b, ai);
            const auto dj = load<int64_t>(b, aj);
            if (di == dj) continue;
            store<int64_t>(b, ai, dj);
            store<int64_t>(b, aj, di);
            return b;
          }
        }
      }
      ADD_FAILURE() << "no tensor has two unequal dims to swap";
      break;
    }
    case Mutation::kSplice: {
      // A copy of one stretch inserted elsewhere: every field after the
      // insertion point shifts.
      const size_t from = pick(b.size());
      const size_t n = 1 + pick(std::min<size_t>(64, b.size() - from));
      const comm::Bytes chunk(b.begin() + static_cast<std::ptrdiff_t>(from),
                              b.begin() + static_cast<std::ptrdiff_t>(from + n));
      b.insert(b.begin() + static_cast<std::ptrdiff_t>(pick(b.size() + 1)),
               chunk.begin(), chunk.end());
      break;
    }
  }
  return b;
}

/// What restoring `bytes` into `params` must do, from the two-step decode:
/// the tensors to write, or nullopt when the payload must be rejected.
std::optional<std::vector<Tensor>> expected_restore(
    const comm::Bytes& bytes, const std::vector<nn::Param*>& params) {
  std::vector<Tensor> parsed;
  try {
    parsed = deserialize_tensors(bytes);
  } catch (const Error&) {
    return std::nullopt;
  }
  if (parsed.size() != params.size()) return std::nullopt;
  for (size_t i = 0; i < params.size(); ++i) {
    if (!parsed[i].same_shape(params[i]->value)) return std::nullopt;
  }
  return parsed;
}

bool values_equal(const std::vector<nn::Param*>& params,
                  const std::vector<Tensor>& want) {
  for (size_t i = 0; i < params.size(); ++i) {
    const Tensor& v = params[i]->value;
    if (!v.same_shape(want[i]) ||
        std::memcmp(v.data(), want[i].data(),
                    static_cast<size_t>(v.numel()) * sizeof(float)) != 0) {
      return false;
    }
  }
  return true;
}

class RestoreFuzz : public ::testing::Test {
 protected:
  RestoreFuzz() {
    core::ExperimentConfig cfg = test::tiny_experiment_config();
    cfg.models = core::ModelScheme::kHomogeneousResNet;
    exp_ = std::make_unique<core::Experiment>(cfg);
    run_ = test::resident_run(*exp_);
    fl::FedAvg strat;
    strat.initialize(*run_);
    down_ = strat.downlink(*run_);
  }

  /// restore_values(bytes, params) with this thread's allocations summed.
  /// Returns whether it threw fca::Error; any other exception fails.
  bool restore_counted(const comm::Bytes& bytes,
                       const std::vector<nn::Param*>& params,
                       size_t& requested) {
    bool threw = false;
    t_requested = 0;
    t_armed = true;
    try {
      restore_values(bytes, params);
    } catch (const Error&) {
      threw = true;
    }
    t_armed = false;
    requested = t_requested;
    return threw;
  }

  std::unique_ptr<core::Experiment> exp_;
  std::unique_ptr<fl::FederatedRun> run_;
  comm::Bytes down_;
};

TEST_F(RestoreFuzz, GoodDownlinkRestoresLikeTheTwoStepDecode) {
  const std::vector<nn::Param*> params = run_->client(1).model().parameters();
  for (nn::Param* p : params) p->value.fill(0.25f);
  size_t requested = 0;
  ASSERT_FALSE(restore_counted(down_, params, requested));
  const auto want = expected_restore(down_, params);
  ASSERT_TRUE(want.has_value());
  EXPECT_TRUE(values_equal(params, *want));
  // The parse allocates its views, so a zero count means the replaced
  // operator new is not the one in use and the bound below checks nothing.
  EXPECT_GT(requested, 0u);
  EXPECT_LE(requested, kAllocPerInputByte * down_.size() + kAllocSlack);
}

TEST_F(RestoreFuzz, MutantsRestoreExactlyOrThrowAndTouchNothing) {
  const Layout layout = layout_of(down_);
  ASSERT_FALSE(layout.records.empty());
  const std::vector<nn::Param*> params = run_->client(0).model().parameters();
  constexpr int kPerMutation = 300;
  Rng rng(20240611);
  for (const Mutation kind : kMutations) {
    int rejected = 0;
    for (int it = 0; it < kPerMutation; ++it) {
      const comm::Bytes bytes = mutate(down_, layout, kind, rng);
      const std::vector<Tensor> before = snapshot_values(params);
      const auto want = expected_restore(bytes, params);
      size_t requested = 0;
      const bool threw = restore_counted(bytes, params, requested);
      ASSERT_EQ(threw, !want.has_value())
          << name_of(kind) << " #" << it << " (" << bytes.size() << " bytes)";
      ASSERT_TRUE(values_equal(params, threw ? before : *want))
          << name_of(kind) << " #" << it << ": parameters differ";
      ASSERT_LE(requested, kAllocPerInputByte * bytes.size() + kAllocSlack)
          << name_of(kind) << " #" << it << " allocated " << requested
          << " bytes for " << bytes.size() << " input bytes";
      rejected += threw ? 1 : 0;
    }
    // Only a bit flip can leave a payload well formed (a flipped float);
    // every other mutant changes a length or a shape.
    if (kind == Mutation::kBitFlip) {
      EXPECT_GT(rejected, 0) << "no bit flip hit a header field";
      EXPECT_LT(rejected, kPerMutation) << "no bit flip hit only data";
    } else {
      EXPECT_EQ(rejected, kPerMutation) << name_of(kind);
    }
  }
}

// -- every other decoder ------------------------------------------------------

bool is_fca_error(const std::exception& e) {
  return dynamic_cast<const Error*>(&e) != nullptr;
}

bool is_handshake_rejection(const std::exception& e) {
  const auto* t = dynamic_cast<const comm::TransportError*>(&e);
  return t != nullptr && t->code() == comm::TransportErrc::kHandshakeRejected;
}

bool is_page_error(const std::exception& e) {
  return dynamic_cast<const fl::PageError*>(&e) != nullptr;
}

/// One decoder under fuzz: a seed the code wrote, where its fields lie, and
/// how to feed it a mutant.
struct DecoderCase {
  std::string name;
  comm::Bytes seed;
  Layout layout;
  /// Mutants per mutation kind.
  int iterations = 100;
  /// Unmetered setup for one mutant (writing it where the decoder reads).
  std::function<void(const comm::Bytes&)> prepare = {};
  /// The decoder itself: parses the mutant or throws.
  std::function<void(const comm::Bytes&)> decode;
  /// Whether an exception is the decoder's typed error.
  bool (*typed)(const std::exception&) = is_fca_error;
  /// Unmetered check after a mutant the decoder rejected.
  std::function<void()> after_reject = {};
};

comm::FaultConfig sample_fault_config() {
  comm::FaultConfig fc;
  fc.drop_rate = 0.125;
  fc.straggler_rate = 0.25;
  fc.straggler_delay_s = 3.5;
  fc.round_deadline_s = 1.25;
  fc.crash_rate = 0.0625;
  fc.crash_rounds = 2;
  fc.crash_schedule = comm::parse_crash_schedule("2@3x2,4@7");
  fc.fault_seed = 0xFEEDFACE12345678ull;
  return fc;
}

comm::FaultStats sample_fault_stats() {
  comm::FaultStats st;
  st.dropped_messages = 3;
  st.dropped_bytes = 1234;
  st.rejoins = 2;
  st.real_peer_faults = 1;
  return st;
}

class DecoderFuzz : public ::testing::Test {
 protected:
  DecoderFuzz() {
    core::ExperimentConfig cfg = test::tiny_experiment_config();
    cfg.models = core::ModelScheme::kHomogeneousResNet;
    exp_ = std::make_unique<core::Experiment>(cfg);
    run_ = test::resident_run(*exp_);
    strat_.initialize(*run_);
    dir_ = testing::TempDir() + "fca_decoder_fuzz";
    std::filesystem::remove_all(dir_);
    std::filesystem::create_directories(dir_);
    previous_level_ = log_level();
    // Checkpoint fallbacks log every rejected mutant.
    set_log_level(LogLevel::kOff);
  }
  ~DecoderFuzz() override {
    set_log_level(previous_level_);
    std::filesystem::remove_all(dir_);
  }

  /// Feeds every mutant of `c` to its decoder with this thread's
  /// allocations summed; `fixed_alloc` is what decoding may cost on top of
  /// O(input) whatever the input.
  void fuzz(const DecoderCase& c, size_t fixed_alloc = 0) {
    Rng rng(20240611);
    for (const Mutation kind : kMutations) {
      if (kind == Mutation::kSwapShape && c.layout.records.empty()) continue;
      int rejects = 0;
      for (int it = 0; it < c.iterations; ++it) {
        const comm::Bytes bytes = mutate(c.seed, c.layout, kind, rng);
        if (c.prepare) c.prepare(bytes);
        bool threw = false;
        t_requested = 0;
        t_armed = true;
        try {
          c.decode(bytes);
        } catch (const std::exception& e) {
          t_armed = false;
          threw = true;
          EXPECT_TRUE(c.typed(e)) << c.name << ", " << name_of(kind) << " #"
                                  << it << " threw an untyped error: "
                                  << e.what();
          if (c.after_reject) c.after_reject();
        }
        t_armed = false;
        EXPECT_LE(t_requested,
                  kAllocPerInputByte * bytes.size() + kAllocSlack + fixed_alloc)
            << c.name << ", " << name_of(kind) << " #" << it << " allocated "
            << t_requested << " bytes for " << bytes.size() << " input bytes";
        rejects += threw ? 1 : 0;
      }
      // Every decoder reads its input to the end and no further, so no
      // prefix parses and nothing parses with bytes after it.
      if (kind == Mutation::kTruncate || kind == Mutation::kTrailing) {
        EXPECT_EQ(rejects, c.iterations) << c.name << ", " << name_of(kind);
      }
    }
  }

  /// What decode(seed) allocates: the input-independent cost a mutant may
  /// add on top of the O(input) bound (a page-in builds a client first).
  static size_t seed_alloc(const DecoderCase& c) {
    if (c.prepare) c.prepare(c.seed);
    t_requested = 0;
    t_armed = true;
    c.decode(c.seed);
    t_armed = false;
    return t_requested;
  }

  /// Writes a container mutant to `path`, its section CRCs re-stamped.
  static void write_container(const std::string& path, comm::Bytes b) {
    restamp_crcs(b);
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out.write(reinterpret_cast<const char*>(b.data()),
              static_cast<std::streamsize>(b.size()));
    ASSERT_TRUE(out.good()) << path;
  }

  static comm::Bytes read_file(const std::string& path) {
    std::ifstream in(path, std::ios::binary);
    EXPECT_TRUE(in.good()) << path;
    const std::string s((std::istreambuf_iterator<char>(in)), {});
    const auto* p = reinterpret_cast<const std::byte*>(s.data());
    return comm::Bytes(p, p + s.size());
  }

  std::unique_ptr<core::Experiment> exp_;
  std::unique_ptr<fl::FederatedRun> run_;
  fl::FedAvg strat_;
  std::string dir_;
  LogLevel previous_level_ = LogLevel::kInfo;
};

TEST_F(DecoderFuzz, ControlBlobs) {
  comm::Handshake hs;
  hs.seed = 77;
  hs.next_round = 5;
  hs.faults = sample_fault_config();
  hs.fault_stats = sample_fault_stats();
  hs.world_size = 5;
  hs.population = 4;
  hs.config_digest = 0x0123456789ABCDEFull;
  hs.flags = comm::Handshake::kFlagTracing;
  const comm::Bytes handshake = hs.serialize();
  fuzz({.name = "Handshake::parse",
        .seed = handshake,
        .layout = word_layout(handshake),
        .iterations = 300,
        .decode = [](const comm::Bytes& b) { (void)comm::Handshake::parse(b); },
        .typed = is_handshake_rejection});

  const comm::Bytes config = comm::serialize_fault_config(sample_fault_config());
  fuzz({.name = "parse_fault_config",
        .seed = config,
        .layout = word_layout(config),
        .iterations = 300,
        .decode = [](const comm::Bytes& b) {
          (void)comm::parse_fault_config(b);
        }});

  const comm::Bytes stats = comm::serialize_fault_stats(sample_fault_stats());
  fuzz({.name = "parse_fault_stats",
        .seed = stats,
        .layout = word_layout(stats),
        .iterations = 300,
        .decode = [](const comm::Bytes& b) {
          (void)comm::parse_fault_stats(b);
        }});
}

TEST_F(DecoderFuzz, GatherMirror) {
  // What the root of a scoped world publishes after a gather over clients
  // 0..3 in which client 1's upload was lost.
  fl::FederatedRun::SurvivorGather g;
  g.survivors = {0, 2, 3};
  for (int k : g.survivors) {
    g.payloads.push_back(serialize_values(
        run_->client(k).model().classifier_parameters()));
  }
  const std::vector<int> expected = {0, 1, 2, 3};
  const comm::Bytes mirror = fl::encode_gather_mirror(g);
  const fl::FederatedRun::SurvivorGather back =
      fl::decode_gather_mirror(mirror, expected);
  EXPECT_EQ(back.survivors, g.survivors);
  EXPECT_EQ(back.payloads, g.payloads);
  // Survivors out of the gather's order, or outside it, are rejected.
  EXPECT_THROW(fl::decode_gather_mirror(mirror, {3, 2, 0}), Error);
  EXPECT_THROW(fl::decode_gather_mirror(mirror, {0, 2}), Error);
  fuzz({.name = "decode_gather_mirror",
        .seed = mirror,
        .layout = gather_mirror_layout(mirror),
        .iterations = 300,
        .decode = [&expected](const comm::Bytes& b) {
          (void)fl::decode_gather_mirror(b, expected);
        }});
}

TEST_F(DecoderFuzz, MapValue) {
  // What a joiner ships the root for one position of an executor sweep.
  utils::ByteWriter w;
  w.f64(0.8125);
  const comm::Bytes value = w.take();
  EXPECT_EQ(fl::decode_map_value(value), 0.8125);
  fuzz({.name = "decode_map_value",
        .seed = value,
        .layout = word_layout(value),
        .iterations = 300,
        .decode = [](const comm::Bytes& b) {
          (void)fl::decode_map_value(b);
        }});
}

TEST_F(DecoderFuzz, TraceSync) {
  // What joiner rank 2 ships at a round boundary: its own events only, not
  // the driver's rank-0 span it also recorded.
  const std::vector<obs::TraceEvent> events = {
      {.round = 1, .rank = 2, .seq = 0, .cat = "fl", .name = "train",
       .value = 40},
      {.round = 1, .rank = 0, .seq = 0, .cat = "fl", .name = "round",
       .value = 3},
      {.round = 1, .rank = 2, .seq = 1, .cat = "comm",
       .name = "upload_classifier", .value = -1},
  };
  const comm::Bytes blob = fl::encode_trace_sync(events, 2);
  const std::vector<fl::ShippedTraceEvent> back = fl::decode_trace_sync(blob);
  ASSERT_EQ(back.size(), 2u);
  EXPECT_EQ(back[1].event.seq, 1u);
  EXPECT_EQ(back[1].event.value, -1);
  EXPECT_EQ(back[1].cat, "comm");
  EXPECT_EQ(back[1].name, "upload_classifier");
  fuzz({.name = "decode_trace_sync",
        .seed = blob,
        .layout = trace_sync_layout(blob),
        .iterations = 300,
        .decode = [](const comm::Bytes& b) {
          (void)fl::decode_trace_sync(b);
        }});
}

TEST_F(DecoderFuzz, ModelPayloads) {
  const comm::Bytes down = strat_.downlink(*run_);
  fuzz({.name = "view_tensors",
        .seed = down,
        .layout = layout_of(down),
        .decode = [](const comm::Bytes& b) { (void)view_tensors(b); }});
  fuzz({.name = "deserialize_tensors",
        .seed = down,
        .layout = layout_of(down),
        .decode = [](const comm::Bytes& b) { (void)deserialize_tensors(b); }});

  const comm::Bytes state = serialize_state(run_->client(0).model());
  SplitModel& target = run_->client(1).model();
  fuzz({.name = "deserialize_state",
        .seed = state,
        .layout = layout_of(state),
        .decode = [&target](const comm::Bytes& b) {
          deserialize_state(b, target);
        }});
}

TEST_F(DecoderFuzz, ClientState) {
  const comm::Bytes state = fl::encode_client_state(run_->client(0));
  fl::Client& target = run_->client(1);
  // A rejected mutant must leave the target's model, optimizer and RNG as
  // they were; an accepted one may change them, so each mutant starts from
  // a fresh snapshot.
  comm::Bytes before;
  fuzz({.name = "decode_client_state",
        .seed = state,
        .layout = client_state_layout(state),
        .prepare =
            [&](const comm::Bytes&) {
              before = fl::encode_client_state(target);
            },
        .decode = [&target](const comm::Bytes& b) {
          fl::decode_client_state(b, target);
        },
        .after_reject = [&] {
          EXPECT_TRUE(fl::encode_client_state(target) == before)
              << "a rejected state changed the client";
        }});
}

TEST_F(DecoderFuzz, ClientStateCutShortLeavesTheClientUntouched) {
  fl::Client& source = run_->client(0);
  fl::Client& target = run_->client(1);
  // Every part of the source differs from the target, so a decode that
  // wrote anything before it threw would show.
  for (nn::Param* p : source.model().parameters()) p->value.fill(0.5f);
  for (const nn::BufferRef& b : source.model().buffers()) {
    b.tensor->fill(0.25f);
  }
  for (Tensor* t : source.optimizer().state_tensors()) t->fill(0.125f);
  source.rng().restore(12345);
  comm::Bytes state = fl::encode_client_state(source);
  state.resize(state.size() - 4);  // into the trailing RNG word
  const comm::Bytes before = fl::encode_client_state(target);
  EXPECT_THROW(fl::decode_client_state(state, target), Error);
  EXPECT_TRUE(fl::encode_client_state(target) == before)
      << "a state cut short half-restored the client";
}

TEST_F(DecoderFuzz, CheckpointFiles) {
  ckpt::CheckpointManager manager({dir_, 1, 1});
  fl::ResumeState cursor;
  cursor.next_round = 2;
  cursor.sampler_state = 99;
  fl::RoundMetrics row;
  row.round = 1;
  row.client_accuracies = {0.5, 0.25, 0.75, 1.0};
  cursor.curve = {row};
  manager.save(*run_, strat_, cursor);
  const std::string path = ckpt::CheckpointManager::checkpoint_path(dir_, 1);
  const comm::Bytes file = read_file(path);
  const auto write = [&path](const comm::Bytes& b) {
    write_container(path, b);
  };
  fuzz({.name = "SectionReader",
        .seed = file,
        .layout = container_layout(file, false),
        .prepare = write,
        .decode = [&path](const comm::Bytes&) {
          (void)ckpt::SectionReader(path);
        }});
  fuzz({.name = "CheckpointManager::resume",
        .seed = file,
        .layout = container_layout(file, true),
        .prepare = write,
        .decode = [&](const comm::Bytes&) {
          (void)manager.resume(*run_, strat_);
        }});
}

TEST_F(DecoderFuzz, PageFiles) {
  const int population = exp_->config().num_clients;
  std::vector<int64_t> sizes;
  for (int k = 0; k < population; ++k) {
    sizes.push_back(static_cast<int64_t>(
        exp_->partition().client_indices[static_cast<size_t>(k)].size()));
  }
  fl::ClientStoreOptions options;
  options.max_resident = 2;
  options.page_dir = dir_ + "/pages";
  fl::ClientStore store(
      population, [this](int k) { return exp_->build_client(k); },
      std::move(sizes), options);
  // Dirty client 0, then push it out so its page file exists.
  (void)store.touch(0, true);
  (void)store.touch(1, true);
  (void)store.touch(2, true);
  ASSERT_FALSE(store.resident(0));
  const std::string path = store.page_path(0);
  const comm::Bytes page = read_file(path);
  const DecoderCase c{
      .name = "page-file load",
      .seed = page,
      .layout = container_layout(page, true),
      .prepare =
          [&](const comm::Bytes& b) {
            // Page 0 out again if the last mutant loaded, then put the
            // mutant in its place.
            (void)store.touch(3, false);
            (void)store.touch(2, false);
            ASSERT_FALSE(store.resident(0));
            write_container(path, b);
          },
      .decode = [&store](const comm::Bytes&) { (void)store.touch(0, false); },
      .typed = is_page_error};
  fuzz(c, seed_alloc(c));
}

}  // namespace
}  // namespace fca::models
