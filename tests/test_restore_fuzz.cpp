// Seeded mutation fuzz of models::restore_values(payload, params), the
// decoder that writes a received model straight into a client's parameters.
// It is a trust boundary: the bytes come off the wire. Every mutant of a
// real FedAvg downlink must either restore exactly what
// deserialize_tensors would have parsed, or throw fca::Error with every
// parameter untouched, and the decoder may allocate only O(input) on the way.
#include <gtest/gtest.h>

#include <cstdlib>
#include <cstring>
#include <limits>
#include <new>
#include <optional>

#include "fl/fedavg.hpp"
#include "fl_fixtures.hpp"
#include "models/serialize.hpp"
#include "utils/error.hpp"
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

/// Where the header fields of a serialize_tensors buffer lie.
struct Layout {
  struct Field {
    size_t at;
    size_t width;  // 4 (u32) or 8 (i64)
  };
  struct Record {
    size_t dims_at;
    uint32_t ndim;
  };
  std::vector<Field> fields;  // count, then per tensor name_len, ndim, dims
  std::vector<Record> records;
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

Layout layout_of(const comm::Bytes& b) {
  Layout l;
  size_t at = 0;
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
    at += static_cast<size_t>(numel) * sizeof(float);
  }
  EXPECT_EQ(at, b.size());
  return l;
}

enum class Mutation { kBitFlip, kTruncate, kInflate, kTrailing, kSwapShape };

constexpr Mutation kMutations[] = {Mutation::kBitFlip, Mutation::kTruncate,
                                   Mutation::kInflate, Mutation::kTrailing,
                                   Mutation::kSwapShape};

const char* name_of(Mutation m) {
  switch (m) {
    case Mutation::kBitFlip: return "bit flip";
    case Mutation::kTruncate: return "truncation";
    case Mutation::kInflate: return "length inflation";
    case Mutation::kTrailing: return "trailing bytes";
    case Mutation::kSwapShape: return "swapped shape";
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
  switch (kind) {
    case Mutation::kBitFlip: {
      // Half the flips land in a header field; the rest anywhere (mostly
      // float data, which must restore as the flipped values).
      const size_t flips = 1 + pick(4);
      for (size_t f = 0; f < flips; ++f) {
        size_t at = pick(b.size());
        if (rng.uniform_int(2) == 0) {
          const Layout::Field& field = layout.fields[pick(layout.fields.size())];
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
      const Layout::Field& field = layout.fields[pick(layout.fields.size())];
      if (field.width == 4) {
        const auto old = load<uint32_t>(b, field.at);
        const uint32_t values[] = {old + 1, old * 2 + 1, 0x7FFFFFFFu,
                                   0xFFFFFFFFu};
        store<uint32_t>(b, field.at, values[pick(4)]);
      } else {
        const auto old = load<int64_t>(b, field.at);
        const int64_t values[] = {old + 1, old * 2 + 1, int64_t{1} << 31,
                                  int64_t{1} << 40,
                                  std::numeric_limits<int64_t>::max()};
        store<int64_t>(b, field.at, values[pick(5)]);
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

}  // namespace
}  // namespace fca::models
