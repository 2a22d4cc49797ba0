// Property-based suites (parameterized sweeps over the input space) for the
// library's core invariants: softmax algebra, contrastive-loss symmetry,
// aggregation fixed points, serialization totality, and partition contracts.
#include <gtest/gtest.h>

#include <cstdint>
#include <set>
#include <string>
#include <vector>

#include "autograd/ops.hpp"
#include "data/partition.hpp"
#include "models/serialize.hpp"
#include "tensor/ops.hpp"
#include "test_helpers.hpp"
#include "utils/rng.hpp"

namespace fca {
namespace {

// -- softmax algebra over random inputs -----------------------------------

class SoftmaxProperty : public ::testing::TestWithParam<int> {};

TEST_P(SoftmaxProperty, ShiftInvariantRowwise) {
  Rng rng(static_cast<uint64_t>(GetParam()));
  Tensor x = Tensor::randn({6, 9}, rng, 0.0f, 5.0f);
  Tensor shifted = add_scalar(x, static_cast<float>(rng.uniform(-50, 50)));
  EXPECT_TRUE(allclose(softmax_rows(x), softmax_rows(shifted), 1e-5f));
}

TEST_P(SoftmaxProperty, PreservesRowArgmax) {
  Rng rng(static_cast<uint64_t>(GetParam()) + 1000);
  Tensor x = Tensor::randn({5, 7}, rng, 0.0f, 3.0f);
  EXPECT_EQ(argmax_rows(x), argmax_rows(softmax_rows(x)));
}

TEST_P(SoftmaxProperty, LogSoftmaxIsNonPositive) {
  Rng rng(static_cast<uint64_t>(GetParam()) + 2000);
  Tensor x = Tensor::randn({4, 6}, rng, 0.0f, 4.0f);
  EXPECT_LE(test::max_value(log_softmax_rows(x)), 1e-6f);
}

INSTANTIATE_TEST_SUITE_P(Seeds, SoftmaxProperty, ::testing::Range(0, 8));

// -- SupCon symmetries -------------------------------------------------------

class SupConProperty : public ::testing::TestWithParam<int> {};

TEST_P(SupConProperty, InvariantUnderRowPermutation) {
  Rng rng(static_cast<uint64_t>(GetParam()) * 31 + 7);
  const int64_t n = 8;
  Tensor emb = Tensor::randn({n, 5}, rng);
  std::vector<int> labels{0, 0, 1, 1, 2, 2, 3, 3};
  const float before =
      ag::supervised_contrastive(ag::Variable::leaf(emb), labels, 0.3f)
          .value()[0];
  const std::vector<int> perm = rng.permutation(static_cast<int>(n));
  Tensor permuted({n, 5});
  std::vector<int> permuted_labels(static_cast<size_t>(n));
  for (int64_t i = 0; i < n; ++i) {
    permuted.copy_row_from(i, emb, perm[static_cast<size_t>(i)]);
    permuted_labels[static_cast<size_t>(i)] =
        labels[static_cast<size_t>(perm[static_cast<size_t>(i)])];
  }
  const float after = ag::supervised_contrastive(
                          ag::Variable::leaf(permuted), permuted_labels, 0.3f)
                          .value()[0];
  EXPECT_NEAR(before, after, 1e-4f);
}

TEST_P(SupConProperty, InvariantUnderEmbeddingScaling) {
  // L2 normalization makes the loss invariant to a global positive scale.
  Rng rng(static_cast<uint64_t>(GetParam()) * 17 + 3);
  Tensor emb = Tensor::randn({6, 4}, rng);
  const std::vector<int> labels{0, 1, 0, 1, 2, 2};
  const float a =
      ag::supervised_contrastive(ag::Variable::leaf(emb), labels, 0.2f)
          .value()[0];
  const float b = ag::supervised_contrastive(
                      ag::Variable::leaf(mul_scalar(emb, 7.5f)), labels, 0.2f)
                      .value()[0];
  EXPECT_NEAR(a, b, 1e-4f);
}

TEST_P(SupConProperty, NonNegativeWithManyClasses) {
  // With at most one positive per anchor and many negatives the loss is
  // positive; in general SupCon >= 0 never holds exactly, but for random
  // embeddings it should not be significantly negative.
  Rng rng(static_cast<uint64_t>(GetParam()) * 13 + 5);
  Tensor emb = Tensor::randn({10, 6}, rng);
  std::vector<int> labels{0, 0, 1, 1, 2, 2, 3, 3, 4, 4};
  const float v =
      ag::supervised_contrastive(ag::Variable::leaf(emb), labels, 0.5f)
          .value()[0];
  EXPECT_GT(v, 0.0f);
}

INSTANTIATE_TEST_SUITE_P(Seeds, SupConProperty, ::testing::Range(0, 8));

// -- aggregation fixed points ----------------------------------------------

class AggregationProperty : public ::testing::TestWithParam<int> {};

TEST_P(AggregationProperty, WeightedAverageOfIdenticalIsIdentity) {
  // If every client uploads the same tensor, any normalized weighting must
  // return it unchanged — the fixed point classifier averaging relies on.
  Rng rng(static_cast<uint64_t>(GetParam()) * 7 + 1);
  const int clients = 3 + GetParam() % 4;
  Tensor shared = Tensor::randn({4, 5}, rng);
  std::vector<double> sizes;
  double total = 0.0;
  for (int k = 0; k < clients; ++k) {
    sizes.push_back(rng.uniform(1.0, 100.0));
    total += sizes.back();
  }
  Tensor agg({4, 5});
  for (int k = 0; k < clients; ++k) {
    axpy_(agg, static_cast<float>(sizes[static_cast<size_t>(k)] / total),
          shared);
  }
  EXPECT_TRUE(allclose(agg, shared, 1e-4f));
}

TEST_P(AggregationProperty, AverageStaysInConvexHull) {
  Rng rng(static_cast<uint64_t>(GetParam()) * 11 + 2);
  const int clients = 4;
  std::vector<Tensor> uploads;
  for (int k = 0; k < clients; ++k) {
    uploads.push_back(Tensor::randn({8}, rng));
  }
  Tensor agg({8});
  for (const auto& u : uploads) {
    axpy_(agg, 1.0f / static_cast<float>(clients), u);
  }
  for (int64_t i = 0; i < 8; ++i) {
    float lo = uploads[0][i], hi = uploads[0][i];
    for (const auto& u : uploads) {
      lo = std::min(lo, u[i]);
      hi = std::max(hi, u[i]);
    }
    EXPECT_GE(agg[i], lo - 1e-5f);
    EXPECT_LE(agg[i], hi + 1e-5f);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, AggregationProperty, ::testing::Range(0, 8));

// -- serialization totality ----------------------------------------------

class SerializationProperty : public ::testing::TestWithParam<int> {};

TEST_P(SerializationProperty, TensorListRoundTripsArbitraryShapes) {
  Rng rng(static_cast<uint64_t>(GetParam()) * 101 + 9);
  std::vector<Tensor> tensors;
  const int count = 1 + static_cast<int>(rng.uniform_int(5));
  for (int i = 0; i < count; ++i) {
    Shape shape;
    const int ndim = 1 + static_cast<int>(rng.uniform_int(4));
    for (int d = 0; d < ndim; ++d) {
      shape.push_back(1 + static_cast<int64_t>(rng.uniform_int(6)));
    }
    tensors.push_back(Tensor::randn(shape, rng));
  }
  const auto back =
      models::deserialize_tensors(models::serialize_tensors(tensors));
  ASSERT_EQ(back.size(), tensors.size());
  for (size_t i = 0; i < tensors.size(); ++i) {
    EXPECT_EQ(back[i].shape(), tensors[i].shape());
    EXPECT_TRUE(allclose(back[i], tensors[i], 0.0f, 0.0f));
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, SerializationProperty,
                         ::testing::Range(0, 10));

// -- partition contracts over a parameter sweep ---------------------------

struct PartitionCase {
  int num_classes;
  int per_class;
  int num_clients;
  double alpha;
};

class PartitionProperty : public ::testing::TestWithParam<PartitionCase> {};

TEST_P(PartitionProperty, DisjointEqualSizedCover) {
  const PartitionCase pc = GetParam();
  std::vector<int> labels;
  for (int c = 0; c < pc.num_classes; ++c) {
    for (int i = 0; i < pc.per_class; ++i) labels.push_back(c);
  }
  Rng rng(99);
  const data::Partition p = data::dirichlet_partition(
      labels, pc.num_classes, pc.num_clients, pc.alpha, rng);
  std::vector<bool> seen(labels.size(), false);
  const int expected =
      static_cast<int>(labels.size()) / pc.num_clients;
  for (const auto& idx : p.client_indices) {
    EXPECT_EQ(static_cast<int>(idx.size()), expected);
    for (int i : idx) {
      EXPECT_FALSE(seen[static_cast<size_t>(i)]);
      seen[static_cast<size_t>(i)] = true;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Cases, PartitionProperty,
    ::testing::Values(PartitionCase{10, 50, 5, 0.5},
                      PartitionCase{10, 50, 20, 0.1},
                      PartitionCase{26, 20, 20, 0.5},
                      PartitionCase{4, 100, 3, 10.0},
                      PartitionCase{2, 30, 6, 0.3}));

// -- per-client RNG stream independence ------------------------------------
//
// The parallel round executor hands every client its own named stream
// (fork_indexed). These properties are what make "which thread ran first"
// irrelevant: derivation is a pure function of (parent, label, index),
// streams never collide, and state()/restore() replays exactly.

class RngStreamProperty : public ::testing::TestWithParam<int> {};

std::vector<uint64_t> stream_prefix(Rng rng, size_t n) {
  std::vector<uint64_t> out;
  out.reserve(n);
  for (size_t i = 0; i < n; ++i) out.push_back(rng.next_u64());
  return out;
}

TEST_P(RngStreamProperty, IndexedForkMatchesStringFork) {
  const Rng root(static_cast<uint64_t>(GetParam()) * 7919 + 17);
  for (uint64_t k : {0ull, 1ull, 9ull, 10ull, 123ull, 18446744073709551615ull}) {
    const Rng a = root.fork_indexed("client-rng/", k);
    const Rng b = root.fork("client-rng/" + std::to_string(k));
    EXPECT_EQ(a.state(), b.state()) << "index " << k;
  }
}

TEST_P(RngStreamProperty, PerClientPrefixesArePairwiseDisjoint) {
  const Rng root(static_cast<uint64_t>(GetParam()) * 104729 + 3);
  constexpr size_t kPrefix = 256;
  constexpr int kClients = 16;
  std::vector<std::vector<uint64_t>> prefixes;
  for (int k = 0; k < kClients; ++k) {
    prefixes.push_back(
        stream_prefix(root.fork_indexed("client-rng/",
                                        static_cast<uint64_t>(k)),
                      kPrefix));
  }
  // No value appears in two different clients' prefixes: with 64-bit draws a
  // single collision across 16*256 values is overwhelming evidence of stream
  // overlap, not chance (P < 1e-13).
  std::set<uint64_t> seen;
  for (int k = 0; k < kClients; ++k) {
    for (uint64_t v : prefixes[static_cast<size_t>(k)]) {
      EXPECT_TRUE(seen.insert(v).second)
          << "client " << k << " repeats a draw of an earlier stream";
    }
  }
}

TEST_P(RngStreamProperty, DerivationIsScheduleOrderIndependent) {
  // Deriving the streams in any permutation (the parallel lanes claim
  // clients in nondeterministic order) yields identical streams, because
  // fork_indexed never mutates the parent.
  const Rng root(static_cast<uint64_t>(GetParam()) * 31337 + 5);
  constexpr int kClients = 8;
  std::vector<uint64_t> in_order(kClients);
  for (int k = 0; k < kClients; ++k) {
    in_order[static_cast<size_t>(k)] =
        root.fork_indexed("client-rng/", static_cast<uint64_t>(k)).state();
  }
  Rng perm_rng(static_cast<uint64_t>(GetParam()) + 99);
  const std::vector<int> perm = perm_rng.permutation(kClients);
  for (int k : perm) {
    EXPECT_EQ(root.fork_indexed("client-rng/",
                                static_cast<uint64_t>(k)).state(),
              in_order[static_cast<size_t>(k)]);
  }
}

TEST_P(RngStreamProperty, StateRestoreReplaysExactlyMidStream) {
  Rng rng = Rng(static_cast<uint64_t>(GetParam()) * 271 + 9)
                .fork_indexed("client-rng/", 3);
  for (int i = 0; i < 17; ++i) rng.next_u64();  // advance mid-stream
  const uint64_t snap = rng.state();
  const std::vector<uint64_t> first = stream_prefix(rng, 64);
  rng.restore(snap);
  EXPECT_EQ(stream_prefix(rng, 64), first);
  // A copy restored into a *different* Rng object replays too — restore is a
  // full-state transplant, which is what checkpoint resume does.
  Rng other(0);
  other.restore(snap);
  EXPECT_EQ(stream_prefix(other, 64), first);
}

INSTANTIATE_TEST_SUITE_P(Seeds, RngStreamProperty, ::testing::Range(0, 8));

// -- classifier-averaging consistency across heterogeneous dims -----------

TEST(ClassifierShapes, AnyExtractorFeedsTheSameClassifier) {
  // Whatever extractor a client brings, classifiers of shape [C, D] always
  // average elementwise — verify linear combination associativity used by
  // the server matches a direct computation.
  Rng rng(5);
  Tensor a = Tensor::randn({3, 4}, rng);
  Tensor b = Tensor::randn({3, 4}, rng);
  Tensor c = Tensor::randn({3, 4}, rng);
  Tensor incremental({3, 4});
  axpy_(incremental, 0.2f, a);
  axpy_(incremental, 0.3f, b);
  axpy_(incremental, 0.5f, c);
  Tensor direct(a.shape());
  for (int64_t i = 0; i < a.numel(); ++i) {
    direct[i] = 0.2f * a[i] + 0.3f * b[i] + 0.5f * c[i];
  }
  EXPECT_TRUE(allclose(incremental, direct, 1e-6f));
}

}  // namespace
}  // namespace fca
