#include <gtest/gtest.h>

#include <cmath>

#include "analysis/conductance.hpp"
#include "utils/error.hpp"
#include "analysis/stats.hpp"
#include "analysis/tsne.hpp"
#include "models/factory.hpp"
#include "tensor/ops.hpp"
#include "utils/rng.hpp"

namespace fca::analysis {
namespace {

/// Mean Euclidean distance over row pairs with equal labels (`same`) or
/// different labels (!`same`).
double mean_pair_distance(const Tensor& e, const std::vector<int>& labels,
                          bool same) {
  const int64_t n = e.dim(0);
  const int64_t d = e.dim(1);
  double total = 0.0;
  int64_t pairs = 0;
  for (int64_t i = 0; i < n; ++i) {
    for (int64_t j = i + 1; j < n; ++j) {
      if ((labels[static_cast<size_t>(i)] ==
           labels[static_cast<size_t>(j)]) != same) {
        continue;
      }
      double s = 0.0;
      for (int64_t k = 0; k < d; ++k) {
        const double diff = static_cast<double>(e[i * d + k]) - e[j * d + k];
        s += diff * diff;
      }
      total += std::sqrt(s);
      ++pairs;
    }
  }
  return pairs > 0 ? total / static_cast<double>(pairs) : 0.0;
}

/// Three well-separated Gaussian blobs in 5-D.
std::pair<Tensor, std::vector<int>> blob_data(int per_class, Rng& rng) {
  const int classes = 3;
  Tensor x({classes * per_class, 5});
  std::vector<int> labels;
  for (int c = 0; c < classes; ++c) {
    for (int i = 0; i < per_class; ++i) {
      const int64_t row = c * per_class + i;
      for (int64_t j = 0; j < 5; ++j) {
        x[row * 5 + j] = static_cast<float>(rng.normal(c * 10.0, 0.5));
      }
      labels.push_back(c);
    }
  }
  return {std::move(x), std::move(labels)};
}

TEST(PairwiseDistances, MatchesManualComputation) {
  Tensor x({3, 2}, {0, 0, 3, 4, 0, 1});
  Tensor d = pairwise_squared_distances(x);
  EXPECT_FLOAT_EQ((d.at({0, 0})), 0.0f);
  EXPECT_FLOAT_EQ((d.at({0, 1})), 25.0f);
  EXPECT_FLOAT_EQ((d.at({1, 0})), 25.0f);
  EXPECT_FLOAT_EQ((d.at({0, 2})), 1.0f);
  EXPECT_FLOAT_EQ((d.at({1, 2})), 18.0f);
}

TEST(JointProbabilities, SymmetricNormalizedRows) {
  Rng rng(1);
  auto [x, labels] = blob_data(10, rng);
  Tensor p = joint_probabilities(pairwise_squared_distances(x), 5.0);
  const int64_t n = p.dim(0);
  double total = 0.0;
  for (int64_t i = 0; i < n; ++i) {
    for (int64_t j = 0; j < n; ++j) {
      EXPECT_FLOAT_EQ(p[i * n + j], p[j * n + i]);
      EXPECT_GE(p[i * n + j], 0.0f);
      total += p[i * n + j];
    }
  }
  // P is a joint distribution (up to the numeric floor).
  EXPECT_NEAR(total, 1.0, 0.01);
}

TEST(Tsne, SeparatesWellSeparatedClusters) {
  Rng rng(2);
  auto [x, labels] = blob_data(12, rng);
  TsneConfig cfg;
  cfg.iterations = 250;
  cfg.perplexity = 8.0;
  Rng embed_rng(3);
  Tensor y = tsne(x, cfg, embed_rng);
  EXPECT_EQ(y.shape(), (Shape{36, 2}));
  // The embedding must keep the clusters apart: silhouette clearly positive
  // and intra-class spread smaller than inter-class spread.
  EXPECT_GT(silhouette_score(y, labels), 0.3);
  EXPECT_LT(mean_pair_distance(y, labels, true),
            mean_pair_distance(y, labels, false));
}

TEST(Tsne, DeterministicGivenRng) {
  Rng rng(4);
  auto [x, labels] = blob_data(8, rng);
  TsneConfig cfg;
  cfg.iterations = 50;
  Rng r1(9), r2(9);
  EXPECT_TRUE(allclose(tsne(x, cfg, r1), tsne(x, cfg, r2), 0.0f, 0.0f));
}

TEST(Conductance, ExactForLinearFeatureExtractor) {
  // With a linear model end-to-end, conductance has the closed form
  // f_j(x) * W[c, j] (baseline 0). Build a model whose extractor is linear
  // by zero-ing bias and checking against that form is hard with conv
  // stacks, so instead verify the completeness axiom approximately:
  // sum_j conductance_j ~= logit_c(x) - logit_c(0) for a BN-free model.
  models::ModelConfig mc;
  mc.arch = models::Arch::kMiniAlexNet;  // no BatchNorm -> eval == pure fn
  mc.in_channels = 1;
  mc.image_size = 8;
  mc.feature_dim = 8;
  mc.num_classes = 3;
  mc.width = 4;
  Rng rng(5);
  auto model = models::build_model(mc, rng);
  Tensor image = Tensor::randn({1, 8, 8}, rng);

  Tensor cond = layer_conductance(*model, image, /*target=*/1, /*steps=*/64);
  EXPECT_EQ(cond.shape(), (Shape{8}));

  Tensor batch({2, 1, 8, 8});
  batch.copy_row_from(1, image.reshape({1, 1, 8, 8}), 0);
  Tensor logits = model->forward(batch, false);
  const float expected = logits[1 * 3 + 1] - logits[0 * 3 + 1];
  EXPECT_NEAR(sum(cond), expected, std::abs(expected) * 0.05f + 0.02f);
}

TEST(Conductance, RankScoresAreDenseRanks) {
  Tensor scores({4}, {0.5f, -1.0f, 2.0f, 0.0f});
  const std::vector<int> ranks = rank_scores(scores);
  EXPECT_EQ(ranks, (std::vector<int>{2, 0, 3, 1}));
}

TEST(Conductance, RankScoresTieBreakByIndex) {
  Tensor scores({3}, {1.0f, 1.0f, 0.0f});
  const std::vector<int> ranks = rank_scores(scores);
  EXPECT_EQ(ranks, (std::vector<int>{1, 2, 0}));
}

TEST(Stats, PearsonPerfectAndInverse) {
  EXPECT_NEAR(pearson({1, 2, 3}, {2, 4, 6}), 1.0, 1e-12);
  EXPECT_NEAR(pearson({1, 2, 3}, {3, 2, 1}), -1.0, 1e-12);
  EXPECT_NEAR(pearson({1, 2, 3}, {5, 5, 5}), 0.0, 1e-12);
}

TEST(Stats, SpearmanIgnoresMonotoneTransform) {
  const std::vector<double> a{1, 2, 3, 4, 5};
  const std::vector<double> b{1, 8, 27, 64, 125};  // a^3: same ranks
  EXPECT_NEAR(spearman(a, b), 1.0, 1e-12);
  const std::vector<double> c{125, 64, 27, 8, 1};
  EXPECT_NEAR(spearman(a, c), -1.0, 1e-12);
}

TEST(Stats, MeanPairwiseSpearman) {
  Tensor scores({3, 4}, {1, 2, 3, 4,     // identical rank order
                         10, 20, 30, 40,  // identical rank order
                         4, 3, 2, 1});    // reversed
  // pairs: (0,1)=1, (0,2)=-1, (1,2)=-1 -> mean = -1/3.
  EXPECT_NEAR(mean_pairwise_spearman(scores), -1.0 / 3.0, 1e-9);
}

TEST(Stats, SilhouetteHighForSeparatedLowForMixed) {
  Rng rng(6);
  auto [x, labels] = blob_data(10, rng);
  EXPECT_GT(silhouette_score(x, labels), 0.8);
  // Random labels destroy the structure.
  std::vector<int> shuffled = labels;
  Rng shuffle_rng(7);
  const auto perm = shuffle_rng.permutation(static_cast<int>(shuffled.size()));
  std::vector<int> random_labels(shuffled.size());
  for (size_t i = 0; i < shuffled.size(); ++i) {
    random_labels[i] = labels[static_cast<size_t>(perm[i])];
  }
  EXPECT_LT(silhouette_score(x, random_labels),
            silhouette_score(x, labels));
}

TEST(Stats, CrossClientClassAffinity) {
  // Positions: two pairs, {0, 10} on client 0 and {0.1, 10.1} on client 1.
  // When classes align across clients (each point's nearest foreign
  // neighbor shares its class), affinity is 1 at k=1.
  Tensor x({4, 1}, {0.0f, 10.0f, 0.1f, 10.1f});
  const std::vector<int> clients{0, 0, 1, 1};
  const std::vector<int> aligned{0, 1, 0, 1};
  EXPECT_DOUBLE_EQ(cross_client_class_affinity(x, aligned, clients, 1), 1.0);
  // When foreign neighbors never share the class, affinity is 0.
  const std::vector<int> crossed{0, 1, 1, 0};
  EXPECT_DOUBLE_EQ(cross_client_class_affinity(x, crossed, clients, 1), 0.0);
}

TEST(Stats, CrossClientAffinityIgnoresOwnClientNeighbors) {
  // A point surrounded by its own client's same-class points but whose
  // nearest *foreign* point differs in class must score 0 — the metric must
  // not be saturated by intra-client clusters.
  Tensor x({4, 1}, {0.0f, 0.01f, 0.02f, 5.0f});
  const std::vector<int> cls{0, 0, 0, 1};
  const std::vector<int> clients{0, 0, 0, 1};
  EXPECT_DOUBLE_EQ(cross_client_class_affinity(x, cls, clients, 1), 0.0);
}

TEST(Stats, CrossClientAffinityValidatesK) {
  Tensor x({3, 1}, {0.0f, 1.0f, 2.0f});
  EXPECT_THROW(
      cross_client_class_affinity(x, {0, 0, 0}, {0, 1, 2}, 3), Error);
  EXPECT_THROW(
      cross_client_class_affinity(x, {0, 0, 0}, {0, 1, 2}, 0), Error);
}

}  // namespace
}  // namespace fca::analysis
