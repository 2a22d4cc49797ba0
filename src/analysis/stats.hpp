// Statistics used by the §5 analyses: rank correlation between client
// attribution profiles (Fig. 9) and cluster-quality measures quantifying the
// t-SNE structure (Fig. 8).
#pragma once

#include <vector>

#include "tensor/tensor.hpp"

namespace fca::analysis {

/// Pearson correlation of two equal-length sequences.
double pearson(const std::vector<double>& a, const std::vector<double>& b);

/// Spearman rank correlation (Pearson over dense ranks, ties by index).
double spearman(const std::vector<double>& a, const std::vector<double>& b);

/// Mean pairwise Spearman correlation between the rows of a score matrix
/// [clients, units]; the Fig. 9 "clients share unit importance" statistic.
double mean_pairwise_spearman(const Tensor& scores);

/// Mean silhouette coefficient of an embedding under the given labels;
/// in [-1, 1], higher = better-separated label clusters.
double silhouette_score(const Tensor& embedding,
                        const std::vector<int>& labels);

/// The Fig. 8 statistic: for each point, the fraction of its k nearest
/// *foreign* neighbors (points from other clients) that share its class,
/// averaged over points. Restricting to foreign neighbors factors out the
/// dominant own-client clusters: chance level is 1/num_classes, and
/// FedClassAvg — which gathers same-label features across clients — should
/// score above the local-only baseline.
double cross_client_class_affinity(const Tensor& embedding,
                                   const std::vector<int>& class_labels,
                                   const std::vector<int>& client_labels,
                                   int k = 10);

}  // namespace fca::analysis
