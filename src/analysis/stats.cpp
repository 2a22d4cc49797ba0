#include "analysis/stats.hpp"

#include <algorithm>
#include <cmath>
#include <numeric>

#include "utils/error.hpp"

namespace fca::analysis {
namespace {

std::vector<double> dense_ranks(const std::vector<double>& v) {
  std::vector<size_t> order(v.size());
  std::iota(order.begin(), order.end(), size_t{0});
  std::sort(order.begin(), order.end(), [&](size_t a, size_t b) {
    if (v[a] != v[b]) return v[a] < v[b];
    return a < b;
  });
  std::vector<double> ranks(v.size());
  for (size_t r = 0; r < order.size(); ++r) {
    ranks[order[r]] = static_cast<double>(r);
  }
  return ranks;
}

double row_distance(const Tensor& e, int64_t i, int64_t j) {
  const int64_t d = e.dim(1);
  double s = 0.0;
  for (int64_t k = 0; k < d; ++k) {
    const double diff = static_cast<double>(e[i * d + k]) - e[j * d + k];
    s += diff * diff;
  }
  return std::sqrt(s);
}

}  // namespace

double pearson(const std::vector<double>& a, const std::vector<double>& b) {
  FCA_CHECK(a.size() == b.size() && a.size() >= 2);
  const auto n = static_cast<double>(a.size());
  double ma = 0.0, mb = 0.0;
  for (size_t i = 0; i < a.size(); ++i) {
    ma += a[i];
    mb += b[i];
  }
  ma /= n;
  mb /= n;
  double cov = 0.0, va = 0.0, vb = 0.0;
  for (size_t i = 0; i < a.size(); ++i) {
    cov += (a[i] - ma) * (b[i] - mb);
    va += (a[i] - ma) * (a[i] - ma);
    vb += (b[i] - mb) * (b[i] - mb);
  }
  if (va <= 0.0 || vb <= 0.0) return 0.0;
  return cov / std::sqrt(va * vb);
}

double spearman(const std::vector<double>& a, const std::vector<double>& b) {
  return pearson(dense_ranks(a), dense_ranks(b));
}

double mean_pairwise_spearman(const Tensor& scores) {
  FCA_CHECK(scores.ndim() == 2 && scores.dim(0) >= 2);
  const int64_t rows = scores.dim(0);
  const int64_t cols = scores.dim(1);
  std::vector<std::vector<double>> data(static_cast<size_t>(rows));
  for (int64_t i = 0; i < rows; ++i) {
    data[static_cast<size_t>(i)].resize(static_cast<size_t>(cols));
    for (int64_t j = 0; j < cols; ++j) {
      data[static_cast<size_t>(i)][static_cast<size_t>(j)] =
          scores[i * cols + j];
    }
  }
  double total = 0.0;
  int64_t pairs = 0;
  for (int64_t i = 0; i < rows; ++i) {
    for (int64_t j = i + 1; j < rows; ++j) {
      total += spearman(data[static_cast<size_t>(i)],
                        data[static_cast<size_t>(j)]);
      ++pairs;
    }
  }
  return total / static_cast<double>(pairs);
}

double silhouette_score(const Tensor& embedding,
                        const std::vector<int>& labels) {
  FCA_CHECK(embedding.ndim() == 2 &&
            static_cast<int64_t>(labels.size()) == embedding.dim(0));
  const int64_t n = embedding.dim(0);
  const int num_classes =
      1 + *std::max_element(labels.begin(), labels.end());
  double total = 0.0;
  int64_t counted = 0;
  for (int64_t i = 0; i < n; ++i) {
    // Mean distance to every cluster.
    std::vector<double> dist_sum(static_cast<size_t>(num_classes), 0.0);
    std::vector<int64_t> count(static_cast<size_t>(num_classes), 0);
    for (int64_t j = 0; j < n; ++j) {
      if (j == i) continue;
      const auto cj = static_cast<size_t>(labels[static_cast<size_t>(j)]);
      dist_sum[cj] += row_distance(embedding, i, j);
      ++count[cj];
    }
    const auto ci = static_cast<size_t>(labels[static_cast<size_t>(i)]);
    if (count[ci] == 0) continue;  // singleton cluster: silhouette undefined
    const double a = dist_sum[ci] / static_cast<double>(count[ci]);
    double b = std::numeric_limits<double>::infinity();
    for (size_t c = 0; c < static_cast<size_t>(num_classes); ++c) {
      if (c == ci || count[c] == 0) continue;
      b = std::min(b, dist_sum[c] / static_cast<double>(count[c]));
    }
    if (!std::isfinite(b)) continue;  // only one cluster present
    total += (b - a) / std::max(a, b);
    ++counted;
  }
  return counted > 0 ? total / static_cast<double>(counted) : 0.0;
}

double cross_client_class_affinity(const Tensor& embedding,
                                   const std::vector<int>& class_labels,
                                   const std::vector<int>& client_labels,
                                   int k) {
  FCA_CHECK(embedding.ndim() == 2);
  const int64_t n = embedding.dim(0);
  FCA_CHECK(static_cast<int64_t>(class_labels.size()) == n &&
            static_cast<int64_t>(client_labels.size()) == n);
  FCA_CHECK(k >= 1 && k < n);
  double total = 0.0;
  int64_t counted = 0;
  std::vector<std::pair<double, int64_t>> dist;
  dist.reserve(static_cast<size_t>(n));
  for (int64_t i = 0; i < n; ++i) {
    dist.clear();
    for (int64_t j = 0; j < n; ++j) {
      if (j == i ||
          client_labels[static_cast<size_t>(j)] ==
              client_labels[static_cast<size_t>(i)]) {
        continue;  // only foreign-client neighbors count
      }
      dist.emplace_back(row_distance(embedding, i, j), j);
    }
    if (dist.empty()) continue;
    const int kk = std::min<int>(k, static_cast<int>(dist.size()));
    std::partial_sort(dist.begin(), dist.begin() + kk, dist.end());
    int hits = 0;
    for (int t = 0; t < kk; ++t) {
      const auto j = static_cast<size_t>(dist[static_cast<size_t>(t)].second);
      if (class_labels[j] == class_labels[static_cast<size_t>(i)]) ++hits;
    }
    total += static_cast<double>(hits) / kk;
    ++counted;
  }
  return counted > 0 ? total / static_cast<double>(counted) : 0.0;
}

}  // namespace fca::analysis
