#include "utils/rng.hpp"

#include <cmath>
#include <numbers>

#include "utils/error.hpp"

namespace fca {

uint64_t splitmix64(uint64_t x) {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

uint64_t hash_label(std::string_view s) {
  uint64_t h = 0xcbf29ce484222325ull;
  for (unsigned char c : s) {
    h ^= c;
    h *= 0x100000001b3ull;
  }
  return h;
}

Rng Rng::fork(std::string_view label) const {
  // Mix the current state with the label hash; children of distinct labels
  // from the same parent are independent streams.
  return Rng(splitmix64(state_ ^ splitmix64(hash_label(label))));
}

Rng Rng::fork_indexed(std::string_view label, uint64_t index) const {
  // Continue the FNV-1a hash of `label` over the decimal digits of `index`,
  // which is exactly hash_label(label + std::to_string(index)).
  char digits[20];
  int n = 0;
  do {
    digits[n++] = static_cast<char>('0' + index % 10);
    index /= 10;
  } while (index != 0);
  uint64_t h = hash_label(label);
  for (int i = n - 1; i >= 0; --i) {
    h ^= static_cast<unsigned char>(digits[i]);
    h *= 0x100000001b3ull;
  }
  return Rng(splitmix64(state_ ^ splitmix64(h)));
}

uint64_t Rng::next_u64() {
  state_ += 0x9e3779b97f4a7c15ull;
  uint64_t z = state_;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

double Rng::uniform() {
  // 53 random mantissa bits -> double in [0, 1).
  return static_cast<double>(next_u64() >> 11) * 0x1.0p-53;
}

double Rng::uniform(double lo, double hi) { return lo + (hi - lo) * uniform(); }

uint64_t Rng::uniform_int(uint64_t n) {
  FCA_CHECK(n > 0);
  // Rejection sampling to avoid modulo bias.
  const uint64_t limit = UINT64_MAX - UINT64_MAX % n;
  uint64_t v = next_u64();
  while (v >= limit) v = next_u64();
  return v % n;
}

double Rng::normal() {
  // Box–Muller; draw u1 away from zero to keep log() finite.
  double u1 = uniform();
  while (u1 <= 1e-300) u1 = uniform();
  const double u2 = uniform();
  return std::sqrt(-2.0 * std::log(u1)) *
         std::cos(2.0 * std::numbers::pi * u2);
}

double Rng::normal(double mean, double stddev) {
  return mean + stddev * normal();
}

bool Rng::bernoulli(double p) { return uniform() < p; }

double Rng::gamma(double shape) {
  FCA_CHECK(shape > 0.0);
  if (shape < 1.0) {
    // Boost to shape+1 and scale back (Marsaglia–Tsang trick).
    const double u = uniform();
    return gamma(shape + 1.0) * std::pow(u, 1.0 / shape);
  }
  const double d = shape - 1.0 / 3.0;
  const double c = 1.0 / std::sqrt(9.0 * d);
  for (;;) {
    double x = normal();
    double v = 1.0 + c * x;
    if (v <= 0.0) continue;
    v = v * v * v;
    const double u = uniform();
    if (u < 1.0 - 0.0331 * x * x * x * x) return d * v;
    if (std::log(u) < 0.5 * x * x + d * (1.0 - v + std::log(v))) return d * v;
  }
}

std::vector<double> Rng::dirichlet(double alpha, int k) {
  FCA_CHECK(k > 0 && alpha > 0.0);
  std::vector<double> out(static_cast<size_t>(k));
  double total = 0.0;
  for (auto& v : out) {
    v = gamma(alpha);
    total += v;
  }
  if (total <= 0.0) {
    // Numerically degenerate draw (possible only for tiny alpha): fall back
    // to a one-hot on a uniformly random coordinate, which is the correct
    // limiting distribution as alpha -> 0.
    out.assign(out.size(), 0.0);
    out[uniform_int(static_cast<uint64_t>(k))] = 1.0;
    return out;
  }
  for (auto& v : out) v /= total;
  return out;
}

std::vector<int> Rng::permutation(int n) {
  FCA_CHECK(n >= 0);
  std::vector<int> p(static_cast<size_t>(n));
  for (int i = 0; i < n; ++i) p[static_cast<size_t>(i)] = i;
  for (int i = n - 1; i > 0; --i) {
    const auto j = static_cast<int>(uniform_int(static_cast<uint64_t>(i) + 1));
    std::swap(p[static_cast<size_t>(i)], p[static_cast<size_t>(j)]);
  }
  return p;
}

std::vector<int> Rng::sample_without_replacement(int n, int count) {
  FCA_CHECK(0 <= count && count <= n);
  std::vector<int> p = permutation(n);
  p.resize(static_cast<size_t>(count));
  return p;
}

}  // namespace fca
