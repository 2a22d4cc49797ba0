// Deterministic random number generation.
//
// Every stochastic component of the simulator (data synthesis, partitioning,
// augmentation, weight init, client sampling, ...) draws from an
// fca::Rng obtained by *deriving a named stream* from a single experiment
// seed. Two runs with the same experiment seed therefore produce bit-identical
// results regardless of evaluation order, which is what makes the benches and
// tests reproducible.
//
//   Rng root(1234);
//   Rng init_stream = root.fork("init/client3");
//   float x = init_stream.normal(0.f, 1.f);
#pragma once

#include <cstdint>
#include <string_view>
#include <vector>

namespace fca {

/// Counter-based PRNG built on splitmix64 applied to (seed, counter).
/// Small state, cheap to fork, and statistically solid for simulation use.
class Rng {
 public:
  explicit Rng(uint64_t seed = 0x9e3779b97f4a7c15ull) : state_(seed) {}

  /// Derives an independent child stream from this stream and a label.
  /// Forking does not advance this stream.
  [[nodiscard]] Rng fork(std::string_view label) const;

  /// fork(label + std::to_string(index)) without building the string: the
  /// per-client stream family ("client-rng/" + k, "model-init/" + k, ...)
  /// derived allocation-free, bit-identical to the string form. Streams of
  /// distinct (label, index) pairs are pairwise independent, and derivation
  /// is a pure function of (parent state, label, index) — the order in which
  /// clients are scheduled can never change which stream each one gets.
  [[nodiscard]] Rng fork_indexed(std::string_view label,
                                 uint64_t index) const;

  /// The complete stream state. The counter-based design means a single
  /// 64-bit word captures everything: restore()-ing it reproduces the exact
  /// draw sequence from this point, which is what checkpoint/resume relies
  /// on for bit-identical replays.
  uint64_t state() const { return state_; }
  /// Rewinds/advances this stream to a state captured with state().
  void restore(uint64_t state) { state_ = state; }

  /// Next raw 64-bit value.
  uint64_t next_u64();

  /// Uniform in [0, 1).
  double uniform();
  /// Uniform in [lo, hi).
  double uniform(double lo, double hi);
  /// Uniform integer in [0, n). Requires n > 0.
  uint64_t uniform_int(uint64_t n);
  /// Standard normal via Box–Muller (no cached spare: keeps forks stateless).
  double normal();
  double normal(double mean, double stddev);
  /// Bernoulli(p).
  bool bernoulli(double p);

  /// Samples a probability vector from Dirichlet(alpha, ..., alpha) of
  /// dimension k using Gamma(alpha, 1) marginals (Marsaglia–Tsang).
  std::vector<double> dirichlet(double alpha, int k);

  /// Gamma(shape, 1) sample, shape > 0.
  double gamma(double shape);

  /// Uniformly random permutation of {0, ..., n-1} (Fisher–Yates).
  std::vector<int> permutation(int n);

  /// Samples `count` distinct indices from {0, ..., n-1} without replacement.
  std::vector<int> sample_without_replacement(int n, int count);

 private:
  uint64_t state_;
};

/// splitmix64 mixing function; exposed for hashing labels/seeds elsewhere.
uint64_t splitmix64(uint64_t x);

/// FNV-1a 64-bit hash of a string, used to derive stream labels.
uint64_t hash_label(std::string_view s);

}  // namespace fca
