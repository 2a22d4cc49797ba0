// Kernel-parity test tier (DESIGN.md §9).
//
// The packed register-tiled kernel is only allowed to ship because this
// suite pins it to the IEEE-faithful naive reference:
//   * a property-based randomized sweep over (m, n, k) — including the
//     degenerate 0/1 dims — trans_a/trans_b, leading dimensions larger than
//     minimal, and alpha/beta in {0, 1, -1, 0.5}, within a stated
//     forward-error tolerance: both kernels compute each output element as
//     a float sum of the same k+1 exactly-equal terms in different
//     association orders, so they can differ from each other by at most
//     2*(k+2)*eps*sum|terms| (to first order). The bound is computed per
//     element in double; anything beyond it is a real defect, not rounding;
//   * exact NaN/Inf propagation, which requires the reference itself to be
//     IEEE-faithful (no zero-skip — the historical sgemm_naive divergence);
//   * bit-exact rerun determinism of the packed kernel, serial vs pooled;
//   * workspace-arena reuse and aliasing behavior;
//   * the fused epilogue against its standalone two-pass equivalent;
//   * sgemm_rows, whose B operand is a list of row pointers, memcmp-equal
//     to sgemm_packed (and, forced naive, to sgemm_naive) on the same
//     operand stored with a stride.
//
// CI runs this binary once per FCA_GEMM_KERNEL value under ASan/UBSan.
#include "tensor/gemm.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <iterator>
#include <limits>
#include <sstream>
#include <string>
#include <vector>

#include "tensor/kernel.hpp"
#include "tensor/workspace.hpp"
#include "utils/rng.hpp"
#include "utils/threadpool.hpp"

namespace fca {
namespace {

constexpr double kFloatEps = 1.1920928955078125e-7;  // 2^-23

/// Element of op(X) at logical (row, col) for a row-major matrix with
/// leading dimension ld, mirroring the kernels' own indexing.
float op_at(const float* x, int64_t ld, bool trans, int64_t row, int64_t col) {
  return trans ? x[col * ld + row] : x[row * ld + col];
}

/// Asserts `test_c` matches `ref_c` for the GEMM defined by the remaining
/// arguments. NaN positions must agree exactly, infinities must be equal,
/// and finite values must sit within the reassociation forward-error bound
/// 2*(k+2)*eps*sum|terms| of each other (the two kernels sum the same k+1
/// terms — beta*c plus k products with alpha folded once into A — in
/// different orders; this is the textbook bound on how far two such sums
/// can drift apart, with a 2x safety factor baked in).
void expect_gemm_parity(int64_t m, int64_t n, int64_t k, float alpha,
                        const float* a, int64_t lda, bool ta, const float* b,
                        int64_t ldb, bool tb, float beta, const float* c_init,
                        const float* test_c, const float* ref_c, int64_t ldc,
                        const char* tag) {
  for (int64_t i = 0; i < m; ++i) {
    for (int64_t j = 0; j < n; ++j) {
      const size_t at = static_cast<size_t>(i * ldc + j);
      const float ref = ref_c[at];
      const float got = test_c[at];
      ASSERT_EQ(std::isnan(ref), std::isnan(got))
          << tag << ": NaN propagation diverged at (" << i << "," << j
          << "): got=" << got << " ref=" << ref;
      if (std::isnan(ref)) continue;
      if (std::isinf(ref)) {
        ASSERT_EQ(got, ref) << tag << " at (" << i << "," << j << ")";
        continue;
      }
      double mag = std::abs(static_cast<double>(beta) * c_init[at]);
      if (alpha != 0.0f) {
        for (int64_t p = 0; p < k; ++p) {
          // Same single rounding of alpha*a the kernels perform.
          const float av = alpha * op_at(a, lda, ta, i, p);
          mag += std::abs(static_cast<double>(av) * op_at(b, ldb, tb, p, j));
        }
      }
      const double bound =
          2.0 * static_cast<double>(k + 2) * kFloatEps * mag + 1e-35;
      ASSERT_LE(std::abs(static_cast<double>(got) - ref), bound)
          << tag << " at (" << i << "," << j << "): got=" << got
          << " ref=" << ref << " |terms|=" << mag;
    }
  }
}

std::vector<float> random_matrix(int64_t rows, int64_t cols, int64_t ld,
                                 Rng& rng) {
  std::vector<float> v(static_cast<size_t>(rows * ld));
  // Fill the padding too so an out-of-bounds read would corrupt results
  // rather than go unnoticed.
  for (auto& x : v) x = static_cast<float>(rng.uniform(-2.0, 2.0));
  (void)cols;
  return v;
}

struct SweepCase {
  int64_t m, n, k;
  bool ta, tb;
  int64_t ld_slack;
  float alpha, beta;
};

void run_parity_case(const SweepCase& sc, uint64_t seed) {
  Rng rng(seed);
  const int64_t a_rows = sc.ta ? sc.k : sc.m;
  const int64_t a_cols = sc.ta ? sc.m : sc.k;
  const int64_t b_rows = sc.tb ? sc.n : sc.k;
  const int64_t b_cols = sc.tb ? sc.k : sc.n;
  const int64_t lda = a_cols + sc.ld_slack;
  const int64_t ldb = b_cols + sc.ld_slack;
  const int64_t ldc = sc.n + sc.ld_slack;
  const std::vector<float> a = random_matrix(a_rows, a_cols, lda, rng);
  const std::vector<float> b = random_matrix(b_rows, b_cols, ldb, rng);
  std::vector<float> c_init(static_cast<size_t>(std::max<int64_t>(sc.m, 1) *
                                                ldc));
  for (auto& x : c_init) x = static_cast<float>(rng.uniform(-1.0, 1.0));

  std::vector<float> c_ref = c_init;
  std::vector<float> c_packed = c_init;
  sgemm_naive(sc.ta, sc.tb, sc.m, sc.n, sc.k, sc.alpha,
              a.empty() ? c_init.data() : a.data(), lda,
              b.empty() ? c_init.data() : b.data(), ldb, sc.beta,
              c_ref.data(), ldc);
  sgemm_packed(sc.ta, sc.tb, sc.m, sc.n, sc.k, sc.alpha,
               a.empty() ? c_init.data() : a.data(), lda,
               b.empty() ? c_init.data() : b.data(), ldb, sc.beta,
               c_packed.data(), ldc);

  char tag[128];
  std::snprintf(tag, sizeof(tag),
                "m=%lld n=%lld k=%lld ta=%d tb=%d slack=%lld a=%g b=%g",
                static_cast<long long>(sc.m), static_cast<long long>(sc.n),
                static_cast<long long>(sc.k), sc.ta ? 1 : 0, sc.tb ? 1 : 0,
                static_cast<long long>(sc.ld_slack),
                static_cast<double>(sc.alpha), static_cast<double>(sc.beta));
  expect_gemm_parity(sc.m, sc.n, sc.k, sc.alpha,
                     a.empty() ? c_init.data() : a.data(), lda, sc.ta,
                     b.empty() ? c_init.data() : b.data(), ldb, sc.tb,
                     sc.beta, c_init.data(), c_packed.data(), c_ref.data(),
                     ldc, tag);
  if (::testing::Test::HasFatalFailure()) return;
  // Padding beyond column n must be untouched by both kernels.
  for (int64_t i = 0; i < sc.m; ++i) {
    for (int64_t j = sc.n; j < ldc; ++j) {
      const size_t at = static_cast<size_t>(i * ldc + j);
      ASSERT_EQ(c_packed[at], c_init[at]) << "ld padding clobbered";
      ASSERT_EQ(c_ref[at], c_init[at]) << "reference clobbered padding";
    }
  }
}

TEST(KernelParity, RandomizedSweepMatchesNaiveWithinUlps) {
  const int64_t dims[] = {0, 1, 2, 3, 5, 7, 8, 13, 17, 31, 33, 48, 64, 97};
  const float alphas[] = {0.0f, 1.0f, -1.0f, 0.5f};
  const float betas[] = {0.0f, 1.0f, -1.0f, 0.5f};
  Rng pick(20240807);
  // 400 random draws from the cross product keeps the sweep dense but the
  // runtime well under a second.
  for (int iter = 0; iter < 400; ++iter) {
    SweepCase sc;
    sc.m = dims[pick.uniform_int(std::size(dims))];
    sc.n = dims[pick.uniform_int(std::size(dims))];
    sc.k = dims[pick.uniform_int(std::size(dims))];
    sc.ta = pick.uniform_int(2) == 1;
    sc.tb = pick.uniform_int(2) == 1;
    sc.ld_slack = static_cast<int64_t>(pick.uniform_int(2)) * 3;
    sc.alpha = alphas[pick.uniform_int(std::size(alphas))];
    sc.beta = betas[pick.uniform_int(std::size(betas))];
    run_parity_case(sc, 1000 + static_cast<uint64_t>(iter));
    if (::testing::Test::HasFatalFailure()) return;
  }
}

TEST(KernelParity, TileBoundaryShapesExactSweep) {
  // Deliberate hits on the micro-tile edges (MR=6, NR=8, and one past).
  for (int64_t m : {5, 6, 7, 12, 13}) {
    for (int64_t n : {7, 8, 9, 16, 17}) {
      for (int64_t k : {1, 4, 129}) {
        run_parity_case({m, n, k, false, false, 0, 1.0f, 0.5f},
                        static_cast<uint64_t>(m * 10000 + n * 100 + k));
        if (::testing::Test::HasFatalFailure()) return;
      }
    }
  }
}

// ---------------------------------------------------------------------------
// IEEE faithfulness of the reference (the historical sgemm_naive zero-skip
// dropped NaN/Inf from B) and propagation parity of every kernel.

TEST(KernelParity, NaiveReferencePropagatesNanThroughZeroRows) {
  // Row 0 of A is all zeros; column 1 of B holds a NaN. 0 * NaN must be NaN
  // and poison c(0, 1) — the old zero-skip returned 0 there instead.
  const float qnan = std::numeric_limits<float>::quiet_NaN();
  std::vector<float> a{0.0f, 0.0f, 1.0f, 2.0f};  // 2x2
  std::vector<float> b{1.0f, qnan, 3.0f, 4.0f};  // 2x2
  std::vector<float> c(4, 0.0f);
  sgemm_naive(false, false, 2, 2, 2, 1.0f, a.data(), 2, b.data(), 2, 0.0f,
              c.data(), 2);
  EXPECT_FLOAT_EQ(c[0], 1.0f * 0.0f + 0.0f * 3.0f);
  EXPECT_TRUE(std::isnan(c[1])) << "0 * NaN must poison the dot product";
  EXPECT_TRUE(std::isnan(c[3]));
}

TEST(KernelParity, InfinityTimesZeroIsNanInEveryKernel) {
  const float inf = std::numeric_limits<float>::infinity();
  std::vector<float> a{0.0f, 1.0f};             // 1x2
  std::vector<float> b{inf, 2.0f, 5.0f, 6.0f};  // 2x2, b(0,0)=inf
  auto run = [&](GemmKernel kern) {
    ScopedGemmKernel guard(kern);
    std::vector<float> c(2, 0.0f);
    sgemm(false, false, 1, 2, 2, 1.0f, a.data(), 2, b.data(), 2, 0.0f,
          c.data(), 2);
    return c;
  };
  for (GemmKernel kern :
       {GemmKernel::kNaive, GemmKernel::kPacked}) {
    const std::vector<float> c = run(kern);
    EXPECT_TRUE(std::isnan(c[0]))
        << gemm_kernel_name(kern) << ": 0 * inf must be NaN";
    EXPECT_FLOAT_EQ(c[1], 0.0f * 2.0f + 1.0f * 6.0f);
  }
}

TEST(KernelParity, NonFiniteInputsAgreeAcrossKernels) {
  const float qnan = std::numeric_limits<float>::quiet_NaN();
  const float inf = std::numeric_limits<float>::infinity();
  Rng rng(7);
  const int64_t m = 9, n = 11, k = 13;
  std::vector<float> a = random_matrix(m, k, k, rng);
  std::vector<float> b = random_matrix(k, n, n, rng);
  a[5] = qnan;
  a[17] = 0.0f;
  b[3] = inf;
  b[29] = -inf;
  const std::vector<float> init(static_cast<size_t>(m * n), 0.5f);
  std::vector<float> ref = init;
  std::vector<float> packed = init;
  sgemm_naive(false, false, m, n, k, 1.0f, a.data(), k, b.data(), n, 1.0f,
              ref.data(), n);
  sgemm_packed(false, false, m, n, k, 1.0f, a.data(), k, b.data(), n, 1.0f,
               packed.data(), n);
  expect_gemm_parity(m, n, k, 1.0f, a.data(), k, false, b.data(), n, false,
                     1.0f, init.data(), packed.data(), ref.data(), n,
                     "non-finite");
}

// ---------------------------------------------------------------------------
// Determinism: reruns and thread-count independence must be bit-exact.

TEST(KernelParity, PackedKernelRerunIsBitIdentical) {
  Rng rng(42);
  const int64_t m = 61, n = 67, k = 129;
  const std::vector<float> a = random_matrix(m, k, k, rng);
  const std::vector<float> b = random_matrix(k, n, n, rng);
  std::vector<float> c1(static_cast<size_t>(m * n), 0.0f);
  std::vector<float> c2 = c1;
  sgemm_packed(false, false, m, n, k, 1.0f, a.data(), k, b.data(), n, 0.0f,
               c1.data(), n);
  sgemm_packed(false, false, m, n, k, 1.0f, a.data(), k, b.data(), n, 0.0f,
               c2.data(), n);
  EXPECT_EQ(0, std::memcmp(c1.data(), c2.data(), c1.size() * sizeof(float)));
}

TEST(KernelParity, PackedKernelSerialAndPooledRunsAreBitIdentical) {
  // m > MC so the row-block loop actually splits. A SerialRegion forces the
  // same call to degrade to the caller's thread; the bits must not move.
  Rng rng(43);
  const int64_t m = 3 * 96 + 17, n = 40, k = 70;
  const std::vector<float> a = random_matrix(m, k, k, rng);
  const std::vector<float> b = random_matrix(k, n, n, rng);
  std::vector<float> pooled(static_cast<size_t>(m * n), 0.0f);
  std::vector<float> serial = pooled;
  sgemm_packed(false, false, m, n, k, 1.0f, a.data(), k, b.data(), n, 0.0f,
               pooled.data(), n);
  {
    ThreadPool::SerialRegion no_threads;
    sgemm_packed(false, false, m, n, k, 1.0f, a.data(), k, b.data(), n, 0.0f,
                 serial.data(), n);
  }
  EXPECT_EQ(0, std::memcmp(pooled.data(), serial.data(),
                           pooled.size() * sizeof(float)));
}

// ---------------------------------------------------------------------------
// Workspace arena: reuse, nesting, and aliasing.

TEST(WorkspaceArena, SteadyStateCallsDoNotGrowTheArena) {
  Workspace& ws = Workspace::tls();
  Rng rng(3);
  const int64_t m = 50, n = 60, k = 70;
  const std::vector<float> a = random_matrix(m, k, k, rng);
  const std::vector<float> b = random_matrix(k, n, n, rng);
  std::vector<float> c(static_cast<size_t>(m * n), 0.0f);
  ThreadPool::SerialRegion on_this_thread;  // keep all packing on this arena
  sgemm_packed(false, false, m, n, k, 1.0f, a.data(), k, b.data(), n, 0.0f,
               c.data(), n);
  const uint64_t chunks_after_warmup = ws.chunks_created();
  const size_t capacity_after_warmup = ws.capacity_floats();
  for (int rep = 0; rep < 10; ++rep) {
    sgemm_packed(false, false, m, n, k, 1.0f, a.data(), k, b.data(), n, 0.0f,
                 c.data(), n);
  }
  EXPECT_EQ(ws.chunks_created(), chunks_after_warmup)
      << "repeat calls of the same shape must not allocate";
  EXPECT_EQ(ws.capacity_floats(), capacity_after_warmup);
}

TEST(WorkspaceArena, NestedFramesGetDisjointMemoryAndRewindReuses) {
  Workspace& ws = Workspace::tls();
  float* outer_p = nullptr;
  float* inner_p = nullptr;
  {
    Workspace::Frame outer(ws);
    outer_p = outer.alloc(100);
    outer_p[0] = 1.0f;
    outer_p[99] = 2.0f;
    {
      Workspace::Frame inner(ws);
      inner_p = inner.alloc(100);
      // Nested allocation must not alias the live outer buffer.
      EXPECT_TRUE(inner_p >= outer_p + 100 || inner_p + 100 <= outer_p);
      std::fill_n(inner_p, 100, -7.0f);
    }
    EXPECT_EQ(outer_p[0], 1.0f) << "inner frame clobbered its parent";
    EXPECT_EQ(outer_p[99], 2.0f);
    // After the inner frame rewound, the next allocation reuses its spot.
    Workspace::Frame again(ws);
    EXPECT_EQ(again.alloc(100), inner_p) << "rewind must reuse memory";
  }
  // A fresh top-level frame reuses the outer buffer too.
  Workspace::Frame top(ws);
  EXPECT_EQ(top.alloc(100), outer_p);
}

TEST(WorkspaceArena, GrowthInsideANestedFrameKeepsParentPointersValid) {
  Workspace& ws = Workspace::tls();
  Workspace::Frame outer(ws);
  float* small = outer.alloc(64);
  small[0] = 42.0f;
  {
    Workspace::Frame inner(ws);
    // Oversized request forces a fresh chunk; the parent's pointer must
    // survive (chunks are stable, never reallocated).
    float* big = inner.alloc(1 << 22);
    big[0] = 1.0f;
    big[(1 << 22) - 1] = 2.0f;
    EXPECT_EQ(small[0], 42.0f);
  }
  EXPECT_EQ(small[0], 42.0f);
}

TEST(WorkspaceArena, GemmOutputInArenaDoesNotAliasPackingBuffers) {
  // Conv2d::backward writes GEMM output into an arena buffer (dcol) while
  // sgemm_packed packs A/B into nested frames of the same arena: the output
  // must come out exactly as when C lives on the regular heap.
  Workspace& ws = Workspace::tls();
  Rng rng(11);
  const int64_t m = 30, n = 35, k = 40;
  const std::vector<float> a = random_matrix(m, k, k, rng);
  const std::vector<float> b = random_matrix(k, n, n, rng);
  std::vector<float> heap_c(static_cast<size_t>(m * n), 0.0f);
  ThreadPool::SerialRegion on_this_thread;
  sgemm_packed(false, false, m, n, k, 1.0f, a.data(), k, b.data(), n, 0.0f,
               heap_c.data(), n);
  Workspace::Frame frame(ws);
  float* arena_c = frame.alloc(m * n);
  std::fill_n(arena_c, m * n, 0.0f);
  sgemm_packed(false, false, m, n, k, 1.0f, a.data(), k, b.data(), n, 0.0f,
               arena_c, n);
  EXPECT_EQ(0, std::memcmp(arena_c, heap_c.data(),
                           heap_c.size() * sizeof(float)));
}

// ---------------------------------------------------------------------------
// Fused epilogue: bit-equal to the two-pass formulation, on every path.

class EpilogueParity
    : public ::testing::TestWithParam<std::tuple<int, int, GemmKernel>> {};

TEST_P(EpilogueParity, FusedMatchesSeparatePassBitExactly) {
  const auto [bias_mode, act_mode, kern] = GetParam();
  Rng rng(97);
  const int64_t m = 14, n = 19, k = 23;
  const std::vector<float> a = random_matrix(m, k, k, rng);
  const std::vector<float> b = random_matrix(k, n, n, rng);
  const std::vector<float> bias =
      random_matrix(1, std::max(m, n), std::max(m, n), rng);

  GemmEpilogue epi;
  epi.bias_kind = static_cast<GemmEpilogue::Bias>(bias_mode);
  epi.act = static_cast<GemmEpilogue::Act>(act_mode);
  if (epi.bias_kind != GemmEpilogue::Bias::kNone) epi.bias = bias.data();

  ScopedGemmKernel guard(kern);
  std::vector<float> fused(static_cast<size_t>(m * n), 0.25f);
  std::vector<float> two_pass = fused;
  sgemm_ex(false, false, m, n, k, 1.0f, a.data(), k, b.data(), n, 1.0f,
           fused.data(), n, epi);
  sgemm(false, false, m, n, k, 1.0f, a.data(), k, b.data(), n, 1.0f,
        two_pass.data(), n);
  apply_gemm_epilogue(m, n, two_pass.data(), n, epi);
  EXPECT_EQ(0, std::memcmp(fused.data(), two_pass.data(),
                           fused.size() * sizeof(float)))
      << "bias_kind=" << bias_mode << " act=" << act_mode << " kernel="
      << gemm_kernel_name(kern);
}

INSTANTIATE_TEST_SUITE_P(
    AllCombos, EpilogueParity,
    ::testing::Combine(::testing::Values(0, 1, 2),  // kNone/kPerRow/kPerCol
                       ::testing::Values(0, 1),     // kNone/kReLU
                       ::testing::Values(GemmKernel::kNaive,
                                         GemmKernel::kPacked)));

TEST(EpilogueParity, ReluEpilogueZeroesNanDeterministically) {
  // The stated semantics: ReLU maps NaN to 0 (the !(v > 0) formulation), so
  // fused and two-pass agree even on poisoned products. A NaN in row 0 of A
  // poisons the whole output row (NaN * 0 is NaN), so row 0 becomes zeros
  // while the clean row 1 passes through.
  const float qnan = std::numeric_limits<float>::quiet_NaN();
  std::vector<float> a{qnan, 1.0f, 2.0f, 3.0f};  // 2x2
  std::vector<float> b{1.0f, 0.0f, 0.0f, 1.0f};  // identity
  GemmEpilogue epi;
  epi.act = GemmEpilogue::Act::kReLU;
  std::vector<float> c(4, -1.0f);
  sgemm_packed(false, false, 2, 2, 2, 1.0f, a.data(), 2, b.data(), 2, 0.0f,
               c.data(), 2, epi);
  EXPECT_EQ(c[0], 0.0f);
  EXPECT_EQ(c[1], 0.0f);
  EXPECT_EQ(c[2], 2.0f);
  EXPECT_EQ(c[3], 3.0f);
}

// ---------------------------------------------------------------------------
// Dispatch plumbing.

TEST(KernelDispatch, NamesRoundTripAndEnvOverrideParses) {
  for (GemmKernel k :
       {GemmKernel::kAuto, GemmKernel::kNaive, GemmKernel::kPacked}) {
    GemmKernel parsed;
    ASSERT_TRUE(parse_gemm_kernel(gemm_kernel_name(k), &parsed));
    EXPECT_EQ(parsed, k);
  }
  GemmKernel unused = GemmKernel::kAuto;
  EXPECT_FALSE(parse_gemm_kernel("simd4life", &unused));
  EXPECT_FALSE(parse_gemm_kernel("blocked", &unused));
  EXPECT_EQ(unused, GemmKernel::kAuto);
}

TEST(KernelDispatch, AutoResolvesToPackedAndScopedGuardRestores) {
  const GemmKernel before = gemm_kernel();
  {
    ScopedGemmKernel guard(GemmKernel::kNaive);
    EXPECT_EQ(gemm_kernel(), GemmKernel::kNaive);
    EXPECT_EQ(resolved_gemm_kernel(), GemmKernel::kNaive);
  }
  EXPECT_EQ(gemm_kernel(), before);
  EXPECT_NE(resolved_gemm_kernel(), GemmKernel::kAuto);
}

// ---------------------------------------------------------------------------
// Backward parity tier: the transposed-operand shapes the training backward
// pass actually issues. dgrad is sgemm(true, false, col_rows, col_cols, ocg)
// — trans_a with a small k that lands on the rank-k row-update path — and
// wgrad is sgemm(false, true, ocg, col_rows, col_cols) — trans_b with a small
// m that lands on the narrow-C streaming paths, including the paired-depth
// 8-wide kernel and its odd-k tail. Each sweep below pins one packed-path
// family to the naive oracle under the same 2(k+2)eps bound as the forward
// tier; the bound is order-agnostic, so it holds for the pair-k even/odd
// fold as well (fixed per-element order, same multiset of terms).

TEST(BackwardParity, DgradTransposedAShapesMatchNaive) {
  // trans_a, !trans_b. k <= 16 exercises the small-k rank-update (including
  // its beta folding); k > 16 the general packed path with a transposed A
  // pack. m spans micro-tile tails, n spans full/half panels.
  const float betas[] = {0.0f, 1.0f, 0.5f};
  int case_ix = 0;
  for (int64_t k : {1, 2, 3, 4, 5, 8, 15, 16, 17, 32}) {
    for (int64_t m : {1, 6, 7, 72, 75}) {
      for (int64_t n : {8, 24, 72}) {
        const float beta = betas[case_ix % 3];
        const int64_t slack = (case_ix % 2) * 3;
        ++case_ix;
        run_parity_case({m, n, k, true, false, slack, 1.0f, beta},
                        static_cast<uint64_t>(5000 + case_ix));
        if (::testing::Test::HasFatalFailure()) return;
      }
    }
  }
  // The exact conv dgrad shapes from the paper models (col_rows, col_cols,
  // ocg): resnet 3x3 stem, cnn2 conv1 5x5, cnn2 conv2 5x5.
  run_parity_case({72, 1024, 8, true, false, 0, 1.0f, 0.0f}, 6001);
  if (::testing::Test::HasFatalFailure()) return;
  run_parity_case({75, 256, 16, true, false, 0, 1.0f, 0.0f}, 6002);
  if (::testing::Test::HasFatalFailure()) return;
  run_parity_case({400, 256, 32, true, false, 0, 1.0f, 0.0f}, 6003);
}

TEST(BackwardParity, WgradTransposedBShapesMatchNaive) {
  // !trans_a, trans_b. m <= 8 takes the narrow-m streaming path's 8-wide
  // paired-depth kernel (odd k runs its scalar tail), 8 < m <= 16 its
  // 16-wide block, m > 16 the general path with a transposed B pack (n
  // values 9..24 cover full and half-width tail panels there).
  const float betas[] = {1.0f, 0.0f, 0.5f};  // conv wgrad accumulates (beta=1)
  int case_ix = 0;
  for (int64_t m : {1, 3, 8, 9, 12, 16, 17}) {
    for (int64_t n : {9, 24, 72}) {
      for (int64_t k : {1, 2, 3, 7, 8, 16, 17, 63, 64, 129}) {
        const float beta = betas[case_ix % 3];
        const int64_t slack = (case_ix % 2) * 3;
        ++case_ix;
        run_parity_case({m, n, k, false, true, slack, 1.0f, beta},
                        static_cast<uint64_t>(7000 + case_ix));
        if (::testing::Test::HasFatalFailure()) return;
      }
    }
  }
  // Exact conv wgrad shapes (ocg, col_rows, col_cols), beta=1 as issued.
  run_parity_case({8, 72, 1024, false, true, 0, 1.0f, 1.0f}, 8001);
  if (::testing::Test::HasFatalFailure()) return;
  run_parity_case({32, 400, 256, false, true, 0, 1.0f, 1.0f}, 8002);
}

TEST(BackwardParity, SmallNStreamingPathsMatchNaive) {
  // n <= 16 with trans_b is the narrow-C streaming path. !trans_a streams a
  // depth-contiguous operand (paired-depth kernel for n <= 8); trans_a is
  // the strided-depth variant. Linear::backward's input-grad GEMM for small
  // feature dims lands here.
  int case_ix = 0;
  for (int64_t n : {1, 4, 7, 8, 9, 16}) {
    for (bool ta : {false, true}) {
      for (int64_t m : {6, 12, 13, 61}) {
        for (int64_t k : {7, 8, 17, 129}) {
          const int64_t slack = (case_ix % 2) * 3;
          ++case_ix;
          run_parity_case({m, n, k, ta, true, slack, 1.0f, 0.5f},
                          static_cast<uint64_t>(9000 + case_ix));
          if (::testing::Test::HasFatalFailure()) return;
        }
      }
    }
  }
}

TEST(BackwardParity, RandomizedTransposedSweep) {
  // Adversarial random draws restricted to the transposed-operand quadrants
  // (the forward tier's sweep already covers (false,false) densely).
  const int64_t dims[] = {1, 2, 3, 5, 7, 8, 9, 13, 16, 17, 31, 33, 48, 97};
  const float alphas[] = {1.0f, -1.0f, 0.5f};
  const float betas[] = {0.0f, 1.0f, -1.0f, 0.5f};
  const bool combos[][2] = {{true, false}, {false, true}, {true, true}};
  Rng pick(20250809);
  for (int iter = 0; iter < 300; ++iter) {
    SweepCase sc;
    sc.m = dims[pick.uniform_int(std::size(dims))];
    sc.n = dims[pick.uniform_int(std::size(dims))];
    sc.k = dims[pick.uniform_int(std::size(dims))];
    const auto& combo = combos[pick.uniform_int(std::size(combos))];
    sc.ta = combo[0];
    sc.tb = combo[1];
    sc.ld_slack = static_cast<int64_t>(pick.uniform_int(2)) * 3;
    sc.alpha = alphas[pick.uniform_int(std::size(alphas))];
    sc.beta = betas[pick.uniform_int(std::size(betas))];
    run_parity_case(sc, 30000 + static_cast<uint64_t>(iter));
    if (::testing::Test::HasFatalFailure()) return;
  }
}

TEST(BackwardParity, NonFiniteInputsAgreeOnTransposedPaths) {
  const float qnan = std::numeric_limits<float>::quiet_NaN();
  const float inf = std::numeric_limits<float>::infinity();
  struct Shape {
    int64_t m, n, k;
    bool ta, tb;
  };
  // One representative per backward path family: small-k rank-update,
  // paired-depth wgrad (odd k), 16-wide narrow-m, strided-depth narrow-n,
  // general both-transposed.
  const Shape shapes[] = {{72, 64, 8, true, false},
                          {8, 72, 129, false, true},
                          {12, 72, 64, false, true},
                          {61, 8, 129, true, true},
                          {33, 47, 65, true, true}};
  int ix = 0;
  for (const Shape& s : shapes) {
    Rng rng(static_cast<uint64_t>(100 + ix++));
    const int64_t a_rows = s.ta ? s.k : s.m;
    const int64_t a_cols = s.ta ? s.m : s.k;
    const int64_t b_rows = s.tb ? s.n : s.k;
    const int64_t b_cols = s.tb ? s.k : s.n;
    std::vector<float> a = random_matrix(a_rows, a_cols, a_cols, rng);
    std::vector<float> b = random_matrix(b_rows, b_cols, b_cols, rng);
    a[a.size() / 3] = qnan;
    a[a.size() / 2] = 0.0f;
    b[b.size() / 4] = inf;
    b[b.size() / 2] = -inf;
    const std::vector<float> init(static_cast<size_t>(s.m * s.n), 0.5f);
    std::vector<float> ref = init;
    std::vector<float> packed = init;
    sgemm_naive(s.ta, s.tb, s.m, s.n, s.k, 1.0f, a.data(), a_cols, b.data(),
                b_cols, 1.0f, ref.data(), s.n);
    sgemm_packed(s.ta, s.tb, s.m, s.n, s.k, 1.0f, a.data(), a_cols, b.data(),
                 b_cols, 1.0f, packed.data(), s.n);
    char tag[64];
    std::snprintf(tag, sizeof(tag), "non-finite ta=%d tb=%d m=%lld n=%lld",
                  s.ta ? 1 : 0, s.tb ? 1 : 0, static_cast<long long>(s.m),
                  static_cast<long long>(s.n));
    expect_gemm_parity(s.m, s.n, s.k, 1.0f, a.data(), a_cols, s.ta, b.data(),
                       b_cols, s.tb, 1.0f, init.data(), packed.data(),
                       ref.data(), s.n, tag);
    if (::testing::Test::HasFatalFailure()) return;
  }
}

TEST(BackwardParity, TransposedPathsRerunAndSerialRunsAreBitIdentical) {
  // Per-path determinism: the same call twice, and once inside a
  // SerialRegion, must agree to the bit. Covers the small-k rank-update,
  // both paired-depth kernels (even and odd k), the 16-wide narrow-m block,
  // the strided-depth narrow-n block, and the general transposed pack.
  struct Shape {
    int64_t m, n, k;
    bool ta, tb;
  };
  const Shape shapes[] = {{72, 64, 8, true, false},   // small-k rank-update
                          {8, 72, 128, false, true},  // pair-k, even k
                          {8, 72, 129, false, true},  // pair-k, odd-k tail
                          {12, 72, 64, false, true},  // narrow-m 16-wide
                          {61, 8, 129, true, true},   // narrow-n strided
                          {61, 8, 129, false, true},  // narrow-n pair-k
                          {311, 67, 129, true, true}};  // general, row split
  int ix = 0;
  for (const Shape& s : shapes) {
    Rng rng(static_cast<uint64_t>(500 + ix++));
    const int64_t lda = s.ta ? s.m : s.k;
    const int64_t ldb = s.tb ? s.k : s.n;
    const std::vector<float> a =
        random_matrix(s.ta ? s.k : s.m, lda, lda, rng);
    const std::vector<float> b =
        random_matrix(s.tb ? s.n : s.k, ldb, ldb, rng);
    std::vector<float> c1(static_cast<size_t>(s.m * s.n), 0.25f);
    std::vector<float> c2 = c1;
    std::vector<float> c3 = c1;
    sgemm_packed(s.ta, s.tb, s.m, s.n, s.k, 1.0f, a.data(), lda, b.data(),
                 ldb, 1.0f, c1.data(), s.n);
    sgemm_packed(s.ta, s.tb, s.m, s.n, s.k, 1.0f, a.data(), lda, b.data(),
                 ldb, 1.0f, c2.data(), s.n);
    {
      ThreadPool::SerialRegion no_threads;
      sgemm_packed(s.ta, s.tb, s.m, s.n, s.k, 1.0f, a.data(), lda, b.data(),
                   ldb, 1.0f, c3.data(), s.n);
    }
    EXPECT_EQ(0, std::memcmp(c1.data(), c2.data(), c1.size() * sizeof(float)))
        << "rerun drifted for ta=" << s.ta << " tb=" << s.tb << " m=" << s.m
        << " n=" << s.n << " k=" << s.k;
    EXPECT_EQ(0, std::memcmp(c1.data(), c3.data(), c1.size() * sizeof(float)))
        << "serial drifted for ta=" << s.ta << " tb=" << s.tb << " m=" << s.m
        << " n=" << s.n << " k=" << s.k;
  }
}

// ---------------------------------------------------------------------------
// Transposed dot products: a transposed call with a 1x1 result skips the
// panels and runs sgemm_naive's own loop inside sgemm_packed, so the two
// must agree to the byte — epilogue included — at every depth and scale.

TEST(KernelDispatch, TransposedDotProductMatchesNaiveBytes) {
  ScopedGemmKernel guard(GemmKernel::kPacked);
  Rng rng(77);
  const float bias = -0.25f;
  for (const bool trans_a : {true, false}) {
    const bool trans_b = !trans_a;
    for (const int64_t k : {1, 7, 33, 300}) {
      // The transposed operand is read down a strided column (ld 3); the
      // other one is a contiguous row.
      const int64_t lda = trans_a ? 3 : k;
      const int64_t ldb = trans_b ? k : 3;
      const std::vector<float> a =
          trans_a ? random_matrix(k, 1, lda, rng) : random_matrix(1, k, k, rng);
      const std::vector<float> b =
          trans_b ? random_matrix(1, k, k, rng) : random_matrix(k, 1, ldb, rng);
      for (const float beta : {0.0f, 1.0f, 0.5f}) {
        for (const float alpha : {1.0f, -0.75f}) {
          for (int bias_mode = 0; bias_mode < 3; ++bias_mode) {
            for (int act_mode = 0; act_mode < 2; ++act_mode) {
              GemmEpilogue epi;
              epi.bias_kind = static_cast<GemmEpilogue::Bias>(bias_mode);
              if (bias_mode != 0) epi.bias = &bias;
              if (act_mode == 1) epi.act = GemmEpilogue::Act::kReLU;
              float packed = 0.375f;
              float ref = 0.375f;
              sgemm_ex(trans_a, trans_b, 1, 1, k, alpha, a.data(), lda,
                       b.data(), ldb, beta, &packed, 1, epi);
              sgemm_naive(trans_a, trans_b, 1, 1, k, alpha, a.data(), lda,
                          b.data(), ldb, beta, &ref, 1);
              apply_gemm_epilogue(1, 1, &ref, 1, epi);
              EXPECT_EQ(0, std::memcmp(&packed, &ref, sizeof(float)))
                  << "ta=" << trans_a << " k=" << k << " beta=" << beta
                  << " alpha=" << alpha << " bias=" << bias_mode
                  << " act=" << act_mode << ": " << packed << " vs " << ref;
            }
          }
        }
      }
    }
  }
}

TEST(KernelDispatch, EveryKernelAgreesThroughTheDispatcher) {
  Rng rng(5);
  const int64_t m = 33, n = 47, k = 65;
  const std::vector<float> a = random_matrix(m, k, k, rng);
  const std::vector<float> b = random_matrix(k, n, n, rng);
  const std::vector<float> init(static_cast<size_t>(m * n), 1.0f);
  std::vector<float> ref = init;
  sgemm_naive(false, false, m, n, k, 0.5f, a.data(), k, b.data(), n, -1.0f,
              ref.data(), n);
  for (GemmKernel kern :
       {GemmKernel::kNaive, GemmKernel::kPacked}) {
    ScopedGemmKernel guard(kern);
    std::vector<float> c = init;
    sgemm(false, false, m, n, k, 0.5f, a.data(), k, b.data(), n, -1.0f,
          c.data(), n);
    expect_gemm_parity(m, n, k, 0.5f, a.data(), k, false, b.data(), n, false,
                       -1.0f, init.data(), c.data(), ref.data(), n,
                       gemm_kernel_name(kern));
    if (::testing::Test::HasFatalFailure()) return;
  }
}

// ---------------------------------------------------------------------------
// Row operands: sgemm_rows reads B through row pointers — windows into one
// buffer that may overlap, as Conv2d's phase-plane windows do — and must give
// the bytes the selected kernel gives for the same rows copied into a
// strided matrix.

/// A B operand as `rows` windows of `len` floats into one buffer, and the
/// same rows copied into a strided matrix with leading dimension ldb. The
/// buffer ends where the last window ends, so reading past a row's `len`
/// floats leaves it (ASan reports the read).
struct RowOperand {
  std::vector<float> buf;
  std::vector<const float*> ptrs;
  std::vector<float> strided;
  int64_t ldb = 0;
};

RowOperand row_operand(int64_t rows, int64_t len, int64_t step,
                       int64_t slack, Rng& rng) {
  RowOperand op;
  op.buf.resize(static_cast<size_t>((rows - 1) * step + len));
  for (auto& x : op.buf) x = static_cast<float>(rng.uniform(-2.0, 2.0));
  op.ldb = len + slack;
  op.strided.assign(static_cast<size_t>(rows * op.ldb), 7.0f);
  for (int64_t r = 0; r < rows; ++r) {
    op.ptrs.push_back(op.buf.data() + r * step);
    std::memcpy(op.strided.data() + r * op.ldb, op.ptrs.back(),
                static_cast<size_t>(len) * sizeof(float));
  }
  return op;
}

struct RowsCase {
  int64_t m, n, k;
  bool ta, tb;
  float beta;
  int bias_mode, act_mode;  // GemmEpilogue::Bias and Act as ints
  int64_t step;             // window step; < row length overlaps
  float alpha = 1.0f;       // Conv2d passes 1
};

std::string describe(const RowsCase& rc) {
  std::ostringstream os;
  os << "m=" << rc.m << " n=" << rc.n << " k=" << rc.k << " ta=" << rc.ta
     << " tb=" << rc.tb << " beta=" << rc.beta << " bias=" << rc.bias_mode
     << " act=" << rc.act_mode << " step=" << rc.step
     << " alpha=" << rc.alpha;
  return os.str();
}

/// Byte equality, except that two NaNs of different payloads also agree:
/// which NaN operand an instruction propagates depends on operand order.
bool same_bits_or_both_nan(const std::vector<float>& x,
                           const std::vector<float>& y) {
  if (x.size() != y.size()) return false;
  for (size_t i = 0; i < x.size(); ++i) {
    if (std::isnan(x[i]) && std::isnan(y[i])) continue;
    if (std::memcmp(&x[i], &y[i], sizeof(float)) != 0) return false;
  }
  return true;
}

/// Runs `rc` through sgemm_rows and through its strided oracle under the
/// packed kernel, then under the naive one; with `poison` the operands
/// carry NaN and infinities.
void run_rows_case(const RowsCase& rc, uint64_t seed, bool poison = false) {
  Rng rng(seed);
  const int64_t rows = rc.tb ? rc.n : rc.k;
  const int64_t len = rc.tb ? rc.k : rc.n;
  RowOperand b = row_operand(rows, len, rc.step, /*slack=*/rows % 3, rng);
  const int64_t lda = (rc.ta ? rc.m : rc.k) + 2;
  std::vector<float> a = random_matrix(rc.ta ? rc.k : rc.m, 0, lda, rng);
  std::vector<float> bias(static_cast<size_t>(std::max(rc.m, rc.n)));
  for (auto& x : bias) x = static_cast<float>(rng.uniform(-1.0, 1.0));
  const int64_t ldc = rc.n + 1;
  std::vector<float> c_init(static_cast<size_t>(rc.m * ldc));
  for (auto& x : c_init) x = static_cast<float>(rng.uniform(-1.0, 1.0));
  if (poison) {
    const float qnan = std::numeric_limits<float>::quiet_NaN();
    const float inf = std::numeric_limits<float>::infinity();
    a[a.size() / 3] = qnan;
    a[a.size() / 2] = 0.0f;
    b.buf[b.buf.size() / 4] = inf;
    b.buf[b.buf.size() / 2] = -inf;
    for (int64_t r = 0; r < rows; ++r) {
      std::memcpy(b.strided.data() + r * b.ldb, b.ptrs[r],
                  static_cast<size_t>(len) * sizeof(float));
    }
  }
  GemmEpilogue epi;
  epi.bias_kind = static_cast<GemmEpilogue::Bias>(rc.bias_mode);
  if (rc.bias_mode != 0) epi.bias = bias.data();
  if (rc.act_mode != 0) epi.act = GemmEpilogue::Act::kReLU;
  const auto equal = [&](const std::vector<float>& x,
                         const std::vector<float>& y) {
    return poison ? same_bits_or_both_nan(x, y)
                  : std::memcmp(x.data(), y.data(),
                                x.size() * sizeof(float)) == 0;
  };
  {
    const ScopedGemmKernel packed(GemmKernel::kPacked);
    std::vector<float> got = c_init, ref = c_init;
    sgemm_rows(rc.ta, rc.tb, rc.m, rc.n, rc.k, rc.alpha, a.data(), lda,
               b.ptrs.data(), rc.beta, got.data(), ldc, epi);
    sgemm_packed(rc.ta, rc.tb, rc.m, rc.n, rc.k, rc.alpha, a.data(), lda,
                 b.strided.data(), b.ldb, rc.beta, ref.data(), ldc, epi);
    ASSERT_TRUE(equal(got, ref)) << "packed: " << describe(rc);
  }
  {
    const ScopedGemmKernel naive(GemmKernel::kNaive);
    std::vector<float> got = c_init, ref = c_init;
    sgemm_rows(rc.ta, rc.tb, rc.m, rc.n, rc.k, rc.alpha, a.data(), lda,
               b.ptrs.data(), rc.beta, got.data(), ldc, epi);
    sgemm_naive(rc.ta, rc.tb, rc.m, rc.n, rc.k, rc.alpha, a.data(), lda,
                b.strided.data(), b.ldb, rc.beta, ref.data(), ldc);
    apply_gemm_epilogue(rc.m, rc.n, ref.data(), ldc, epi);
    ASSERT_TRUE(equal(got, ref)) << "naive: " << describe(rc);
  }
}

// Every path boundary: the rank-k row update (k <= 16), the dot product,
// the narrow-n and narrow-m streaming paths (their 8- and 16-wide tiles and
// 6- and 12-row blocks), the streamed tile (its row and column tails, one
// and two KC panels) and the general path's transposed-B pack.
constexpr int64_t kRowsK[] = {1, 4, 9, 16, 17, 72, 256, 257, 300};
constexpr int64_t kRowsM[] = {1, 6, 7, 8, 9, 16, 17, 32, 64};
constexpr int64_t kRowsN[] = {1, 7, 8, 9, 24, 33, 288};

RowsCase random_rows_case(Rng& pick) {
  RowsCase rc;
  rc.m = kRowsM[pick.uniform_int(std::size(kRowsM))];
  rc.n = kRowsN[pick.uniform_int(std::size(kRowsN))];
  rc.k = kRowsK[pick.uniform_int(std::size(kRowsK))];
  rc.ta = pick.uniform_int(2) == 1;
  rc.tb = pick.uniform_int(2) == 1;
  rc.beta = pick.uniform_int(2) == 1 ? 1.0f : 0.0f;
  rc.bias_mode = static_cast<int>(pick.uniform_int(3));
  rc.act_mode = static_cast<int>(pick.uniform_int(2));
  // Overlapping windows (step 1 and 3), abutting rows and gapped rows.
  const int64_t len = rc.tb ? rc.k : rc.n;
  const int64_t steps[] = {1, 3, len, len + 5};
  rc.step = steps[pick.uniform_int(std::size(steps))];
  // Other alphas are rounded into A once, as pack_a does.
  if (pick.uniform_int(4) == 0) rc.alpha = -0.7f;
  return rc;
}

TEST(RowOperandParity, RandomShapesMatchStridedKernelsBytes) {
  Rng pick(20261018);
  for (int iter = 0; iter < 600; ++iter) {
    run_rows_case(random_rows_case(pick), 40000 + static_cast<uint64_t>(iter));
    if (::testing::Test::HasFatalFailure()) return;
  }
}

TEST(RowOperandParity, EveryDepthAndWidthUntransposed) {
  // The forward and dgrad layout (B untransposed) over the full k x n grid
  // at the row counts that bracket each tile height, epilogue included.
  int ix = 0;
  for (int64_t k : kRowsK) {
    for (int64_t n : kRowsN) {
      for (int64_t m : {1, 7, 8, 9, 17}) {
        const float beta = ix % 3 == 0 ? 1.0f : 0.0f;
        const RowsCase rc{m,      n,           k, ix % 2 == 1, false, beta,
                          ix % 3, (ix / 3) % 2, ix % 4 == 0 ? n : 1};
        ++ix;
        run_rows_case(rc, 50000 + static_cast<uint64_t>(ix));
        if (::testing::Test::HasFatalFailure()) return;
      }
    }
  }
}

TEST(RowOperandParity, ConvShapesMatchStridedKernelsBytes) {
  // Conv2d's three calls at ResNet, AlexNet and GoogLeNet shapes: forward
  // (ocg, n, col_rows) with a per-row bias, wgrad (ocg, col_rows, n) with
  // beta 1, dgrad (col_rows, n, ocg) transposed-A; the windows overlap as
  // 3x3 taps of an 18-wide padded plane do.
  const int64_t shapes[][3] = {{8, 286, 72},   {16, 286, 144}, {32, 78, 288},
                               {64, 78, 288},  {16, 286, 27},  {32, 24, 300},
                               {24, 33, 216}};
  uint64_t seed = 60000;
  for (const auto& s : shapes) {
    const int64_t ocg = s[0], n = s[1], col_rows = s[2];
    run_rows_case({ocg, n, col_rows, false, false, 0.0f, 1, 1, 1}, seed++);
    if (::testing::Test::HasFatalFailure()) return;
    run_rows_case({ocg, col_rows, n, false, true, 1.0f, 0, 0, 18}, seed++);
    if (::testing::Test::HasFatalFailure()) return;
    run_rows_case({col_rows, n, ocg, true, false, 0.0f, 0, 0, n}, seed++);
    if (::testing::Test::HasFatalFailure()) return;
  }
}

TEST(RowOperandParity, NonFiniteInputsPropagateAsInTheStridedKernels) {
  Rng pick(77);
  for (int iter = 0; iter < 120; ++iter) {
    run_rows_case(random_rows_case(pick), 70000 + static_cast<uint64_t>(iter),
                  /*poison=*/true);
    if (::testing::Test::HasFatalFailure()) return;
  }
}

TEST(RowOperandParity, RerunAndSerialRunsAreBitIdentical) {
  const ScopedGemmKernel packed(GemmKernel::kPacked);
  const RowsCase cases[] = {{32, 288, 300, false, false, 0.0f, 1, 1, 1},
                            {64, 288, 72, true, false, 1.0f, 0, 0, 288},
                            {32, 72, 288, false, true, 1.0f, 0, 0, 3},
                            {8, 288, 16, false, false, 0.0f, 2, 0, 1}};
  uint64_t seed = 80000;
  for (const RowsCase& rc : cases) {
    Rng rng(seed++);
    const int64_t rows = rc.tb ? rc.n : rc.k;
    const int64_t len = rc.tb ? rc.k : rc.n;
    const RowOperand b = row_operand(rows, len, rc.step, 0, rng);
    const int64_t lda = rc.ta ? rc.m : rc.k;
    const std::vector<float> a =
        random_matrix(rc.ta ? rc.k : rc.m, 0, lda, rng);
    std::vector<float> bias(static_cast<size_t>(std::max(rc.m, rc.n)), 0.5f);
    GemmEpilogue epi;
    epi.bias_kind = static_cast<GemmEpilogue::Bias>(rc.bias_mode);
    if (rc.bias_mode != 0) epi.bias = bias.data();
    if (rc.act_mode != 0) epi.act = GemmEpilogue::Act::kReLU;
    std::vector<float> c1(static_cast<size_t>(rc.m * rc.n), 0.25f);
    std::vector<float> c2 = c1, c3 = c1;
    sgemm_rows(rc.ta, rc.tb, rc.m, rc.n, rc.k, 1.0f, a.data(), lda,
               b.ptrs.data(), rc.beta, c1.data(), rc.n, epi);
    sgemm_rows(rc.ta, rc.tb, rc.m, rc.n, rc.k, 1.0f, a.data(), lda,
               b.ptrs.data(), rc.beta, c2.data(), rc.n, epi);
    {
      ThreadPool::SerialRegion no_threads;
      sgemm_rows(rc.ta, rc.tb, rc.m, rc.n, rc.k, 1.0f, a.data(), lda,
                 b.ptrs.data(), rc.beta, c3.data(), rc.n, epi);
    }
    EXPECT_EQ(0, std::memcmp(c1.data(), c2.data(), c1.size() * sizeof(float)))
        << "rerun drifted: " << describe(rc);
    EXPECT_EQ(0, std::memcmp(c1.data(), c3.data(), c1.size() * sizeof(float)))
        << "serial drifted: " << describe(rc);
  }
}

}  // namespace
}  // namespace fca
