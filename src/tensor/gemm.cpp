#include "tensor/gemm.hpp"

#include <algorithm>

#include "obs/trace.hpp"
#include "tensor/kernel.hpp"

namespace fca {
namespace {

// Element of op(A) at logical (row, col).
inline float op_at(const float* a, int64_t lda, bool trans, int64_t row,
                   int64_t col) {
  return trans ? a[col * lda + row] : a[row * lda + col];
}

inline void scale_c(float beta, int64_t m, int64_t n, float* c, int64_t ldc) {
  if (beta == 1.0f) return;
  for (int64_t i = 0; i < m; ++i) {
    float* row = c + i * ldc;
    if (beta == 0.0f) {
      std::fill_n(row, n, 0.0f);
    } else {
      for (int64_t j = 0; j < n; ++j) row[j] *= beta;
    }
  }
}

/// sgemm_naive's loop with op(B)(p, j) read through `b_at`.
template <class BAt>
void naive_loop(bool trans_a, int64_t m, int64_t n, int64_t k, float alpha,
                const float* a, int64_t lda, const BAt& b_at, float beta,
                float* c, int64_t ldc) {
  scale_c(beta, m, n, c, ldc);
  if (alpha == 0.0f) return;  // by convention alpha==0 never touches A*B
  for (int64_t i = 0; i < m; ++i) {
    for (int64_t p = 0; p < k; ++p) {
      // No zero-skip here: av == 0 must still contribute av * b so that
      // NaN/Inf in B propagate exactly as the literal sum-of-products would
      // (this kernel is the parity oracle for the vectorized paths).
      const float av = alpha * op_at(a, lda, trans_a, i, p);
      for (int64_t j = 0; j < n; ++j) {
        c[i * ldc + j] += av * b_at(p, j);
      }
    }
  }
}

}  // namespace

void sgemm_naive(bool trans_a, bool trans_b, int64_t m, int64_t n, int64_t k,
                 float alpha, const float* a, int64_t lda, const float* b,
                 int64_t ldb, float beta, float* c, int64_t ldc) {
  naive_loop(
      trans_a, m, n, k, alpha, a, lda,
      [&](int64_t p, int64_t j) { return op_at(b, ldb, trans_b, p, j); },
      beta, c, ldc);
}

void apply_gemm_epilogue(int64_t m, int64_t n, float* c, int64_t ldc,
                         const GemmEpilogue& epi) {
  if (epi.empty() || m == 0 || n == 0) return;
  for (int64_t i = 0; i < m; ++i) {
    float* row = c + i * ldc;
    const float row_bias =
        epi.bias_kind == GemmEpilogue::Bias::kPerRow ? epi.bias[i] : 0.0f;
    for (int64_t j = 0; j < n; ++j) {
      float v = row[j];
      if (epi.bias_kind == GemmEpilogue::Bias::kPerCol) {
        v += epi.bias[j];
      } else if (epi.bias_kind == GemmEpilogue::Bias::kPerRow) {
        v += row_bias;
      }
      if (epi.act == GemmEpilogue::Act::kReLU && !(v > 0.0f)) v = 0.0f;
      row[j] = v;
    }
  }
}

void sgemm_ex(bool trans_a, bool trans_b, int64_t m, int64_t n, int64_t k,
              float alpha, const float* a, int64_t lda, const float* b,
              int64_t ldb, float beta, float* c, int64_t ldc,
              const GemmEpilogue& epi) {
  if (resolved_gemm_kernel() == GemmKernel::kPacked) {
    sgemm_packed(trans_a, trans_b, m, n, k, alpha, a, lda, b, ldb, beta, c,
                 ldc, epi);
    return;
  }
  // The reference loop carries no span of its own (it is also the oracle
  // inside tests); account for it here so a forced-naive run keeps the same
  // kernel-span names and flop counts in the trace.
  obs::ProfileSpan span("kernel", "sgemm", 2 * m * n * k);
  sgemm_naive(trans_a, trans_b, m, n, k, alpha, a, lda, b, ldb, beta, c, ldc);
  apply_gemm_epilogue(m, n, c, ldc, epi);
}

void sgemm_rows(bool trans_a, bool trans_b, int64_t m, int64_t n, int64_t k,
                float alpha, const float* a, int64_t lda,
                const float* const* b_rows, float beta, float* c,
                int64_t ldc, const GemmEpilogue& epi) {
  if (resolved_gemm_kernel() == GemmKernel::kPacked) {
    sgemm_packed_rows(trans_a, trans_b, m, n, k, alpha, a, lda, b_rows, beta,
                      c, ldc, epi);
    return;
  }
  obs::ProfileSpan span("kernel", "sgemm", 2 * m * n * k);
  naive_loop(
      trans_a, m, n, k, alpha, a, lda,
      [&](int64_t p, int64_t j) {
        return trans_b ? b_rows[j][p] : b_rows[p][j];
      },
      beta, c, ldc);
  apply_gemm_epilogue(m, n, c, ldc, epi);
}

void sgemm(bool trans_a, bool trans_b, int64_t m, int64_t n, int64_t k,
           float alpha, const float* a, int64_t lda, const float* b,
           int64_t ldb, float beta, float* c, int64_t ldc) {
  sgemm_ex(trans_a, trans_b, m, n, k, alpha, a, lda, b, ldb, beta, c, ldc,
           GemmEpilogue{});
}

}  // namespace fca
