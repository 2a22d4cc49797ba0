// Single-precision general matrix multiply.
//
// C = alpha * op(A) * op(B) + beta * C, row-major, with optional transposes.
// sgemm()/sgemm_ex() dispatch at runtime between two implementations (see
// tensor/kernel.hpp): the packed register-tiled micro-kernel (default) and
// the IEEE-faithful naive reference. Both accumulate each output element in
// a fixed k-order independent of thread count, so a given selection is
// bit-identical across reruns and parallelism levels. sgemm_rows() is the
// same product with B handed over as a list of row pointers, which lets
// Conv2d multiply straight out of its input planes (DESIGN.md §9).
#pragma once

#include <cstdint>

#include "tensor/kernel.hpp"

namespace fca {

/// Optional fused tail applied to C after the product is complete: bias add
/// (per output row or per output column) followed by an activation. The
/// packed kernel fuses this into its write-back; the naive path applies it
/// as a second pass with identical numerics (one rounding per element for
/// the bias add, exact max for ReLU).
struct GemmEpilogue {
  enum class Bias { kNone, kPerRow, kPerCol };
  enum class Act { kNone, kReLU };

  const float* bias = nullptr;  // [m] for kPerRow, [n] for kPerCol
  Bias bias_kind = Bias::kNone;
  Act act = Act::kNone;

  bool empty() const {
    return bias_kind == Bias::kNone && act == Act::kNone;
  }
};

/// Row-major sgemm. op(A) is M×K, op(B) is K×N, C is M×N.
/// lda/ldb/ldc are the leading (row) strides of the *stored* matrices,
/// i.e. of A (not op(A)). Dispatches on resolved_gemm_kernel().
void sgemm(bool trans_a, bool trans_b, int64_t m, int64_t n, int64_t k,
           float alpha, const float* a, int64_t lda, const float* b,
           int64_t ldb, float beta, float* c, int64_t ldc);

/// sgemm with a fused epilogue (Conv2d/Linear forward bias+activation).
void sgemm_ex(bool trans_a, bool trans_b, int64_t m, int64_t n, int64_t k,
              float alpha, const float* a, int64_t lda, const float* b,
              int64_t ldb, float beta, float* c, int64_t ldc,
              const GemmEpilogue& epi);

/// sgemm_ex with B given as row pointers instead of a strided matrix: with
/// B untransposed, b_rows[p] is row p of op(B), n floats long; transposed,
/// b_rows[j] is stored row j of B, k floats long. The rows may overlap.
/// Dispatches like sgemm_ex, with the same profile span; for every shape
/// the result is byte-identical to the selected kernel's sgemm_ex on the
/// same operand stored with a stride.
void sgemm_rows(bool trans_a, bool trans_b, int64_t m, int64_t n, int64_t k,
                float alpha, const float* a, int64_t lda,
                const float* const* b_rows, float beta, float* c,
                int64_t ldc, const GemmEpilogue& epi = {});

/// Packed register-tiled micro-kernel (tensor/gemm_packed.cpp): A and B are
/// packed into per-thread workspace panels (alpha folded into the A pack),
/// then multiplied by a fixed-size compiler-vectorized tile. `epi` is fused
/// into the write-back of the last k panel. A transposed call with a 1x1
/// result is a bare dot product and skips the panels: it runs the naive
/// loop's per-element order, so it is byte-identical to sgemm_naive.
void sgemm_packed(bool trans_a, bool trans_b, int64_t m, int64_t n, int64_t k,
                  float alpha, const float* a, int64_t lda, const float* b,
                  int64_t ldb, float beta, float* c, int64_t ldc,
                  const GemmEpilogue& epi = {});

/// The packed form of sgemm_rows. For every shape it runs the operation
/// sequence sgemm_packed runs for each output element. With B untransposed
/// and k > kGemmRowUpdateMaxK it packs nothing: a register tile reads A and
/// the rows in place, zero-seeded per KC-deep panel as the packed path is,
/// and writes back from registers; shallower depths take the row update.
/// Transposed B rows are gathered or streamed as sgemm_packed's narrow and
/// general paths do.
void sgemm_packed_rows(bool trans_a, bool trans_b, int64_t m, int64_t n,
                       int64_t k, float alpha, const float* a, int64_t lda,
                       const float* const* b_rows, float beta, float* c,
                       int64_t ldc, const GemmEpilogue& epi = {});

/// Columns of the register strip sgemm_packed_rows streams B through
/// (untransposed, k > kGemmRowUpdateMaxK): 32 on the x86-64-v4 clone, 24 on
/// the others. A call narrower than one strip is computed at the full width
/// with zeroed columns, so callers with many narrow products can fill the
/// strip by multiplying several at once.
int64_t gemm_stream_width();

/// Deepest k that sgemm_packed serves with the rank-k row update below
/// (B untransposed).
constexpr int64_t kGemmRowUpdateMaxK = 16;

/// The row kernel of sgemm_packed's small-depth path, for 1 <= k <=
/// kGemmRowUpdateMaxK: crow[j] = beta*crow[j] + sum_p av[p] * rows[p][j]
/// over j < n, the terms added in ascending p; with beta == 0 the p = 0
/// product seeds the sum and crow is not read. `av` already carries alpha.
/// Exposed so that direct kernels (the depthwise Conv2d forward) run the
/// GEMM path's per-element sequence through the same machine code.
void sgemm_row_update(int64_t n, int64_t k, const float* av,
                      const float* const* rows, float beta, float* crow);

/// Naive triple loop used as the correctness oracle in tests and as the
/// baseline in bench_kernels. IEEE-faithful: NaN/Inf in either
/// operand propagate exactly as the literal sum-of-products would.
void sgemm_naive(bool trans_a, bool trans_b, int64_t m, int64_t n, int64_t k,
                 float alpha, const float* a, int64_t lda, const float* b,
                 int64_t ldb, float beta, float* c, int64_t ldc);

/// Standalone epilogue pass over C (what the non-fused paths run after the
/// product; exposed for the parity tests).
void apply_gemm_epilogue(int64_t m, int64_t n, float* c, int64_t ldc,
                         const GemmEpilogue& epi);

}  // namespace fca
