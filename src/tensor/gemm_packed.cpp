// Packed register-tiled SGEMM (DESIGN.md §9).
//
// BLIS-style decomposition, two levels deep (the shapes this library meets
// are small enough that an L3 nc loop would never split):
//
//   for jc  (NC columns of C)                 — B stays in cache
//     for pc (KC depth)                       — pack B[pc:pc+kb, jc:jc+nb]
//       parallel for ic (MC rows)             — pack alpha*A[ic:, pc:]
//         for jr (NR), ir (MR): micro-kernel  — MR×NR tile in registers
//
// The micro-kernel is plain C++ over fixed-size tiles: with MR/NR constexpr
// the compiler fully unrolls the i loop and vectorizes the j dimension at
// whatever SIMD width it targets, while the MR×NR accumulator block stays in
// registers for the whole kb depth. That register reuse — C is loaded and
// stored once per k-panel instead of once per k step — is where the speedup
// over sgemm_naive comes from.
// The kernel is additionally compiled as GCC function-multiversioning clones
// (FCA_MICROKERNEL_CLONES in tensor/kernel.hpp, still no intrinsics): the
// dynamic loader picks the x86-64-v4 clone (AVX-512) or the x86-64-v3 clone
// (AVX2 + FMA) on CPUs that have them and the baseline SSE2 clone elsewhere.
// v3 and v4 contract the same multiply-adds and give the same bytes.
//
// Determinism: each output element is owned by exactly one row-block task,
// and its k contributions are accumulated in ascending panel order, ascending
// p within a panel — an order that does not depend on how the row blocks are
// scheduled. Reruns and any thread count give bit-identical C. Clone
// selection is decided once at load time from CPUID, so it is also rerun-
// stable; like any ISA choice it is per-machine, not cross-machine.
//
// Packing buffers come from the per-thread Workspace arena: the B panel from
// a frame on the caller's thread, each A panel from a frame on the worker
// that owns the row block. Steady-state calls therefore do not allocate.
//
// sgemm_packed_rows takes B as row pointers and runs the same dispatch and
// per-element sequences over them (packed_impl); only with B untransposed
// does it read differently, streaming A and the rows in place through a
// register tile instead of packing them (stream_tile below).
#include <algorithm>
#include <cstring>
#include <type_traits>

#include "obs/trace.hpp"
#include "tensor/gemm.hpp"
#include "tensor/workspace.hpp"
#include "utils/error.hpp"
#include "utils/threadpool.hpp"

namespace fca {
namespace {

// 6x16 is the classic AVX2 shape: the v3 clone holds the accumulator tile in
// 12 of 16 YMM registers (two 8-wide vectors per row), leaving 2 for the B
// row and 1 for the A broadcast — enough independent FMA chains to saturate
// both FMA ports, which a 6x8 tile (6 accumulators) cannot. The baseline
// clone spills some of the tile to the stack, but it only runs on pre-AVX
// hardware where memory latency dominates anyway.
constexpr int64_t MR = 6;    // micro-tile rows
constexpr int64_t NR = 16;   // micro-tile cols
constexpr int64_t MC = 96;   // rows of A per packed panel (multiple of MR)
constexpr int64_t NC = 512;  // cols of B per packed panel (multiple of NR)
constexpr int64_t KC = 256;  // depth per packed panel

inline int64_t round_up(int64_t v, int64_t to) {
  return (v + to - 1) / to * to;
}

}  // namespace

/// Rank-k update for k <= kGemmRowUpdateMaxK. Depth that small is the wrong
/// tool for the packed tiling: a micro-tile does too few flops to amortize
/// packing and C-tile traffic (dgrad's k is out_channels_per_group, often
/// just 8, and measured ~15 GFLOP/s against the kernel's ~50 peak). Each C
/// row is computed as beta*c (p == 0 stores over it when beta == 0) plus k
/// j-contiguous axpy sweeps in ascending p order — the same per-element
/// accumulation order class as the micro-kernel, so determinism and the
/// parity bound are unchanged. The row stays L1-hot across the k sweeps and
/// B is streamed, which beats the packed path ~2x on dgrad shapes.
FCA_MICROKERNEL_CLONES
void sgemm_row_update(int64_t n, int64_t k, const float* av,
                      const float* const* rows, float beta, float* crow) {
  // First sweep covers p = 0..k0 and the beta term; later sweeps add four
  // (then one) p rows at a time with the row element held in a register, so
  // the per-element add sequence is exactly the ascending-p order of the
  // one-row-at-a-time formulation while C-row traffic drops 4x.
  const int64_t k0 = k < 4 ? k : 4;
  const float a0 = av[0];
  const float a1 = k0 > 1 ? av[1] : 0.0f;
  const float a2 = k0 > 2 ? av[2] : 0.0f;
  const float* b0 = rows[0];
  const float* b1 = rows[k0 > 1 ? 1 : 0];
  const float* b2 = rows[k0 > 2 ? 2 : 0];
  const float* b3 = rows[k0 > 3 ? 3 : 0];
  if (beta == 0.0f) {
    switch (k0) {
      case 1:
#pragma omp simd
        for (int64_t j = 0; j < n; ++j) crow[j] = a0 * b0[j];
        break;
      case 2:
#pragma omp simd
        for (int64_t j = 0; j < n; ++j) {
          float v = a0 * b0[j];
          v += a1 * b1[j];
          crow[j] = v;
        }
        break;
      case 3:
#pragma omp simd
        for (int64_t j = 0; j < n; ++j) {
          float v = a0 * b0[j];
          v += a1 * b1[j];
          v += a2 * b2[j];
          crow[j] = v;
        }
        break;
      default: {
        const float a3 = av[3];
#pragma omp simd
        for (int64_t j = 0; j < n; ++j) {
          float v = a0 * b0[j];
          v += a1 * b1[j];
          v += a2 * b2[j];
          v += a3 * b3[j];
          crow[j] = v;
        }
      }
    }
  } else {
    switch (k0) {
      case 1:
#pragma omp simd
        for (int64_t j = 0; j < n; ++j) crow[j] = beta * crow[j] + a0 * b0[j];
        break;
      case 2:
#pragma omp simd
        for (int64_t j = 0; j < n; ++j) {
          float v = beta * crow[j] + a0 * b0[j];
          v += a1 * b1[j];
          crow[j] = v;
        }
        break;
      case 3:
#pragma omp simd
        for (int64_t j = 0; j < n; ++j) {
          float v = beta * crow[j] + a0 * b0[j];
          v += a1 * b1[j];
          v += a2 * b2[j];
          crow[j] = v;
        }
        break;
      default: {
        const float a3 = av[3];
#pragma omp simd
        for (int64_t j = 0; j < n; ++j) {
          float v = beta * crow[j] + a0 * b0[j];
          v += a1 * b1[j];
          v += a2 * b2[j];
          v += a3 * b3[j];
          crow[j] = v;
        }
      }
    }
  }
  int64_t p = k0;
  for (; p + 4 <= k; p += 4) {
    const float c0 = av[p], c1 = av[p + 1], c2 = av[p + 2], c3 = av[p + 3];
    const float* r0 = rows[p];
    const float* r1 = rows[p + 1];
    const float* r2 = rows[p + 2];
    const float* r3 = rows[p + 3];
#pragma omp simd
    for (int64_t j = 0; j < n; ++j) {
      float v = crow[j];
      v += c0 * r0[j];
      v += c1 * r1[j];
      v += c2 * r2[j];
      v += c3 * r3[j];
      crow[j] = v;
    }
  }
  for (; p < k; ++p) {
    const float cp = av[p];
    const float* rp = rows[p];
#pragma omp simd
    for (int64_t j = 0; j < n; ++j) crow[j] += cp * rp[j];
  }
}

namespace {

// Width at or below which the packed tiling wastes its packing work: with n
// this small every packed A element is used at most 16 times, so pack_a's
// full m*k pass costs as much as the compute it feeds (wgrad's n is
// col_rows with m = out_channels_per_group — packing the 72x1024 column
// matrix to produce an 8x72 result). Such calls take the streaming path
// below: only op(B) (the small side, n*k elements) is transposed into a
// contiguous panel, A rows are streamed unpacked, and each 12x8 (n <= 8) or
// 6x16 register tile accumulates the FULL depth in ascending-k order before
// one write to C.
constexpr int64_t kSmallNMax = 16;

/// One register-tile block of the small-n path: acc rows over the whole
/// depth k. Streamed row i's depth step p is rows[i][p * depth_stride],
/// read in place — no packing — and bt is the pre-transposed alpha*op(B)
/// panel, padded to width W. Per-element accumulation is ascending k, as
/// everywhere else.
// always_inline: the body must be inlined into each target_clones wrapper
// below so the j loops vectorize at that clone's ISA — left out-of-line it
// would be compiled once for the baseline target and both clones would just
// tail-call it.
template <int64_t W, int64_t MRB>
__attribute__((always_inline)) inline void smalln_block(
    int64_t k, int64_t mr, const float* const* rows, int64_t depth_stride,
    const float* bt, float acc_out[MRB * W]) {
  float acc[MRB][W] = {};
  if (mr == MRB) {
    // Fixed trip count: the i loop fully unrolls and the whole tile lives
    // in registers across the k loop (the runtime-mr fallback below keeps
    // acc in memory — fine for the final partial block only).
    for (int64_t p = 0; p < k; ++p) {
      const float* bv = bt + p * W;
      const int64_t d = p * depth_stride;
      for (int64_t i = 0; i < MRB; ++i) {
        const float ai = rows[i][d];
#pragma omp simd
        for (int64_t j = 0; j < W; ++j) acc[i][j] += ai * bv[j];
      }
    }
  } else {
    for (int64_t p = 0; p < k; ++p) {
      const float* bv = bt + p * W;
      const int64_t d = p * depth_stride;
      for (int64_t i = 0; i < mr; ++i) {
        const float ai = rows[i][d];
#pragma omp simd
        for (int64_t j = 0; j < W; ++j) acc[i][j] += ai * bv[j];
      }
    }
  }
  std::memcpy(acc_out, acc, sizeof(float) * static_cast<size_t>(mr) * W);
}

/// Paired-depth variant of the 8-wide block, used when the streamed rows
/// are contiguous in k (depth stride 1 — the wgrad layout). Two consecutive
/// depth steps occupy the 16 vector lanes at once: lanes 0..7 accumulate
/// even-k products, lanes 8..15 odd-k products, and the two partial sums
/// are folded into the 8-wide result at the end. The bt panel needs no
/// re-layout — rows p and p+1 of the 8-wide panel read as one 16-float
/// vector. Halves the loads per multiply-add of the plain 12x8 tile (the
/// strided broadcast streams were its bottleneck). Per-element summation
/// order: ascending k within each parity class, one even+odd fold, then the
/// odd-k tail element — fixed per shape, so still rerun- and
/// pool-size-invariant, and covered by the order-agnostic parity bound.
template <int64_t MRB>
__attribute__((always_inline)) inline void smalln_block_pairk(
    int64_t k, int64_t mr, const float* const* rows, const float* bt,
    float acc_out[MRB * 8]) {
  float acc[MRB][16] = {};
  const int64_t kp = k / 2;
  if (mr == MRB) {
    for (int64_t q = 0; q < kp; ++q) {
      const float* bv = bt + q * 16;
      for (int64_t i = 0; i < MRB; ++i) {
        const float a0 = rows[i][2 * q];
        const float a1 = rows[i][2 * q + 1];
#pragma omp simd
        for (int64_t j = 0; j < 8; ++j) acc[i][j] += a0 * bv[j];
#pragma omp simd
        for (int64_t j = 0; j < 8; ++j) acc[i][8 + j] += a1 * bv[8 + j];
      }
    }
  } else {
    for (int64_t q = 0; q < kp; ++q) {
      const float* bv = bt + q * 16;
      for (int64_t i = 0; i < mr; ++i) {
        const float a0 = rows[i][2 * q];
        const float a1 = rows[i][2 * q + 1];
#pragma omp simd
        for (int64_t j = 0; j < 8; ++j) acc[i][j] += a0 * bv[j];
#pragma omp simd
        for (int64_t j = 0; j < 8; ++j) acc[i][8 + j] += a1 * bv[8 + j];
      }
    }
  }
  for (int64_t i = 0; i < mr; ++i) {
    float* out = acc_out + i * 8;
#pragma omp simd
    for (int64_t j = 0; j < 8; ++j) out[j] = acc[i][j] + acc[i][8 + j];
  }
  if (k & 1) {
    const float* bv = bt + (k - 1) * 8;
    for (int64_t i = 0; i < mr; ++i) {
      const float ai = rows[i][k - 1];
      float* out = acc_out + i * 8;
#pragma omp simd
      for (int64_t j = 0; j < 8; ++j) out[j] += ai * bv[j];
    }
  }
}

// target_clones dispatch wrappers (the attribute cannot go on a template).
FCA_MICROKERNEL_CLONES
void smalln_block8(int64_t k, int64_t mr, const float* const* rows,
                   int64_t depth_stride, const float* bt, float* acc_out) {
  smalln_block<8, 12>(k, mr, rows, depth_stride, bt, acc_out);
}

FCA_MICROKERNEL_CLONES
void smalln_block8_pairk(int64_t k, int64_t mr, const float* const* rows,
                         const float* bt, float* acc_out) {
  smalln_block_pairk<6>(k, mr, rows, bt, acc_out);
}

FCA_MICROKERNEL_CLONES
void smalln_block16(int64_t k, int64_t mr, const float* const* rows,
                    int64_t depth_stride, const float* bt, float* acc_out) {
  smalln_block<16, 6>(k, mr, rows, depth_stride, bt, acc_out);
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

/// Packs alpha * op(A)[ic:ic+mb, pc:pc+kb] into MR row-panels:
/// ap[r*MR*kb + p*MR + i] = alpha * op(A)(ic + r*MR + i, pc + p).
/// Rows mr..MR of a partial tile are left unwritten; only micro_kernel_tail
/// sees such tiles and it reads just the first mr rows.
void pack_a(const float* a, int64_t lda, bool trans, int64_t ic, int64_t pc,
            int64_t mb, int64_t kb, float alpha, float* ap) {
  for (int64_t ir = 0; ir < mb; ir += MR) {
    float* panel = ap + (ir / MR) * MR * kb;
    const int64_t mr = std::min(MR, mb - ir);
    if (!trans) {
      for (int64_t i = 0; i < mr; ++i) {
        const float* src = a + (ic + ir + i) * lda + pc;
        for (int64_t p = 0; p < kb; ++p) panel[p * MR + i] = alpha * src[p];
      }
    } else {
      // op(A)(r, p) = A[p][r]: contiguous in i for each p.
      for (int64_t p = 0; p < kb; ++p) {
        const float* src = a + (pc + p) * lda + ic + ir;
        for (int64_t i = 0; i < mr; ++i) panel[p * MR + i] = alpha * src[i];
      }
    }
    // Row tails are NOT zero-padded: partial tiles go through
    // micro_kernel_tail, which only touches the first mr rows, so the pad
    // would be dead stores (kb * (MR - mr) of them per tail tile).
  }
}

/// Column-panel width for the slice starting at column jr of an nb-column
/// block: full NR panels, except that a tail of <= NR/2 columns is packed
/// half-width. Grouped/depthwise convs hand the backward pass matrices with
/// n as small as 2-9 (col_rows of a 1x1 or per-group 3x3 kernel); padding
/// those to 16 would double the dead micro-kernel flops the old 8-wide tile
/// paid. pack_b and the jr loop in sgemm_packed must agree on this.
inline int64_t panel_width(int64_t nb, int64_t jr) {
  return nb - jr <= NR / 2 ? NR / 2 : NR;
}

/// Stored rows of a B operand: row r of a strided matrix is b + r * ldb...
struct StridedRows {
  const float* b;
  int64_t ldb;
  const float* operator()(int64_t r) const { return b + r * ldb; }
};

/// ...and of a row-pointer operand (sgemm_rows) it is rows[r].
struct RowPointers {
  const float* const* rows;
  const float* operator()(int64_t r) const { return rows[r]; }
};

/// Packs op(B)[pc:pc+kb, jc:jc+nb] into column-panels of width panel_width
/// (NR, with an NR/2 tail): panel[p * w + j] = op(B)(pc + p, jc + jr + j),
/// zero-padded in j up to the panel width. `b(r)` is stored row r of B.
template <class Rows>
void pack_b(const Rows& b, bool trans, int64_t pc, int64_t jc, int64_t kb,
            int64_t nb, float* bp) {
  float* panel = bp;
  for (int64_t jr = 0; jr < nb; jr += NR) {
    const int64_t w = panel_width(nb, jr);
    const int64_t nr = std::min(w, nb - jr);
    if (!trans) {
      for (int64_t p = 0; p < kb; ++p) {
        const float* src = b(pc + p) + jc + jr;
        for (int64_t j = 0; j < nr; ++j) panel[p * w + j] = src[j];
      }
    } else {
      // op(B)(p, j) = B[j][p]: strided gather per column.
      for (int64_t j = 0; j < nr; ++j) {
        const float* src = b(jc + jr + j) + pc;
        for (int64_t p = 0; p < kb; ++p) panel[p * w + j] = src[p];
      }
    }
    if (nr < w) {
      for (int64_t p = 0; p < kb; ++p) {
        for (int64_t j = nr; j < w; ++j) panel[p * w + j] = 0.0f;
      }
    }
    panel += w * kb;
  }
}

/// acc = A-panel * B-panel over kb depth, MRT x W tile. The 2-D accumulator
/// plus the simd pragma on the fixed-trip j loop pin the vectorization axis:
/// the compiler unrolls i, vectorizes j, and keeps the whole tile in
/// registers across the p loop (a flat acc[i * W + j] formulation tempts GCC
/// into SLP across p with ruinous shuffle traffic — measured ~8x slower; do
/// not "simplify" this back). MRT is a template parameter so every variant
/// has compile-time trip counts: a runtime row bound forces the accumulator
/// tile into memory (a load+store per FMA). always_inline so the body is
/// compiled at each target_clones wrapper's ISA rather than once at baseline.
template <int64_t MRT, int64_t W>
__attribute__((always_inline)) inline void micro_tile(int64_t kb,
                                                      const float* ap,
                                                      const float* bp,
                                                      float* acc_out) {
  float acc[MRT][W] = {};
  for (int64_t p = 0; p < kb; ++p) {
    const float* av = ap + p * MR;  // A-panel stride is always MR
    const float* bv = bp + p * W;
    for (int64_t i = 0; i < MRT; ++i) {
      const float ai = av[i];
#pragma omp simd
      for (int64_t j = 0; j < W; ++j) acc[i][j] += ai * bv[j];
    }
  }
  std::memcpy(acc_out, acc, sizeof(acc));
}

/// The target_clones dispatch happens on these wrappers; never inlined.
FCA_MICROKERNEL_CLONES
void micro_kernel(int64_t kb, const float* ap, const float* bp,
                  float acc_out[MR * NR]) {
  micro_tile<MR, NR>(kb, ap, bp, acc_out);
}

/// Row-tail variant: identical arithmetic per element (same ascending-p
/// order, same panel stride MR), but only the first mr rows are computed.
/// The backward wgrad shapes have m == out_channels_per_group (often 8, one
/// full tile + a 2-row tail); computing the dead pad rows there wasted a
/// third of the micro-kernel work. The switch selects a fixed-MRT
/// instantiation so partial tiles also keep their accumulators in registers.
FCA_MICROKERNEL_CLONES
void micro_kernel_tail(int64_t kb, int64_t mr, const float* ap,
                       const float* bp, float acc_out[MR * NR]) {
  switch (mr) {
    case 1: micro_tile<1, NR>(kb, ap, bp, acc_out); break;
    case 2: micro_tile<2, NR>(kb, ap, bp, acc_out); break;
    case 3: micro_tile<3, NR>(kb, ap, bp, acc_out); break;
    case 4: micro_tile<4, NR>(kb, ap, bp, acc_out); break;
    default: micro_tile<5, NR>(kb, ap, bp, acc_out); break;
  }
}

/// Half-width (NR/2-column) variants for the tail panels pack_b emits when
/// the remaining columns fit in NR/2; acc rows are NR/2 apart. Same
/// ascending-p per-element order as the full-width kernels.
FCA_MICROKERNEL_CLONES
void micro_kernel_half(int64_t kb, const float* ap, const float* bp,
                       float acc_out[MR * NR / 2]) {
  micro_tile<MR, NR / 2>(kb, ap, bp, acc_out);
}

FCA_MICROKERNEL_CLONES
void micro_kernel_half_tail(int64_t kb, int64_t mr, const float* ap,
                            const float* bp, float acc_out[MR * NR / 2]) {
  switch (mr) {
    case 1: micro_tile<1, NR / 2>(kb, ap, bp, acc_out); break;
    case 2: micro_tile<2, NR / 2>(kb, ap, bp, acc_out); break;
    case 3: micro_tile<3, NR / 2>(kb, ap, bp, acc_out); break;
    case 4: micro_tile<4, NR / 2>(kb, ap, bp, acc_out); break;
    default: micro_tile<5, NR / 2>(kb, ap, bp, acc_out); break;
  }
}

/// Writes the valid mr×nr corner of acc into C — accumulating when
/// `accumulate` (C already holds beta*C plus earlier k panels), a straight
/// store otherwise (beta == 0 first panel, so the zero-fill pass and the
/// read-modify-write are both skipped). On the final k panel also applies
/// the epilogue with numerics identical to apply_gemm_epilogue.
inline void write_back(const float* acc, int64_t acc_stride, float* c,
                       int64_t ldc, int64_t row0, int64_t col0, int64_t mr,
                       int64_t nr, bool accumulate, bool fuse_epi,
                       const GemmEpilogue& epi) {
  for (int64_t i = 0; i < mr; ++i) {
    float* crow = c + (row0 + i) * ldc + col0;
    const float* arow = acc + i * acc_stride;
    if (!fuse_epi) {
      if (accumulate) {
        for (int64_t j = 0; j < nr; ++j) crow[j] += arow[j];
      } else {
        for (int64_t j = 0; j < nr; ++j) crow[j] = arow[j];
      }
      continue;
    }
    const float row_bias =
        epi.bias_kind == GemmEpilogue::Bias::kPerRow ? epi.bias[row0 + i]
                                                     : 0.0f;
    for (int64_t j = 0; j < nr; ++j) {
      float v = accumulate ? crow[j] + arow[j] : arow[j];
      if (epi.bias_kind == GemmEpilogue::Bias::kPerCol) {
        v += epi.bias[col0 + j];
      } else if (epi.bias_kind == GemmEpilogue::Bias::kPerRow) {
        v += row_bias;
      }
      if (epi.act == GemmEpilogue::Act::kReLU && !(v > 0.0f)) v = 0.0f;
      crow[j] = v;
    }
  }
}

// ---------------------------------------------------------------------------
// Streamed tile of sgemm_packed_rows (B untransposed, k > kGemmRowUpdateMaxK;
// shallower depths take the rank-k row update). A tile of C is accumulated
// straight from op(A) and the B rows — neither is packed — and written back
// from registers. Each element runs the general path's sequence: a
// zero-seeded accumulator per KC-deep panel taking one multiply-add per p in
// ascending order, stored or added into C, the epilogue fused on the last
// panel. The bytes depend only on that sequence, so the tile shape is free:
// 8x32 fills half of the v4 clone's 32 vector registers; 4x24 (12
// accumulators) measured fastest in the 16 of the v3 clone.

/// Where a streamed tile goes: C rows row0.., columns col0..col0+nr, added
/// to C when `accumulate`, through `epi` when it is not null (last panel).
struct TileOut {
  float* c;
  int64_t ldc, row0, col0, nr;
  bool accumulate;
  const GemmEpilogue* epi;
};

template <int64_t MRT, int64_t W, class Cols>
__attribute__((always_inline)) inline void store_tile(
    const float (&acc)[MRT][W], Cols cols, const TileOut& out) {
  for (int64_t i = 0; i < MRT; ++i) {
    float* crow = out.c + (out.row0 + i) * out.ldc + out.col0;
    if (out.epi == nullptr) {
      if (out.accumulate) {
#pragma omp simd
        for (int64_t j = 0; j < cols; ++j) crow[j] += acc[i][j];
      } else {
#pragma omp simd
        for (int64_t j = 0; j < cols; ++j) crow[j] = acc[i][j];
      }
      continue;
    }
    // Same operations as write_back's fused epilogue.
    const GemmEpilogue& e = *out.epi;
    const bool per_row = e.bias_kind == GemmEpilogue::Bias::kPerRow;
    const bool per_col = e.bias_kind == GemmEpilogue::Bias::kPerCol;
    const bool relu = e.act == GemmEpilogue::Act::kReLU;
    const float row_bias = per_row ? e.bias[out.row0 + i] : 0.0f;
    const float* col_bias = per_col ? e.bias + out.col0 : nullptr;
#pragma omp simd
    for (int64_t j = 0; j < cols; ++j) {
      float v = out.accumulate ? crow[j] + acc[i][j] : acc[i][j];
      if (per_col) {
        v += col_bias[j];
      } else if (per_row) {
        v += row_bias;
      }
      if (relu && !(v > 0.0f)) v = 0.0f;
      crow[j] = v;
    }
  }
}

/// One MRT x W tile over kb depth steps: op(A)(i, p) is a[i*rs + p*ds] and
/// op(B)(p, j) is brows[p][bj + j]. The 2-D accumulator and the fixed trip
/// counts keep the tile in registers, as in micro_tile.
template <int64_t MRT, int64_t W>
__attribute__((always_inline)) inline void stream_tile(
    int64_t kb, const float* a, int64_t rs, int64_t ds,
    const float* const* brows, int64_t bj, const TileOut& out) {
  float acc[MRT][W] = {};
  for (int64_t p = 0; p < kb; ++p) {
    const float* bv = brows[p] + bj;
    const float* ap = a + p * ds;
    for (int64_t i = 0; i < MRT; ++i) {
      const float ai = ap[i * rs];
#pragma omp simd
      for (int64_t j = 0; j < W; ++j) acc[i][j] += ai * bv[j];
    }
  }
  if (out.nr == W) {
    store_tile<MRT, W>(acc, std::integral_constant<int64_t, W>{}, out);
  } else {
    store_tile<MRT, W>(acc, out.nr, out);
  }
}

/// stream_tile for mr <= MRT rows, through a fixed-trip instantiation.
template <int64_t MRT, int64_t W>
__attribute__((always_inline)) inline void stream_rows(
    int64_t mr, int64_t kb, const float* a, int64_t rs, int64_t ds,
    const float* const* brows, int64_t bj, const TileOut& out) {
  if (mr == MRT) {
    stream_tile<MRT, W>(kb, a, rs, ds, brows, bj, out);
  } else if constexpr (MRT > 1) {
    stream_rows<MRT - 1, W>(mr, kb, a, rs, ds, brows, bj, out);
  }
}

FCA_MICROKERNEL_CLONES
void stream_tile_8x32(int64_t mr, int64_t kb, const float* a, int64_t rs,
                      int64_t ds, const float* const* brows, int64_t bj,
                      const TileOut& out) {
  stream_rows<8, 32>(mr, kb, a, rs, ds, brows, bj, out);
}

FCA_MICROKERNEL_CLONES
void stream_tile_4x24(int64_t mr, int64_t kb, const float* a, int64_t rs,
                      int64_t ds, const float* const* brows, int64_t bj,
                      const TileOut& out) {
  stream_rows<4, 24>(mr, kb, a, rs, ds, brows, bj, out);
}

/// True when the loader picks the x86-64-v4 clone (the same CPUID test
/// target_clones resolves with): that clone runs the 8x32 tile, the others
/// the 4x24 one.
bool wide_stream_tile() {
#if defined(__GNUC__) && !defined(__clang__) && defined(__x86_64__)
  static const bool wide = __builtin_cpu_supports("x86-64-v4");
  return wide;
#else
  return false;
#endif
}

/// sgemm_packed_rows for untransposed B: column strips of width W, each
/// over KC-deep panels, each over tiles of MRT rows. A strip past the rows'
/// last column is read through a zero-padded copy, so no row is read past
/// its n floats.
template <int64_t MRT, int64_t W>
void stream_rows_gemm(bool trans_a, int64_t m, int64_t n, int64_t k,
                      float alpha, const float* a, int64_t lda,
                      const float* const* b_rows, float beta, float* c,
                      int64_t ldc, const GemmEpilogue& epi) {
  static_assert((MRT == 8 && W == 32) || (MRT == 4 && W == 24));
  Workspace::Frame frame(Workspace::tls());
  int64_t rs = trans_a ? 1 : lda;
  int64_t ds = trans_a ? lda : 1;
  if (alpha != 1.0f) {
    // pack_a's single rounding of alpha * op(A)(i, p).
    float* scaled = frame.alloc(m * k);
    for (int64_t i = 0; i < m; ++i) {
      for (int64_t p = 0; p < k; ++p) {
        scaled[i * k + p] = alpha * a[i * rs + p * ds];
      }
    }
    a = scaled;
    rs = k;
    ds = 1;
  }
  const bool store_first_panel = beta == 0.0f;
  if (!store_first_panel) scale_c(beta, m, n, c, ldc);
  const GemmEpilogue* fused = epi.empty() ? nullptr : &epi;
  parallel_for_range(
      0, (n + W - 1) / W,
      [&](int64_t s_lo, int64_t s_hi) {
        Workspace::Frame strip_frame(Workspace::tls());
        float* pad = nullptr;
        const float* pad_rows[KC];
        for (int64_t s = s_lo; s < s_hi; ++s) {
          const int64_t j0 = s * W;
          const int64_t nr = std::min(W, n - j0);
          for (int64_t pc = 0; pc < k; pc += KC) {
            const int64_t kb = std::min(KC, k - pc);
            const float* const* brows = b_rows + pc;
            int64_t bj = j0;
            if (nr < W) {
              if (pad == nullptr) pad = strip_frame.alloc(KC * W);
              for (int64_t p = 0; p < kb; ++p) {
                float* dst = pad + p * W;
                std::memcpy(dst, b_rows[pc + p] + j0,
                            static_cast<size_t>(nr) * sizeof(float));
                std::fill(dst + nr, dst + W, 0.0f);
                pad_rows[p] = dst;
              }
              brows = pad_rows;
              bj = 0;
            }
            const bool last = pc + kb == k;
            for (int64_t i0 = 0; i0 < m; i0 += MRT) {
              const TileOut out{c,  ldc, i0, j0, nr,
                                !store_first_panel || pc > 0,
                                last ? fused : nullptr};
              const int64_t mr = std::min(MRT, m - i0);
              const float* ai = a + i0 * rs + pc * ds;
              if constexpr (W == 32) {
                stream_tile_8x32(mr, kb, ai, rs, ds, brows, bj, out);
              } else {
                stream_tile_4x24(mr, kb, ai, rs, ds, brows, bj, out);
              }
            }
          }
        }
      },
      /*grain=*/4);
}

/// sgemm_packed over any stored-row source of B (StridedRows for
/// sgemm_packed, RowPointers for sgemm_packed_rows): one dispatch, one
/// sequence per shape. Only the general path differs by source — a
/// row-pointer B untransposed is streamed in place instead of packed.
template <class Rows>
void packed_impl(bool trans_a, bool trans_b, int64_t m, int64_t n, int64_t k,
                 float alpha, const float* a, int64_t lda, const Rows& b,
                 float beta, float* c, int64_t ldc, const GemmEpilogue& epi) {
  FCA_CHECK(m >= 0 && n >= 0 && k >= 0);
  if (m == 0 || n == 0) return;
  if (k == 0 || alpha == 0.0f) {
    scale_c(beta, m, n, c, ldc);
    apply_gemm_epilogue(m, n, c, ldc, epi);
    return;
  }

  // A transposed call with a 1x1 result is a bare k-element dot product:
  // gathering the strided operand into a panel would cost as much as the
  // product itself. It runs sgemm_naive's loop instead — beta first, then
  // (alpha * a_p) * b_p added in ascending p — so it is byte-identical to
  // the oracle. It must dispatch before the rank-k path, which would also
  // take the trans_a case.
  if ((trans_a || trans_b) && m == 1 && n == 1) {
    const int64_t a_step = trans_a ? lda : 1;
    scale_c(beta, 1, 1, c, ldc);
    for (int64_t p = 0; p < k; ++p) {
      const float bp = trans_b ? b(0)[p] : b(p)[0];
      c[0] += (alpha * a[p * a_step]) * bp;
    }
    apply_gemm_epilogue(1, 1, c, ldc, epi);
    return;
  }

  // A row-pointer B untransposed is streamed in place (see stream_tile) at
  // every depth above the row update's.
  if constexpr (std::is_same_v<Rows, RowPointers>) {
    if (!trans_b && k > kGemmRowUpdateMaxK) {
      if (wide_stream_tile()) {
        stream_rows_gemm<8, 32>(trans_a, m, n, k, alpha, a, lda, b.rows, beta,
                                c, ldc, epi);
      } else {
        stream_rows_gemm<4, 24>(trans_a, m, n, k, alpha, a, lda, b.rows, beta,
                                c, ldc, epi);
      }
      return;
    }
  }

  // The rank-k row-update path folds beta in itself; it must dispatch before
  // the general path's upfront C scaling.
  if (k <= kGemmRowUpdateMaxK && !trans_b) {
    const float* b_rows[kGemmRowUpdateMaxK];
    for (int64_t p = 0; p < k; ++p) b_rows[p] = b(p);
    parallel_for_range(
        0, m,
        [&](int64_t i_lo, int64_t i_hi) {
          for (int64_t i = i_lo; i < i_hi; ++i) {
            float av[kGemmRowUpdateMaxK];
            if (!trans_a) {
              const float* src = a + i * lda;
              for (int64_t p = 0; p < k; ++p) av[p] = alpha * src[p];
            } else {
              for (int64_t p = 0; p < k; ++p) av[p] = alpha * a[p * lda + i];
            }
            float* crow = c + i * ldc;
            sgemm_row_update(n, k, av, b_rows, beta, crow);
            if (!epi.empty()) {
              // Single-row epilogue: a per-row bias must be re-anchored to
              // this row, since apply_gemm_epilogue sees a 1-row matrix.
              GemmEpilogue row_epi = epi;
              if (row_epi.bias_kind == GemmEpilogue::Bias::kPerRow) {
                row_epi.bias = epi.bias + i;
              }
              apply_gemm_epilogue(1, n, crow, ldc, row_epi);
            }
          }
        },
        /*grain=*/16);
    return;
  }

  // Narrow-C streaming path (see kSmallNMax): transpose alpha*op(B) once —
  // with trans_b that reads B's rows contiguously — then stream A unpacked.
  // Each register tile holds its C rows across the FULL depth, so C is
  // written exactly once and there is no per-KC-panel traffic at all.
  if (n <= kSmallNMax && trans_b) {
    const int64_t w = n <= 8 ? 8 : 16;  // padded panel width
    // The paired-depth 8-wide kernel needs the streamed rows contiguous in k
    // (depth stride 1) and blocks 6 rows at a time; the plain 12x8 tile
    // covers the strided-depth case.
    const bool pairk = w == 8 && !trans_a;
    const int64_t mrb = w == 16 || pairk ? 6 : 12;  // rows per register tile
    Workspace::Frame bt_frame(Workspace::tls());
    float* bt = bt_frame.alloc(k * w);
    // bt[p * w + j] = alpha * op(B)(p, j) = alpha * B[j][p]. Folding alpha
    // into the B side (the A side elsewhere) changes product rounding but
    // stays within the parity bound; the accumulation order is untouched.
    for (int64_t j = 0; j < n; ++j) {
      const float* src = b(j);
      for (int64_t p = 0; p < k; ++p) bt[p * w + j] = alpha * src[p];
    }
    if (n < w) {
      for (int64_t p = 0; p < k; ++p) {
        for (int64_t j = n; j < w; ++j) bt[p * w + j] = 0.0f;
      }
    }
    const int64_t depth_stride = trans_a ? lda : 1;
    parallel_for_range(
        0, m,
        [&](int64_t lo, int64_t hi) {
          float acc[12 * 8];  // max(12*8, 6*16)
          const float* rows[12];
          for (int64_t i0 = lo; i0 < hi; i0 += mrb) {
            const int64_t mr = std::min(mrb, hi - i0);
            for (int64_t i = 0; i < mr; ++i) {
              rows[i] = a + (trans_a ? i0 + i : (i0 + i) * lda);
            }
            if (w == 8) {
              if (pairk) {
                smalln_block8_pairk(k, mr, rows, bt, acc);
              } else {
                smalln_block8(k, mr, rows, depth_stride, bt, acc);
              }
            } else {
              smalln_block16(k, mr, rows, depth_stride, bt, acc);
            }
            for (int64_t i = 0; i < mr; ++i) {
              float* crow = c + (i0 + i) * ldc;
              const float* arow = acc + i * w;
              if (beta == 0.0f) {
                for (int64_t j = 0; j < n; ++j) crow[j] = arow[j];
              } else if (beta == 1.0f) {
                for (int64_t j = 0; j < n; ++j) crow[j] += arow[j];
              } else {
                for (int64_t j = 0; j < n; ++j) {
                  crow[j] = beta * crow[j] + arow[j];
                }
              }
              if (!epi.empty()) {
                GemmEpilogue row_epi = epi;
                if (row_epi.bias_kind == GemmEpilogue::Bias::kPerRow) {
                  row_epi.bias = epi.bias + i0 + i;
                }
                apply_gemm_epilogue(1, n, crow, ldc, row_epi);
              }
            }
          }
        },
        /*grain=*/24);
    return;
  }

  // Symmetric narrow-C path for small m: compute C^T block-row-wise with the
  // same kernels — at[p*w + i] = alpha*op(A)(i, p) is the transposed panel,
  // B's rows (op(B)^T's rows) are streamed unpacked, and each finished tile
  // of C^T rows (= C columns) is scattered into C, every element written
  // exactly once. This is the wgrad shape: m = out_channels_per_group (8 or
  // 16) with n = col_rows and k = oh*ow — the packed path would pack the
  // n*k column matrix just to produce an m*n result. trans_b only: that is
  // when op(B)^T's rows are contiguous in the depth and stream linearly;
  // without it (e.g. conv forward, also m = ocg) the packed path's measured
  // throughput is already good and the stream here would be ldb-strided.
  if (m <= kSmallNMax && trans_b) {
    const int64_t w = m <= 8 ? 8 : 16;
    // The streamed rows are contiguous in k, so the 8-wide case always uses
    // the paired-depth kernel (6-row blocks).
    const int64_t mrb = 6;
    Workspace::Frame at_frame(Workspace::tls());
    float* at = at_frame.alloc(k * w);
    if (trans_a) {
      for (int64_t p = 0; p < k; ++p) {
        const float* src = a + p * lda;
        for (int64_t i = 0; i < m; ++i) at[p * w + i] = alpha * src[i];
      }
    } else {
      for (int64_t i = 0; i < m; ++i) {
        const float* src = a + i * lda;
        for (int64_t p = 0; p < k; ++p) at[p * w + i] = alpha * src[p];
      }
    }
    if (m < w) {
      for (int64_t p = 0; p < k; ++p) {
        for (int64_t i = m; i < w; ++i) at[p * w + i] = 0.0f;
      }
    }
    parallel_for_range(
        0, n,
        [&](int64_t lo, int64_t hi) {
          float acc[12 * 8];  // max(12*8, 6*16)
          const float* rows[6];
          for (int64_t j0 = lo; j0 < hi; j0 += mrb) {
            const int64_t jr = std::min(mrb, hi - j0);
            for (int64_t jj = 0; jj < jr; ++jj) rows[jj] = b(j0 + jj);
            if (w == 8) {
              smalln_block8_pairk(k, jr, rows, at, acc);
            } else {
              smalln_block16(k, jr, rows, 1, at, acc);
            }
            for (int64_t jj = 0; jj < jr; ++jj) {
              const float* arow = acc + jj * w;
              float* ccol = c + j0 + jj;
              if (beta == 0.0f) {
                for (int64_t i = 0; i < m; ++i) ccol[i * ldc] = arow[i];
              } else if (beta == 1.0f) {
                for (int64_t i = 0; i < m; ++i) ccol[i * ldc] += arow[i];
              } else {
                for (int64_t i = 0; i < m; ++i) {
                  ccol[i * ldc] = beta * ccol[i * ldc] + arow[i];
                }
              }
            }
          }
        },
        /*grain=*/24);
    apply_gemm_epilogue(m, n, c, ldc, epi);
    return;
  }

  // beta == 0 skips the upfront zero-fill: the first k panel stores straight
  // into C instead of accumulating into zeros, dropping two full C passes
  // (the zero-fill write and the first panel's read-modify-write).
  const bool store_first_panel = beta == 0.0f;
  if (!store_first_panel) scale_c(beta, m, n, c, ldc);

  Workspace::Frame caller_frame(Workspace::tls());
  // One B-panel buffer sized for the largest (kb, nb) this call will see;
  // repacked in place each (jc, pc) iteration so the frame never grows.
  float* bp = caller_frame.alloc(std::min(KC, k) *
                                 round_up(std::min(NC, n), NR));
  const int64_t row_blocks = (m + MC - 1) / MC;

  for (int64_t jc = 0; jc < n; jc += NC) {
    const int64_t nb = std::min(NC, n - jc);
    for (int64_t pc = 0; pc < k; pc += KC) {
      const int64_t kb = std::min(KC, k - pc);
      const bool last_panel = pc + kb == k;
      const bool fuse_epi = last_panel && !epi.empty();
      const bool accumulate = !store_first_panel || pc > 0;
      pack_b(b, trans_b, pc, jc, kb, nb, bp);
      parallel_for_range(
          0, row_blocks,
          [&](int64_t blk_lo, int64_t blk_hi) {
            Workspace::Frame frame(Workspace::tls());
            float* ap = frame.alloc(MC * kb);
            for (int64_t bi = blk_lo; bi < blk_hi; ++bi) {
              const int64_t ic = bi * MC;
              const int64_t mb = std::min(MC, m - ic);
              pack_a(a, lda, trans_a, ic, pc, mb, kb, alpha, ap);
              float acc[MR * NR];
              const float* bpanel = bp;
              for (int64_t jr = 0; jr < nb; jr += NR) {
                const int64_t w = panel_width(nb, jr);
                const int64_t nr = std::min(w, nb - jr);
                for (int64_t ir = 0; ir < mb; ir += MR) {
                  const float* apanel = ap + (ir / MR) * MR * kb;
                  const int64_t mr = std::min(MR, mb - ir);
                  if (w == NR) {
                    if (mr == MR) {
                      micro_kernel(kb, apanel, bpanel, acc);
                    } else {
                      micro_kernel_tail(kb, mr, apanel, bpanel, acc);
                    }
                  } else {
                    if (mr == MR) {
                      micro_kernel_half(kb, apanel, bpanel, acc);
                    } else {
                      micro_kernel_half_tail(kb, mr, apanel, bpanel, acc);
                    }
                  }
                  write_back(acc, w, c, ldc, ic + ir, jc + jr, mr, nr,
                             accumulate, fuse_epi, epi);
                }
                bpanel += w * kb;
              }
            }
          },
          /*grain=*/1);
    }
  }
}

}  // namespace

void sgemm_packed(bool trans_a, bool trans_b, int64_t m, int64_t n, int64_t k,
                  float alpha, const float* a, int64_t lda, const float* b,
                  int64_t ldb, float beta, float* c, int64_t ldc,
                  const GemmEpilogue& epi) {
  obs::ProfileSpan span("kernel", "sgemm", 2 * m * n * k);
  packed_impl(trans_a, trans_b, m, n, k, alpha, a, lda, StridedRows{b, ldb},
              beta, c, ldc, epi);
}

void sgemm_packed_rows(bool trans_a, bool trans_b, int64_t m, int64_t n,
                       int64_t k, float alpha, const float* a, int64_t lda,
                       const float* const* b_rows, float beta, float* c,
                       int64_t ldc, const GemmEpilogue& epi) {
  obs::ProfileSpan span("kernel", "sgemm", 2 * m * n * k);
  packed_impl(trans_a, trans_b, m, n, k, alpha, a, lda, RowPointers{b_rows},
              beta, c, ldc, epi);
}

int64_t gemm_stream_width() { return wide_stream_tile() ? 32 : 24; }

}  // namespace fca
