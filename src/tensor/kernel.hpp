// Kernel dispatch layer (DESIGN.md §9).
//
// Every GEMM in the library funnels through fca::sgemm / fca::sgemm_ex,
// which select one of two interchangeable implementations at runtime:
//
//   naive    — the IEEE-faithful triple loop; correctness oracle.
//   packed   — BLIS-style register-tiled micro-kernel over packed A/B panels
//              (compiler-vectorized fixed-size tiles); the default.
//
// Selection precedence: set_gemm_kernel() override > FCA_GEMM_KERNEL env
// (naive|packed|auto, read once) > kAuto, which resolves to kPacked.
// Both kernels share the determinism contract: for a fixed selection, every
// output element is accumulated in a fixed k-order independent of thread
// count, so reruns and any --client-parallelism are bit-identical.
#pragma once

#include <string_view>

// GCC function multiversioning for the hot vector loops (the GEMM
// micro-kernels, the direct depthwise Conv2d kernels, MaxPool2d's window
// scan, BatchNorm2d's passes, Adam's update): one binary carries a baseline
// SSE2 clone, an x86-64-v3 (AVX2 + FMA) clone and an x86-64-v4 (AVX-512)
// clone, resolved through IFUNC at load time. Each GEMM lane is an independent output
// element and no cloned GEMM loop reduces horizontally, so v3 and v4 run the
// same per-element sequence and give the same bytes; the baseline clone has
// no FMA, so its multiply-adds round twice and its bytes differ.
// BatchNorm2d's sums reduce in an explicit lane order and its elementwise
// passes, like Adam's update, are built without contraction, so all three
// of their clones agree.
// Compilers or targets without the attribute build the baseline only.
#if defined(__GNUC__) && !defined(__clang__) && defined(__x86_64__)
#define FCA_MICROKERNEL_CLONES \
  __attribute__((target_clones("default", "arch=x86-64-v3", "arch=x86-64-v4")))
#else
#define FCA_MICROKERNEL_CLONES
#endif

namespace fca {

enum class GemmKernel : int {
  kAuto = 0,    // resolve to the best available (currently kPacked)
  kNaive = 1,   // reference triple loop
  kPacked = 2,  // packed register-tiled micro-kernel
};

/// Current selection as set (may be kAuto). Thread-safe.
GemmKernel gemm_kernel();

/// Overrides the selection for the whole process (tests, benches, CLI).
/// Passing kAuto restores env/default resolution.
void set_gemm_kernel(GemmKernel k);

/// The kernel sgemm() will actually run: resolves kAuto (and, on first use,
/// the FCA_GEMM_KERNEL environment variable). Never returns kAuto.
GemmKernel resolved_gemm_kernel();

/// Stable lower-case name ("auto", "naive", "packed").
const char* gemm_kernel_name(GemmKernel k);

/// Parses a kernel name; returns false (and leaves *out untouched) on an
/// unknown name.
bool parse_gemm_kernel(std::string_view name, GemmKernel* out);

/// RAII override used by tests: forces a kernel for the scope's lifetime and
/// restores the previous selection on exit.
class ScopedGemmKernel {
 public:
  explicit ScopedGemmKernel(GemmKernel k) : previous_(gemm_kernel()) {
    set_gemm_kernel(k);
  }
  ~ScopedGemmKernel() { set_gemm_kernel(previous_); }
  ScopedGemmKernel(const ScopedGemmKernel&) = delete;
  ScopedGemmKernel& operator=(const ScopedGemmKernel&) = delete;

 private:
  GemmKernel previous_;
};

}  // namespace fca
