#include "tensor/kernel.hpp"

#include <atomic>
#include <cstdlib>

#include "utils/logging.hpp"

namespace fca {
namespace {

// kUnset makes the env lookup lazy but once-only; set_gemm_kernel() writes
// any other value and wins over the environment from then on.
constexpr int kUnset = -1;
std::atomic<int> g_kernel{kUnset};

GemmKernel from_env() {
  const char* env = std::getenv("FCA_GEMM_KERNEL");
  if (env == nullptr || *env == '\0') return GemmKernel::kAuto;
  GemmKernel k;
  if (!parse_gemm_kernel(env, &k)) {
    FCA_LOG_WARN << "FCA_GEMM_KERNEL='" << env
                 << "' is not one of auto|naive|packed; using auto";
    return GemmKernel::kAuto;
  }
  return k;
}

}  // namespace

GemmKernel gemm_kernel() {
  int v = g_kernel.load(std::memory_order_relaxed);
  if (v == kUnset) {
    v = static_cast<int>(from_env());
    int expected = kUnset;
    // If another thread resolved (or an override landed) first, keep theirs.
    if (!g_kernel.compare_exchange_strong(expected, v,
                                          std::memory_order_relaxed)) {
      v = expected;
    }
  }
  return static_cast<GemmKernel>(v);
}

void set_gemm_kernel(GemmKernel k) {
  if (k == GemmKernel::kAuto) {
    // Restore env/default resolution rather than pinning the literal kAuto,
    // so a later FCA_GEMM_KERNEL change in-process (tests) is honored.
    g_kernel.store(static_cast<int>(from_env()), std::memory_order_relaxed);
    return;
  }
  g_kernel.store(static_cast<int>(k), std::memory_order_relaxed);
}

GemmKernel resolved_gemm_kernel() {
  const GemmKernel k = gemm_kernel();
  return k == GemmKernel::kAuto ? GemmKernel::kPacked : k;
}

const char* gemm_kernel_name(GemmKernel k) {
  switch (k) {
    case GemmKernel::kAuto:
      return "auto";
    case GemmKernel::kNaive:
      return "naive";
    case GemmKernel::kPacked:
      return "packed";
  }
  return "unknown";
}

bool parse_gemm_kernel(std::string_view name, GemmKernel* out) {
  if (name == "auto") {
    *out = GemmKernel::kAuto;
  } else if (name == "naive") {
    *out = GemmKernel::kNaive;
  } else if (name == "packed") {
    *out = GemmKernel::kPacked;
  } else {
    return false;
  }
  return true;
}

}  // namespace fca
