// Kernel regression bench: GFLOP/s per GEMM kernel per shape, written to
// BENCH_kernels.json so CI can track the packed kernel against the naive
// baseline over time (DESIGN.md §9).
//
// The shape list is not synthetic: each conv entry is the (m, n, k) the
// im2col lowering actually produces for a layer of the paper's model zoo at
// 32x32 inputs (m = out channels, k = in_channels * kh * kw, n = oh * ow),
// plus the Linear/classifier shapes and a few squares for calibration
// against textbook numbers.
//
// Usage: bench_kernels [output.json]   (default BENCH_kernels.json)
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "tensor/gemm.hpp"
#include "utils/rng.hpp"

namespace {

using fca::Rng;

struct ShapeCase {
  const char* name;  // which layer this lowering comes from
  int64_t m, n, k;
};

// m = out channels, k = in_c * kh * kw, n = oh * ow.
const ShapeCase kShapes[] = {
    {"cnn2.conv1.5x5", 16, 1024, 75},      // 3->16, 5x5, 32x32 out
    {"cnn2.conv2.5x5", 32, 256, 400},      // 16->32, 5x5, 16x16 out
    {"resnet.stem.3x3", 16, 1024, 27},     // 3->16, 3x3, 32x32 out
    {"resnet.stage1.3x3", 16, 1024, 144},  // 16->16, 3x3, 32x32 out
    {"resnet.stage2.3x3", 32, 256, 288},   // 16->32 s2, 3x3, 16x16 out
    {"resnet.stage3.3x3", 64, 64, 576},    // 32->64 s2, 3x3, 8x8 out
    {"alexnet.conv.3x3", 96, 64, 864},     // 96->96-ish midnet block
    {"linear.feature", 32, 128, 2048},     // batch 32, flat -> feature_dim
    {"linear.classifier", 32, 10, 128},    // batch 32, feature -> classes
    {"square.64", 64, 64, 64},
    {"square.128", 128, 128, 128},
    {"square.256", 256, 256, 256},
};

std::vector<float> random_matrix(int64_t n, uint64_t seed) {
  Rng rng(seed);
  std::vector<float> v(static_cast<size_t>(n));
  for (auto& x : v) x = static_cast<float>(rng.uniform(-1.0, 1.0));
  return v;
}

using KernelFn = void (*)(int64_t m, int64_t n, int64_t k, const float* a,
                          const float* b, float* c);

void run_naive(int64_t m, int64_t n, int64_t k, const float* a, const float* b,
               float* c) {
  fca::sgemm_naive(false, false, m, n, k, 1.0f, a, k, b, n, 0.0f, c, n);
}
void run_packed(int64_t m, int64_t n, int64_t k, const float* a,
                const float* b, float* c) {
  fca::sgemm_packed(false, false, m, n, k, 1.0f, a, k, b, n, 0.0f, c, n);
}

struct KernelEntry {
  const char* name;
  KernelFn fn;
};

const KernelEntry kKernels[] = {
    {"naive", run_naive},
    {"packed", run_packed},
};

struct Measurement {
  const ShapeCase* shape;
  const char* kernel;
  int64_t iters;
  double seconds;
  double gflops;
};

/// Times `fn` on the shape: warms up twice, then runs enough iterations to
/// cover ~25 MFLOP-equivalents (min 3) so fast kernels on small shapes are
/// not timed as a single sub-microsecond call.
Measurement measure(const ShapeCase& sc, const KernelEntry& kern) {
  const auto a = random_matrix(sc.m * sc.k, 1);
  const auto b = random_matrix(sc.k * sc.n, 2);
  std::vector<float> c(static_cast<size_t>(sc.m * sc.n), 0.0f);

  const double flop = 2.0 * static_cast<double>(sc.m) * sc.n * sc.k;
  int64_t iters = static_cast<int64_t>(25.0e6 / flop) + 1;
  if (iters < 3) iters = 3;

  kern.fn(sc.m, sc.n, sc.k, a.data(), b.data(), c.data());
  kern.fn(sc.m, sc.n, sc.k, a.data(), b.data(), c.data());

  const auto t0 = std::chrono::steady_clock::now();
  for (int64_t i = 0; i < iters; ++i) {
    kern.fn(sc.m, sc.n, sc.k, a.data(), b.data(), c.data());
  }
  const auto t1 = std::chrono::steady_clock::now();
  // Keep the result live so the whole loop cannot be discarded.
  volatile float sink = c[0];
  (void)sink;

  Measurement res;
  res.shape = &sc;
  res.kernel = kern.name;
  res.iters = iters;
  res.seconds = std::chrono::duration<double>(t1 - t0).count();
  res.gflops = res.seconds > 0.0
                   ? flop * static_cast<double>(iters) / res.seconds / 1.0e9
                   : 0.0;
  return res;
}

}  // namespace

int main(int argc, char** argv) {
  const std::string out_path = argc > 1 ? argv[1] : "BENCH_kernels.json";

  std::vector<Measurement> results;
  for (const ShapeCase& sc : kShapes) {
    for (const KernelEntry& kern : kKernels) {
      const Measurement m = measure(sc, kern);
      std::printf("%-20s %-8s m=%-4lld n=%-4lld k=%-4lld %8.3f GFLOP/s\n",
                  sc.name, m.kernel, static_cast<long long>(sc.m),
                  static_cast<long long>(sc.n), static_cast<long long>(sc.k),
                  m.gflops);
      results.push_back(m);
    }
  }

  // Per-shape packed/naive speedup summary (the regression headline).
  std::printf("\n%-20s %10s\n", "shape", "packed/naive");
  for (size_t i = 0; i + 1 < results.size(); i += 2) {
    const Measurement& naive = results[i];
    const Measurement& packed = results[i + 1];
    std::printf("%-20s %9.2fx\n", naive.shape->name,
                naive.gflops > 0.0 ? packed.gflops / naive.gflops : 0.0);
  }

  std::FILE* f = std::fopen(out_path.c_str(), "w");
  if (!f) {
    std::fprintf(stderr, "cannot open %s for writing\n", out_path.c_str());
    return 1;
  }
  std::fprintf(f, "{\n  \"bench\": \"kernels\",\n  \"flop_model\": \"2*m*n*k\",\n");
  std::fprintf(f, "  \"results\": [\n");
  for (size_t i = 0; i < results.size(); ++i) {
    const Measurement& m = results[i];
    std::fprintf(f,
                 "    {\"shape\": \"%s\", \"kernel\": \"%s\", \"m\": %lld, "
                 "\"n\": %lld, \"k\": %lld, \"iters\": %lld, "
                 "\"seconds\": %.6f, \"gflops\": %.3f}%s\n",
                 m.shape->name, m.kernel, static_cast<long long>(m.shape->m),
                 static_cast<long long>(m.shape->n),
                 static_cast<long long>(m.shape->k),
                 static_cast<long long>(m.iters), m.seconds, m.gflops,
                 i + 1 < results.size() ? "," : "");
  }
  std::fprintf(f, "  ]\n}\n");
  std::fclose(f);
  std::printf("\nwrote %s\n", out_path.c_str());
  return 0;
}
