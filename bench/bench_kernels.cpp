// Conv2d forward bench: microseconds and GFLOP/s per layer shape, written to
// BENCH_kernels.json so CI can track the conv forward over time (DESIGN.md
// §9).
//
// The shapes are not synthetic: each entry is a dense conv of one of the
// bench_e2e workloads' backbones at that workload's image size (fedavg-shm:
// MiniResNet width 16 on 8x8 one-channel images; hetero-fca: width 8 on
// 16x16; paged-cohort: width 8 on 12x12), including every 2x2, 3x3 and 4x4
// output plane they run. Each shape runs at batch 2, 8 and 16 — the eval
// batches those workloads see — through nn::Conv2d::forward in eval mode, the
// call the per-client evaluation makes. The bench times one lane (a
// ThreadPool::SerialRegion), as a client's evaluation runs inside the round
// executor.
//
// Usage: bench_kernels [output.json]   (default BENCH_kernels.json)
#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "nn/conv.hpp"
#include "tensor/tensor.hpp"
#include "utils/rng.hpp"
#include "utils/threadpool.hpp"

namespace {

using fca::Rng;
using fca::Tensor;

struct ConvShape {
  const char* name;  // workload.backbone.layer
  int64_t c_in, c_out, kernel, stride, pad, size;  // square input planes
};

const ConvShape kShapes[] = {
    {"fedavg-shm.resnet.stem", 1, 16, 3, 1, 1, 8},
    {"fedavg-shm.resnet.stage1", 16, 16, 3, 1, 1, 8},
    {"fedavg-shm.resnet.stage2.down", 16, 32, 3, 2, 1, 8},
    {"fedavg-shm.resnet.stage2", 32, 32, 3, 1, 1, 4},
    {"fedavg-shm.resnet.stage3.down", 32, 64, 3, 2, 1, 4},
    {"fedavg-shm.resnet.stage3", 64, 64, 3, 1, 1, 2},
    {"fedavg-shm.resnet.stage3.shortcut", 32, 64, 1, 2, 0, 4},
    {"hetero-fca.resnet.stage1", 8, 8, 3, 1, 1, 16},
    {"hetero-fca.resnet.stage3", 32, 32, 3, 1, 1, 4},
    {"hetero-fca.alexnet.conv3", 16, 32, 3, 1, 1, 4},
    {"hetero-fca.shufflenet.unit4.pointwise", 16, 16, 1, 1, 0, 4},
    {"paged-cohort.resnet.stage3", 32, 32, 3, 1, 1, 3},
    {"paged-cohort.resnet.stage3.shortcut", 16, 32, 1, 2, 0, 6},
    {"paged-cohort.alexnet.conv3", 16, 32, 3, 1, 1, 3},
    {"paged-cohort.shufflenet.unit4.pointwise", 16, 16, 1, 1, 0, 3},
};

const int64_t kBatches[] = {2, 8, 16};

struct Measurement {
  const ConvShape* shape;
  int64_t batch, out, iters;
  double us;  // median microseconds per forward
  double gflops;
};

/// Times the forward: warms up twice, then takes the median of 9 repeats,
/// each of enough calls to cover ~100 MFLOP (min 3) so that small shapes are
/// not timed as a single sub-microsecond call.
Measurement measure(const ConvShape& s, int64_t batch) {
  Rng rng(1);
  fca::nn::Conv2d conv(s.c_in, s.c_out, s.kernel, s.stride, s.pad, rng,
                       /*bias=*/false);
  const Tensor x =
      Tensor::rand({batch, s.c_in, s.size, s.size}, rng, -1.0f, 1.0f);
  const int64_t out = (s.size + 2 * s.pad - s.kernel) / s.stride + 1;
  const double flop = 2.0 * static_cast<double>(batch * s.c_out * out * out) *
                      static_cast<double>(s.c_in * s.kernel * s.kernel);
  const int64_t iters =
      std::max<int64_t>(3, static_cast<int64_t>(1.0e8 / flop));

  fca::ThreadPool::SerialRegion one_lane;
  float sink = 0.0f;
  for (int w = 0; w < 2; ++w) sink += conv.forward(x, /*train=*/false)[0];
  std::vector<double> reps;
  for (int r = 0; r < 9; ++r) {
    const auto t0 = std::chrono::steady_clock::now();
    for (int64_t i = 0; i < iters; ++i) {
      sink += conv.forward(x, /*train=*/false)[0];
    }
    const auto t1 = std::chrono::steady_clock::now();
    reps.push_back(std::chrono::duration<double>(t1 - t0).count() /
                   static_cast<double>(iters));
  }
  // Keep the results live so the loops cannot be discarded.
  volatile float keep = sink;
  (void)keep;
  std::sort(reps.begin(), reps.end());
  const double seconds = reps[reps.size() / 2];
  return Measurement{&s, batch, out, iters, seconds * 1.0e6,
                     flop / seconds / 1.0e9};
}

}  // namespace

int main(int argc, char** argv) {
  const std::string out_path = argc > 1 ? argv[1] : "BENCH_kernels.json";

  std::vector<Measurement> results;
  for (const ConvShape& s : kShapes) {
    for (const int64_t batch : kBatches) {
      const Measurement m = measure(s, batch);
      std::printf("%-40s b=%-3lld out=%2lldx%-2lld %9.2f us %8.2f GFLOP/s\n",
                  s.name, static_cast<long long>(batch),
                  static_cast<long long>(m.out), static_cast<long long>(m.out),
                  m.us, m.gflops);
      results.push_back(m);
    }
  }

  std::FILE* f = std::fopen(out_path.c_str(), "w");
  if (!f) {
    std::fprintf(stderr, "cannot open %s for writing\n", out_path.c_str());
    return 1;
  }
  std::fprintf(f,
               "{\n  \"bench\": \"kernels\",\n  \"call\": \"nn::Conv2d::"
               "forward, eval mode, one lane\",\n  \"flop_model\": "
               "\"2*batch*c_out*out*out*c_in*kernel*kernel\",\n");
  std::fprintf(f, "  \"results\": [\n");
  for (size_t i = 0; i < results.size(); ++i) {
    const Measurement& m = results[i];
    const ConvShape& s = *m.shape;
    std::fprintf(f,
                 "    {\"shape\": \"%s\", \"batch\": %lld, \"c_in\": %lld, "
                 "\"c_out\": %lld, \"kernel\": %lld, \"stride\": %lld, "
                 "\"in\": %lld, \"out\": %lld, \"iters\": %lld, "
                 "\"us\": %.2f, \"gflops\": %.3f}%s\n",
                 s.name, static_cast<long long>(m.batch),
                 static_cast<long long>(s.c_in),
                 static_cast<long long>(s.c_out),
                 static_cast<long long>(s.kernel),
                 static_cast<long long>(s.stride),
                 static_cast<long long>(s.size), static_cast<long long>(m.out),
                 static_cast<long long>(m.iters), m.us, m.gflops,
                 i + 1 < results.size() ? "," : "");
  }
  std::fprintf(f, "  ]\n}\n");
  std::fclose(f);
  std::printf("\nwrote %s\n", out_path.c_str());
  return 0;
}
