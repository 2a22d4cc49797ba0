#include "nn/module.hpp"

#include <algorithm>

#include "utils/error.hpp"

namespace fca::nn {
namespace {
thread_local MacCounter* tl_mac_counter = nullptr;
}  // namespace

MacCounter::MacCounter() : outer_(tl_mac_counter) { tl_mac_counter = this; }

MacCounter::~MacCounter() { tl_mac_counter = outer_; }

void MacCounter::add(int64_t macs) {
  if (tl_mac_counter != nullptr) tl_mac_counter->count_ += macs;
}

std::vector<Param*> Module::parameters() {
  std::vector<Param*> out;
  collect_params(out);
  return out;
}

int64_t Module::parameter_count() {
  int64_t n = 0;
  for (const Param* p : parameters()) n += p->numel();
  return n;
}

Tensor slice_channels(const Tensor& x, int64_t from, int64_t to) {
  FCA_CHECK(x.ndim() == 4);
  const int64_t b = x.dim(0), c = x.dim(1), h = x.dim(2), w = x.dim(3);
  FCA_CHECK(0 <= from && from <= to && to <= c);
  Tensor out = Tensor::uninit({b, to - from, h, w});
  const int64_t hw = h * w;
  for (int64_t i = 0; i < b; ++i) {
    const float* src = x.data() + (i * c + from) * hw;
    std::copy_n(src, (to - from) * hw, out.data() + i * (to - from) * hw);
  }
  return out;
}

Tensor concat_channels(const std::vector<Tensor>& parts) {
  FCA_CHECK(!parts.empty());
  const int64_t b = parts.front().dim(0);
  const int64_t h = parts.front().dim(2);
  const int64_t w = parts.front().dim(3);
  int64_t c_total = 0;
  for (const auto& p : parts) {
    FCA_CHECK(p.ndim() == 4 && p.dim(0) == b && p.dim(2) == h && p.dim(3) == w);
    c_total += p.dim(1);
  }
  Tensor out = Tensor::uninit({b, c_total, h, w});
  const int64_t hw = h * w;
  for (int64_t i = 0; i < b; ++i) {
    int64_t c_off = 0;
    for (const auto& p : parts) {
      const int64_t c = p.dim(1);
      std::copy_n(p.data() + i * c * hw, c * hw,
                  out.data() + (i * c_total + c_off) * hw);
      c_off += c;
    }
  }
  return out;
}

}  // namespace fca::nn
