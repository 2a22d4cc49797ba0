#include "tensor/ops.hpp"

#include <algorithm>
#include <cmath>

#include "tensor/gemm.hpp"
#include "utils/error.hpp"

namespace fca {
namespace {

void check_same_shape(const Tensor& a, const Tensor& b, const char* op) {
  FCA_CHECK_MSG(a.same_shape(b), op << ": shape mismatch "
                                    << shape_to_string(a.shape()) << " vs "
                                    << shape_to_string(b.shape()));
}

template <typename F>
Tensor binary(const Tensor& a, const Tensor& b, const char* name, F f) {
  check_same_shape(a, b, name);
  Tensor out = Tensor::uninit(a.shape());
  const float* pa = a.data();
  const float* pb = b.data();
  float* po = out.data();
  const int64_t n = a.numel();
  for (int64_t i = 0; i < n; ++i) po[i] = f(pa[i], pb[i]);
  return out;
}

template <typename F>
Tensor unary(const Tensor& a, F f) {
  Tensor out = Tensor::uninit(a.shape());
  const float* pa = a.data();
  float* po = out.data();
  const int64_t n = a.numel();
  for (int64_t i = 0; i < n; ++i) po[i] = f(pa[i]);
  return out;
}

}  // namespace

Tensor add(const Tensor& a, const Tensor& b) {
  return binary(a, b, "add", [](float x, float y) { return x + y; });
}
Tensor sub(const Tensor& a, const Tensor& b) {
  return binary(a, b, "sub", [](float x, float y) { return x - y; });
}
Tensor mul(const Tensor& a, const Tensor& b) {
  return binary(a, b, "mul", [](float x, float y) { return x * y; });
}
Tensor div(const Tensor& a, const Tensor& b) {
  return binary(a, b, "div", [](float x, float y) { return x / y; });
}
Tensor add_scalar(const Tensor& a, float s) {
  return unary(a, [s](float x) { return x + s; });
}
Tensor mul_scalar(const Tensor& a, float s) {
  return unary(a, [s](float x) { return x * s; });
}
Tensor exp(const Tensor& a) {
  return unary(a, [](float x) { return std::exp(x); });
}
Tensor log(const Tensor& a) {
  return unary(a, [](float x) { return std::log(x); });
}
Tensor neg(const Tensor& a) {
  return unary(a, [](float x) { return -x; });
}

Tensor relu(const Tensor& a) {
  return unary(a, [](float x) { return x > 0.0f ? x : 0.0f; });
}

Tensor relu_backward(const Tensor& x, const Tensor& grad_out) {
  return binary(x, grad_out, "relu_backward",
                [](float xv, float g) { return xv > 0.0f ? g : 0.0f; });
}

void add_(Tensor& a, const Tensor& b) {
  check_same_shape(a, b, "add_");
  float* pa = a.data();
  const float* pb = b.data();
  for (int64_t i = 0; i < a.numel(); ++i) pa[i] += pb[i];
}
void mul_scalar_(Tensor& a, float s) {
  float* pa = a.data();
  for (int64_t i = 0; i < a.numel(); ++i) pa[i] *= s;
}
void axpy_(Tensor& a, float alpha, const Tensor& b) {
  check_same_shape(a, b, "axpy_");
  float* pa = a.data();
  const float* pb = b.data();
  for (int64_t i = 0; i < a.numel(); ++i) pa[i] += alpha * pb[i];
}

Tensor matmul(const Tensor& a, const Tensor& b, bool trans_a, bool trans_b) {
  FCA_CHECK_MSG(a.ndim() == 2 && b.ndim() == 2, "matmul needs 2-D operands");
  const int64_t m = trans_a ? a.dim(1) : a.dim(0);
  const int64_t k = trans_a ? a.dim(0) : a.dim(1);
  const int64_t kb = trans_b ? b.dim(1) : b.dim(0);
  const int64_t n = trans_b ? b.dim(0) : b.dim(1);
  FCA_CHECK_MSG(k == kb, "matmul inner dims differ: " << k << " vs " << kb);
  Tensor c = Tensor::uninit({m, n});
  sgemm(trans_a, trans_b, m, n, k, 1.0f, a.data(), a.dim(1), b.data(),
        b.dim(1), 0.0f, c.data(), n);
  return c;
}

Tensor add_rowwise(const Tensor& m, const Tensor& row) {
  FCA_CHECK(m.ndim() == 2 && row.ndim() == 1 && row.dim(0) == m.dim(1));
  Tensor out = Tensor::uninit(m.shape());
  const int64_t rows = m.dim(0);
  const int64_t cols = m.dim(1);
  const float* pm = m.data();
  const float* pr = row.data();
  float* po = out.data();
  for (int64_t i = 0; i < rows; ++i) {
    for (int64_t j = 0; j < cols; ++j) {
      po[i * cols + j] = pm[i * cols + j] + pr[j];
    }
  }
  return out;
}

float sum(const Tensor& a) {
  // Pairwise-ish accumulation in double keeps large reductions accurate.
  double s = 0.0;
  const float* p = a.data();
  for (int64_t i = 0; i < a.numel(); ++i) s += p[i];
  return static_cast<float>(s);
}

float sum_squares(const Tensor& a) {
  double s = 0.0;
  const float* p = a.data();
  for (int64_t i = 0; i < a.numel(); ++i) {
    s += static_cast<double>(p[i]) * p[i];
  }
  return static_cast<float>(s);
}

Tensor sum_rows(const Tensor& m) {
  FCA_CHECK(m.ndim() == 2);
  Tensor out({m.dim(1)});
  const float* pm = m.data();
  float* po = out.data();
  for (int64_t i = 0; i < m.dim(0); ++i) {
    for (int64_t j = 0; j < m.dim(1); ++j) po[j] += pm[i * m.dim(1) + j];
  }
  return out;
}

std::vector<int> argmax_rows(const Tensor& m) {
  FCA_CHECK(m.ndim() == 2 && m.dim(1) > 0);
  std::vector<int> out(static_cast<size_t>(m.dim(0)));
  const float* pm = m.data();
  for (int64_t i = 0; i < m.dim(0); ++i) {
    const float* row = pm + i * m.dim(1);
    out[static_cast<size_t>(i)] = static_cast<int>(
        std::max_element(row, row + m.dim(1)) - row);
  }
  return out;
}

Tensor softmax_rows(const Tensor& m) {
  FCA_CHECK(m.ndim() == 2 && m.dim(1) > 0);
  Tensor out = Tensor::uninit(m.shape());
  const int64_t rows = m.dim(0);
  const int64_t cols = m.dim(1);
  const float* pm = m.data();
  float* po = out.data();
  for (int64_t i = 0; i < rows; ++i) {
    const float* r = pm + i * cols;
    float mx = *std::max_element(r, r + cols);
    double denom = 0.0;
    for (int64_t j = 0; j < cols; ++j) {
      const float e = std::exp(r[j] - mx);
      po[i * cols + j] = e;
      denom += e;
    }
    const auto inv = static_cast<float>(1.0 / denom);
    for (int64_t j = 0; j < cols; ++j) po[i * cols + j] *= inv;
  }
  return out;
}

Tensor log_softmax_rows(const Tensor& m) {
  FCA_CHECK(m.ndim() == 2 && m.dim(1) > 0);
  Tensor out = Tensor::uninit(m.shape());
  const int64_t rows = m.dim(0);
  const int64_t cols = m.dim(1);
  const float* pm = m.data();
  float* po = out.data();
  for (int64_t i = 0; i < rows; ++i) {
    const float* r = pm + i * cols;
    float mx = *std::max_element(r, r + cols);
    double denom = 0.0;
    for (int64_t j = 0; j < cols; ++j) denom += std::exp(r[j] - mx);
    const auto lse = static_cast<float>(std::log(denom)) + mx;
    for (int64_t j = 0; j < cols; ++j) po[i * cols + j] = r[j] - lse;
  }
  return out;
}

Tensor l2_normalize_rows(const Tensor& m, float eps) {
  FCA_CHECK(m.ndim() == 2);
  Tensor out = Tensor::uninit(m.shape());
  const int64_t rows = m.dim(0);
  const int64_t cols = m.dim(1);
  const float* pm = m.data();
  float* po = out.data();
  for (int64_t i = 0; i < rows; ++i) {
    double ss = 0.0;
    for (int64_t j = 0; j < cols; ++j) {
      const float v = pm[i * cols + j];
      ss += static_cast<double>(v) * v;
    }
    const float norm = std::max(eps, static_cast<float>(std::sqrt(ss)));
    for (int64_t j = 0; j < cols; ++j) po[i * cols + j] = pm[i * cols + j] / norm;
  }
  return out;
}

float max_abs_diff(const Tensor& a, const Tensor& b) {
  check_same_shape(a, b, "max_abs_diff");
  float mx = 0.0f;
  const float* pa = a.data();
  const float* pb = b.data();
  for (int64_t i = 0; i < a.numel(); ++i) {
    mx = std::max(mx, std::abs(pa[i] - pb[i]));
  }
  return mx;
}

bool allclose(const Tensor& a, const Tensor& b, float atol, float rtol) {
  if (!a.same_shape(b)) return false;
  const float* pa = a.data();
  const float* pb = b.data();
  for (int64_t i = 0; i < a.numel(); ++i) {
    const float diff = std::abs(pa[i] - pb[i]);
    if (diff > atol + rtol * std::abs(pb[i])) return false;
  }
  return true;
}

Tensor gather_rows(const Tensor& m, const std::vector<int>& idx) {
  FCA_CHECK(m.ndim() == 2);
  Tensor out = Tensor::uninit({static_cast<int64_t>(idx.size()), m.dim(1)});
  for (size_t i = 0; i < idx.size(); ++i) {
    FCA_CHECK(idx[i] >= 0 && idx[i] < m.dim(0));
    out.copy_row_from(static_cast<int64_t>(i), m, idx[i]);
  }
  return out;
}

Tensor concat_rows(const std::vector<Tensor>& parts) {
  FCA_CHECK(!parts.empty());
  const int64_t cols = parts.front().dim(1);
  int64_t rows = 0;
  for (const auto& p : parts) {
    FCA_CHECK(p.ndim() == 2 && p.dim(1) == cols);
    rows += p.dim(0);
  }
  Tensor out = Tensor::uninit({rows, cols});
  int64_t r = 0;
  for (const auto& p : parts) {
    std::copy_n(p.data(), p.numel(), out.data() + r * cols);
    r += p.dim(0);
  }
  return out;
}

}  // namespace fca
