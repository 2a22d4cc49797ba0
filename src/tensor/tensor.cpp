#include "tensor/tensor.hpp"

#include <algorithm>
#include <sstream>

#include "utils/error.hpp"
#include "utils/rng.hpp"

namespace fca {

int64_t shape_numel(const Shape& shape) {
  int64_t n = 1;
  for (int64_t d : shape) {
    FCA_CHECK_MSG(d >= 0, "negative dimension in shape");
    n *= d;
  }
  return shape.empty() ? 0 : n;
}

std::string shape_to_string(const Shape& shape) {
  std::ostringstream os;
  os << '[';
  for (size_t i = 0; i < shape.size(); ++i) {
    if (i > 0) os << ", ";
    os << shape[i];
  }
  os << ']';
  return os.str();
}

Tensor::Tensor() : buf_(std::make_shared<FloatBuf>()) {}

Tensor::Tensor(Shape shape)
    : shape_(std::move(shape)),
      numel_(shape_numel(shape_)),
      buf_(std::make_shared<FloatBuf>(static_cast<size_t>(numel_), 0.0f)) {}

Tensor::Tensor(Shape shape, float fill)
    : shape_(std::move(shape)),
      numel_(shape_numel(shape_)),
      buf_(std::make_shared<FloatBuf>(static_cast<size_t>(numel_), fill)) {}

Tensor::Tensor(Shape shape, std::vector<float> values)
    : shape_(std::move(shape)), numel_(shape_numel(shape_)) {
  FCA_CHECK_MSG(static_cast<int64_t>(values.size()) == numel_,
                "value count " << values.size() << " does not match shape "
                               << shape_to_string(shape_));
  buf_ = std::make_shared<FloatBuf>(values.begin(), values.end());
}

Tensor Tensor::uninit(Shape shape) {
  Tensor t;
  t.shape_ = std::move(shape);
  t.numel_ = shape_numel(t.shape_);
  // FloatBuf's allocator default-initializes, so this size ctor allocates
  // without the zero-fill pass.
  t.buf_ = std::make_shared<FloatBuf>(static_cast<size_t>(t.numel_));
  return t;
}

Tensor Tensor::randn(Shape shape, Rng& rng, float mean, float stddev) {
  Tensor t = uninit(std::move(shape));
  for (int64_t i = 0; i < t.numel(); ++i) {
    t[i] = static_cast<float>(rng.normal(mean, stddev));
  }
  return t;
}

Tensor Tensor::rand(Shape shape, Rng& rng, float lo, float hi) {
  Tensor t = uninit(std::move(shape));
  for (int64_t i = 0; i < t.numel(); ++i) {
    t[i] = static_cast<float>(rng.uniform(lo, hi));
  }
  return t;
}

int64_t Tensor::dim(int64_t i) const {
  if (i < 0) i += ndim();
  FCA_CHECK_MSG(i >= 0 && i < ndim(), "dim index " << i << " out of range");
  return shape_[static_cast<size_t>(i)];
}

Tensor Tensor::reshape(Shape shape) const {
  int64_t known = 1;
  int64_t infer_at = -1;
  for (size_t i = 0; i < shape.size(); ++i) {
    if (shape[i] == -1) {
      FCA_CHECK_MSG(infer_at < 0, "at most one -1 dimension in reshape");
      infer_at = static_cast<int64_t>(i);
    } else {
      known *= shape[i];
    }
  }
  if (infer_at >= 0) {
    FCA_CHECK_MSG(known > 0 && numel_ % known == 0,
                  "cannot infer reshape dim: numel " << numel_ << " vs "
                                                     << known);
    shape[static_cast<size_t>(infer_at)] = numel_ / known;
  }
  FCA_CHECK_MSG(shape_numel(shape) == numel_,
                "reshape " << shape_to_string(shape_) << " -> "
                           << shape_to_string(shape) << " changes numel");
  Tensor out;
  out.shape_ = std::move(shape);
  out.numel_ = numel_;
  out.buf_ = buf_;
  return out;
}

Tensor Tensor::clone() const {
  Tensor out;
  out.shape_ = shape_;
  out.numel_ = numel_;
  out.buf_ = std::make_shared<FloatBuf>(*buf_);
  return out;
}

int64_t Tensor::flat_index(std::initializer_list<int64_t> idx) const {
  FCA_CHECK_MSG(static_cast<int64_t>(idx.size()) == ndim(),
                "index arity " << idx.size() << " != ndim " << ndim());
  int64_t flat = 0;
  size_t d = 0;
  for (int64_t i : idx) {
    FCA_CHECK_MSG(i >= 0 && i < shape_[d],
                  "index " << i << " out of range for dim " << d);
    flat = flat * shape_[d] + i;
    ++d;
  }
  return flat;
}

float& Tensor::at(std::initializer_list<int64_t> idx) {
  return (*buf_)[static_cast<size_t>(flat_index(idx))];
}

float Tensor::at(std::initializer_list<int64_t> idx) const {
  return (*buf_)[static_cast<size_t>(flat_index(idx))];
}

void Tensor::copy_row_from(int64_t row, const Tensor& src, int64_t src_row) {
  FCA_CHECK(ndim() >= 1 && src.ndim() >= 1);
  const int64_t stride = dim(0) > 0 ? numel_ / dim(0) : 0;
  const int64_t src_stride = src.dim(0) > 0 ? src.numel() / src.dim(0) : 0;
  FCA_CHECK_MSG(stride == src_stride, "row slice shapes differ");
  FCA_CHECK(row >= 0 && row < dim(0) && src_row >= 0 && src_row < src.dim(0));
  std::copy_n(src.data() + src_row * stride, stride, data() + row * stride);
}

void Tensor::fill(float v) { std::fill(buf_->begin(), buf_->end(), v); }

}  // namespace fca
