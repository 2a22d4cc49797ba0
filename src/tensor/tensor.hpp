// Dense float32 tensor.
//
// Design: contiguous row-major storage only. reshape() shares the buffer;
// clone() copies. No strided views — the NN kernels in this codebase all
// operate on contiguous data, and keeping the invariant "data() is always a
// dense row-major block of numel() floats" removes an entire class of bugs
// and lets every kernel be written as a flat loop or a GEMM call.
#pragma once

#include <cstdint>
#include <initializer_list>
#include <memory>
#include <string>
#include <utility>
#include <vector>

namespace fca {

namespace detail {
/// std::allocator whose no-argument construct is default-initialization
/// (a no-op for float) instead of value-initialization: FloatBuf(n) then
/// allocates WITHOUT zero-filling. Tensor's zeroing constructors fill
/// explicitly; Tensor::uninit skips the fill for buffers the caller fully
/// overwrites (GEMM outputs, elementwise results), saving one complete
/// memory pass per activation-sized allocation.
template <class T>
struct DefaultInitAlloc : std::allocator<T> {
  template <class U>
  struct rebind {
    using other = DefaultInitAlloc<U>;
  };
  using std::allocator<T>::allocator;
  template <class U>
  void construct(U* p) noexcept {
    ::new (static_cast<void*>(p)) U;
  }
  template <class U, class... Args>
  void construct(U* p, Args&&... args) {
    ::new (static_cast<void*>(p)) U(std::forward<Args>(args)...);
  }
};
}  // namespace detail

using Shape = std::vector<int64_t>;
using FloatBuf = std::vector<float, detail::DefaultInitAlloc<float>>;

int64_t shape_numel(const Shape& shape);
std::string shape_to_string(const Shape& shape);

class Rng;

class Tensor {
 public:
  /// Empty tensor (numel 0, ndim 0).
  Tensor();
  /// Zero-initialized tensor of the given shape.
  explicit Tensor(Shape shape);
  /// Tensor of the given shape with all elements set to `fill`.
  Tensor(Shape shape, float fill);
  /// Tensor wrapping a copy of `values`; values.size() must match the shape.
  Tensor(Shape shape, std::vector<float> values);

  static Tensor zeros(Shape shape) { return Tensor(std::move(shape)); }
  /// Allocates WITHOUT zero-filling — every element is indeterminate until
  /// written. Only for buffers the caller fully overwrites before any read
  /// (GEMM outputs with beta == 0, elementwise-op results).
  static Tensor uninit(Shape shape);
  static Tensor ones(Shape shape) { return Tensor(std::move(shape), 1.0f); }
  static Tensor full(Shape shape, float v) { return Tensor(std::move(shape), v); }
  /// Elements i.i.d. N(mean, stddev^2) drawn from `rng`.
  static Tensor randn(Shape shape, Rng& rng, float mean = 0.f,
                      float stddev = 1.f);
  /// Elements i.i.d. U[lo, hi) drawn from `rng`.
  static Tensor rand(Shape shape, Rng& rng, float lo = 0.f, float hi = 1.f);

  // -- shape ---------------------------------------------------------------
  const Shape& shape() const { return shape_; }
  int64_t ndim() const { return static_cast<int64_t>(shape_.size()); }
  int64_t dim(int64_t i) const;
  int64_t numel() const { return numel_; }
  bool empty() const { return numel_ == 0; }
  bool same_shape(const Tensor& other) const { return shape_ == other.shape_; }

  /// Reinterprets the buffer with a new shape of equal numel. One dimension
  /// may be -1 (inferred). Shares storage with this tensor.
  Tensor reshape(Shape shape) const;
  /// Deep copy.
  Tensor clone() const;
  /// True when two tensors share the same buffer.
  bool shares_storage_with(const Tensor& other) const {
    return buf_ == other.buf_;
  }

  // -- element access ------------------------------------------------------
  float* data() { return buf_->data(); }
  const float* data() const { return buf_->data(); }
  float& operator[](int64_t i) { return (*buf_)[static_cast<size_t>(i)]; }
  float operator[](int64_t i) const { return (*buf_)[static_cast<size_t>(i)]; }
  /// Bounds-checked multi-index access (row-major). Intended for tests and
  /// non-hot code.
  float& at(std::initializer_list<int64_t> idx);
  float at(std::initializer_list<int64_t> idx) const;

  /// Copies the `row`-th slice along dim 0 of `src` into this tensor's
  /// `row`-th slice (shapes must agree beyond dim 0).
  void copy_row_from(int64_t row, const Tensor& src, int64_t src_row);

  /// Fills with a constant.
  void fill(float v);

 private:
  int64_t flat_index(std::initializer_list<int64_t> idx) const;

  Shape shape_;
  int64_t numel_ = 0;
  std::shared_ptr<FloatBuf> buf_;
};

}  // namespace fca
