// Tensor operations.
//
// Free functions over fca::Tensor. Out-of-place functions return new tensors;
// functions with a trailing underscore mutate their first argument in place.
// All binary elementwise ops require exactly matching shapes except
// add_rowwise, which broadcasts a 1-D vector across the rows of a 2-D matrix
// (the only broadcast the NN stack needs).
#pragma once

#include <vector>

#include "tensor/tensor.hpp"

namespace fca {

// -- elementwise -------------------------------------------------------------
Tensor add(const Tensor& a, const Tensor& b);
Tensor sub(const Tensor& a, const Tensor& b);
Tensor mul(const Tensor& a, const Tensor& b);
Tensor div(const Tensor& a, const Tensor& b);
Tensor add_scalar(const Tensor& a, float s);
Tensor mul_scalar(const Tensor& a, float s);
Tensor exp(const Tensor& a);
Tensor log(const Tensor& a);
Tensor neg(const Tensor& a);

// -- activations -------------------------------------------------------------
// Branchless selects the compiler vectorizes.
/// max(x, 0)
Tensor relu(const Tensor& a);
/// d(relu)/dx: grad_out where x > 0, else 0.
Tensor relu_backward(const Tensor& x, const Tensor& grad_out);

void add_(Tensor& a, const Tensor& b);
void mul_scalar_(Tensor& a, float s);
/// a += alpha * b
void axpy_(Tensor& a, float alpha, const Tensor& b);

// -- matrix (2-D) ------------------------------------------------------------
/// Matrix product of a [m,k] and b [k,n] with optional transposes applied to
/// the *logical* operands.
Tensor matmul(const Tensor& a, const Tensor& b, bool trans_a = false,
              bool trans_b = false);
/// matrix [m,n] + row vector [n], broadcast over rows.
Tensor add_rowwise(const Tensor& m, const Tensor& row);

// -- reductions ----------------------------------------------------------
float sum(const Tensor& a);
/// Sum of squares of all elements.
float sum_squares(const Tensor& a);
/// Column sums of a 2-D matrix -> [n].
Tensor sum_rows(const Tensor& m);
/// argmax over each row of a 2-D matrix.
std::vector<int> argmax_rows(const Tensor& m);

// -- softmax family --------------------------------------------------------
/// Numerically stable row softmax of a 2-D matrix.
Tensor softmax_rows(const Tensor& m);
/// Numerically stable row log-softmax of a 2-D matrix.
Tensor log_softmax_rows(const Tensor& m);

// -- normalization -----------------------------------------------------------
/// L2-normalizes each row of a 2-D matrix; rows with norm < eps are left as
/// (value / eps) to stay finite.
Tensor l2_normalize_rows(const Tensor& m, float eps = 1e-12f);

// -- comparison helpers (tests) ----------------------------------------------
/// Max |a-b| over all elements; shapes must match.
float max_abs_diff(const Tensor& a, const Tensor& b);
bool allclose(const Tensor& a, const Tensor& b, float atol = 1e-5f,
              float rtol = 1e-4f);

// -- row gather ----------------------------------------------------------
/// Selects rows of a 2-D matrix: out[i, :] = m[idx[i], :].
Tensor gather_rows(const Tensor& m, const std::vector<int>& idx);
/// Concatenates 2-D matrices with equal column counts along dim 0.
Tensor concat_rows(const std::vector<Tensor>& parts);

}  // namespace fca
