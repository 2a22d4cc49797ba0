// Differentiable operations over ag::Variable.
//
// Each op builds a tape node whose pullback accumulates gradients into its
// parents. The op set is exactly what the FedClassAvg loss heads need:
// cross-entropy, supervised contrastive (Khosla et al. 2020) and the L2
// proximal term, plus the elementwise and matrix blocks they are built from.
#pragma once

#include <vector>

#include "autograd/variable.hpp"

namespace fca::ag {

// -- elementwise -------------------------------------------------------------
Variable add(const Variable& a, const Variable& b);
Variable sub(const Variable& a, const Variable& b);
Variable mul_scalar(const Variable& a, float s);
Variable add_scalar(const Variable& a, float s);
Variable neg(const Variable& a);
Variable exp(const Variable& a);
Variable log(const Variable& a);
/// Elementwise product with a non-differentiable mask/constant tensor.
Variable mul_const(const Variable& a, const Tensor& c);

// -- matrix ------------------------------------------------------------------
/// Matrix product with optional logical transposes.
Variable matmul(const Variable& a, const Variable& b, bool trans_a = false,
                bool trans_b = false);
/// [m,n] + [n] bias broadcast over rows.
Variable add_rowwise(const Variable& m, const Variable& row);
/// Row-wise L2 normalization (the SupCon projection step).
Variable l2_normalize_rows(const Variable& m, float eps = 1e-12f);
/// Rows [from, to) of a 2-D matrix; gradient scatters back into place.
Variable slice_rows(const Variable& m, int64_t from, int64_t to);

// -- reductions ----------------------------------------------------------
/// Sum of all elements -> scalar [1].
Variable sum(const Variable& a);
/// Mean of all elements -> scalar [1].
Variable mean(const Variable& a);
/// Sum of squared elements -> scalar [1].
Variable sum_squares(const Variable& a);

// -- classification helpers ----------------------------------------------
/// Numerically stable row log-softmax.
Variable log_softmax_rows(const Variable& logits);
/// out[i] = m[i, labels[i]] -> [m].
Variable select_cols(const Variable& m, const std::vector<int>& labels);

// -- losses --------------------------------------------------------------
/// Mean cross-entropy of logits [B, C] against integer labels; scalar.
Variable cross_entropy(const Variable& logits, const std::vector<int>& labels);
/// Supervised contrastive loss (Khosla et al. 2020, L_out) over an embedding
/// batch [N, D] with integer labels (N = 2B when using two views). Anchors
/// without positives contribute zero. `temperature` > 0.
Variable supervised_contrastive(const Variable& embeddings,
                                const std::vector<int>& labels,
                                float temperature = 0.07f);
/// Self-supervised NT-Xent / SimCLR loss over a two-view embedding batch
/// [2B, D] where rows i and i+B are views of the same sample: the only
/// positive of an anchor is its paired view. This is the label-free
/// contrastive variant the paper's conclusion proposes combining with
/// FedClassAvg; equivalent to supervised_contrastive with per-sample labels.
Variable nt_xent(const Variable& embeddings, float temperature = 0.5f);

}  // namespace fca::ag
