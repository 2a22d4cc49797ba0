#include "autograd/ops.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <functional>

#include "tensor/kernel.hpp"
#include "tensor/ops.hpp"
#include "utils/error.hpp"
#include "utils/rng.hpp"

namespace fca::ag {
namespace {

/// Builds a tape node like the library's ops do: it needs a gradient when any
/// input does.
Variable tape(Tensor value, const std::vector<Variable>& inputs,
              std::function<void(detail::Node&)> backward) {
  std::vector<std::shared_ptr<detail::Node>> parents;
  bool req = false;
  for (const Variable& v : inputs) {
    parents.push_back(v.node());
    req = req || v.requires_grad();
  }
  return Variable(detail::make_node(std::move(value), req, std::move(parents),
                                    req ? std::move(backward) : nullptr));
}

/// Row sums of a [m, n] matrix, accumulated in double -> [m].
Tensor row_sums(const Tensor& m) {
  const int64_t rows = m.dim(0);
  const int64_t cols = m.dim(1);
  Tensor out({rows});
  for (int64_t i = 0; i < rows; ++i) {
    double s = 0.0;
    for (int64_t j = 0; j < cols; ++j) s += m[i * cols + j];
    out[i] = static_cast<float>(s);
  }
  return out;
}

/// The reference's row-wise steps, taped here because only it needs them.
/// m[i, j] + col[i] for a constant column.
Variable add_colwise_const(const Variable& m, const Tensor& col) {
  const int64_t cols = m.dim(1);
  Tensor v = m.value().clone();
  for (int64_t i = 0; i < v.numel(); ++i) v[i] += col[i / cols];
  return tape(v, {m}, [](detail::Node& n) {
    if (n.parents[0]->requires_grad) n.parents[0]->accumulate(n.grad);
  });
}

/// Row sums -> [m].
Variable sum_cols(const Variable& m) {
  const int64_t cols = m.dim(1);
  return tape(row_sums(m.value()), {m}, [cols](detail::Node& n) {
    if (!n.parents[0]->requires_grad) return;
    Tensor dx(n.parents[0]->value.shape());
    for (int64_t i = 0; i < dx.numel(); ++i) dx[i] = n.grad[i / cols];
    n.parents[0]->accumulate(dx);
  });
}

/// m[i, j] - col[i].
Variable sub_colwise(const Variable& m, const Variable& col) {
  const int64_t cols = m.dim(1);
  Tensor v = m.value().clone();
  for (int64_t i = 0; i < v.numel(); ++i) v[i] -= col.value()[i / cols];
  return tape(v, {m, col}, [](detail::Node& n) {
    if (n.parents[0]->requires_grad) n.parents[0]->accumulate(n.grad);
    if (n.parents[1]->requires_grad) {
      n.parents[1]->accumulate(fca::neg(row_sums(n.grad)));
    }
  });
}

/// Op-by-op tape implementation of supervised_contrastive (one node per
/// elementwise step, each materializing an n×n intermediate): the agreement
/// oracle for the fused loss, which computes the same math with one forward
/// GEMM and a closed-form backward.
Variable supervised_contrastive_reference(const Variable& embeddings,
                                          const std::vector<int>& labels,
                                          float temperature) {
  FCA_CHECK(embeddings.value().ndim() == 2);
  FCA_CHECK(temperature > 0.0f);
  const int64_t n = embeddings.value().dim(0);
  FCA_CHECK(static_cast<int64_t>(labels.size()) == n);

  Variable z = l2_normalize_rows(embeddings);
  // Pairwise cosine similarities / temperature.
  Variable sim = mul_scalar(matmul(z, z, false, true), 1.0f / temperature);

  // Subtract the detached row max for numerical stability (standard SupCon
  // trick; since each row contains the self-similarity 1/tau this is also
  // the global max, and detaching keeps the gradient exact because
  // log-sum-exp is shift invariant).
  Tensor rowmax({n});
  for (int64_t i = 0; i < n; ++i) {
    const float* row = sim.value().data() + i * n;
    rowmax[i] = *std::max_element(row, row + n);
  }
  Variable shifted = add_colwise_const(sim, fca::neg(rowmax));

  // Mask removing self-pairs from the denominator.
  Tensor not_self({n, n}, 1.0f);
  for (int64_t i = 0; i < n; ++i) not_self[i * n + i] = 0.0f;

  Variable exp_sim = mul_const(exp(shifted), not_self);
  Variable denom = sum_cols(exp_sim);           // [n]
  Variable log_denom = log(denom);              // [n]
  Variable log_prob = sub_colwise(shifted, log_denom);

  // Positive mask: same label, not self; each anchor's positive terms are
  // weighted by 1/|P(i)| and anchors with no positives contribute zero.
  Tensor pos_weight({n, n});
  int64_t active_anchors = 0;
  for (int64_t i = 0; i < n; ++i) {
    int64_t pos = 0;
    for (int64_t j = 0; j < n; ++j) {
      if (j != i && labels[static_cast<size_t>(j)] ==
                        labels[static_cast<size_t>(i)]) {
        ++pos;
      }
    }
    if (pos == 0) continue;
    ++active_anchors;
    const float w = 1.0f / static_cast<float>(pos);
    for (int64_t j = 0; j < n; ++j) {
      if (j != i && labels[static_cast<size_t>(j)] ==
                        labels[static_cast<size_t>(i)]) {
        pos_weight[i * n + j] = w;
      }
    }
  }
  if (active_anchors == 0) {
    // No positive pairs in the batch: loss is identically zero but must stay
    // connected to the graph so callers can still call backward().
    return mul_scalar(sum(mul_const(log_prob, Tensor({n, n}))), 0.0f);
  }
  Variable weighted = mul_const(log_prob, pos_weight);
  return mul_scalar(sum(weighted),
                    -1.0f / static_cast<float>(active_anchors));
}


/// Central finite-difference check: builds the graph via `fn` (a scalar
/// objective of one leaf), backprops, and compares against numeric
/// derivatives at every coordinate.
void check_gradient(const Tensor& x0,
                    const std::function<Variable(const Variable&)>& fn,
                    float eps = 1e-3f, float tol = 2e-2f) {
  Variable leaf = Variable::leaf(x0.clone());
  Variable out = fn(leaf);
  ASSERT_EQ(out.value().numel(), 1);
  out.backward();
  const Tensor& analytic = leaf.grad();

  Tensor x = x0.clone();
  for (int64_t i = 0; i < x.numel(); ++i) {
    const float orig = x[i];
    x[i] = orig + eps;
    const float up = fn(Variable::leaf(x.clone())).value()[0];
    x[i] = orig - eps;
    const float down = fn(Variable::leaf(x.clone())).value()[0];
    x[i] = orig;
    const float numeric = (up - down) / (2.0f * eps);
    EXPECT_NEAR(analytic[i], numeric, tol + tol * std::abs(numeric))
        << "at flat index " << i;
  }
}

TEST(Autograd, LeafAndConstantFlags) {
  Variable l = Variable::leaf(Tensor({2}));
  Variable c = Variable::constant(Tensor({2}));
  EXPECT_TRUE(l.requires_grad());
  EXPECT_FALSE(c.requires_grad());
}

TEST(Autograd, BackwardRequiresScalar) {
  Variable v = Variable::leaf(Tensor({2}));
  EXPECT_THROW(v.backward(), Error);
}

TEST(Autograd, AddGradientIsOne) {
  Variable a = Variable::leaf(Tensor({3}, {1, 2, 3}));
  Variable b = Variable::leaf(Tensor({3}, {4, 5, 6}));
  Variable s = sum(add(a, b));
  s.backward();
  for (int64_t i = 0; i < 3; ++i) {
    EXPECT_FLOAT_EQ(a.grad()[i], 1.0f);
    EXPECT_FLOAT_EQ(b.grad()[i], 1.0f);
  }
}

TEST(Autograd, SubPropagatesNegative) {
  Variable a = Variable::leaf(Tensor({2}, {1, 2}));
  Variable b = Variable::leaf(Tensor({2}, {3, 4}));
  sum(sub(a, b)).backward();
  EXPECT_FLOAT_EQ(a.grad()[0], 1.0f);
  EXPECT_FLOAT_EQ(b.grad()[0], -1.0f);
}

TEST(Autograd, GradientAccumulatesAcrossUses) {
  Variable a = Variable::leaf(Tensor({2}, {1, 2}));
  // y = a + a -> dy/da = 2
  sum(add(a, a)).backward();
  EXPECT_FLOAT_EQ(a.grad()[0], 2.0f);
}

TEST(Autograd, ConstantReceivesNoGradient) {
  Variable a = Variable::leaf(Tensor({2}, {1, 2}));
  Variable c = Variable::constant(Tensor({2}, {3, 4}));
  sum(sub(a, c)).backward();
  EXPECT_FLOAT_EQ(a.grad()[1], 1.0f);
  EXPECT_FALSE(c.has_grad());
}

TEST(Autograd, ExpLogChain) {
  Rng rng(1);
  Tensor x = Tensor::rand({4}, rng, 0.5f, 2.0f);
  check_gradient(x, [](const Variable& v) { return sum(log(exp(v))); });
}

TEST(Autograd, MatmulFiniteDifference) {
  Rng rng(2);
  Tensor a0 = Tensor::randn({3, 4}, rng);
  Tensor b0 = Tensor::randn({4, 2}, rng);
  // grad wrt A
  check_gradient(a0, [&](const Variable& a) {
    return sum(matmul(a, Variable::constant(b0)));
  });
  // grad wrt B
  check_gradient(b0, [&](const Variable& b) {
    return sum(matmul(Variable::constant(a0), b));
  });
}

TEST(Autograd, MatmulFiniteDifferenceWithPackedKernel) {
  // matmul routes through the sgemm dispatcher in both directions of the
  // graph; forcing the packed kernel must keep the analytic/numeric match
  // (forward and backward then both run register-tiled GEMMs).
  ScopedGemmKernel packed(GemmKernel::kPacked);
  Rng rng(2);
  Tensor a0 = Tensor::randn({3, 4}, rng);
  Tensor b0 = Tensor::randn({4, 2}, rng);
  check_gradient(a0, [&](const Variable& a) {
    return sum(matmul(a, Variable::constant(b0)));
  });
  check_gradient(b0, [&](const Variable& b) {
    return sum(matmul(Variable::constant(a0), b));
  });
}

TEST(Autograd, MatmulTransposedFiniteDifference) {
  Rng rng(3);
  Tensor a0 = Tensor::randn({4, 3}, rng);  // used as A^T -> [3, 4]
  Tensor b0 = Tensor::randn({2, 4}, rng);  // used as B^T -> [4, 2]
  check_gradient(a0, [&](const Variable& a) {
    return sum(matmul(a, Variable::constant(b0), true, true));
  });
  check_gradient(b0, [&](const Variable& b) {
    return sum(matmul(Variable::constant(a0), b, true, true));
  });
}

TEST(Autograd, AddRowwiseBiasGradient) {
  Rng rng(4);
  Tensor m0 = Tensor::randn({3, 5}, rng);
  Tensor r0 = Tensor::randn({5}, rng);
  check_gradient(r0, [&](const Variable& r) {
    return sum_squares(add_rowwise(Variable::constant(m0), r));
  });
}

TEST(Autograd, L2NormalizeRowsGradient) {
  Rng rng(6);
  Tensor x = Tensor::randn({3, 4}, rng, 0.0f, 2.0f);
  Tensor w = Tensor::randn({3, 4}, rng);
  check_gradient(x, [&](const Variable& v) {
    return sum(mul_const(l2_normalize_rows(v), w));
  }, 1e-3f, 3e-2f);
}

TEST(Autograd, SliceRowsGradientScattersBack) {
  Rng rng(7);
  Tensor x = Tensor::randn({6, 3}, rng);
  check_gradient(x, [](const Variable& v) {
    Variable top = slice_rows(v, 0, 2);
    Variable bottom = slice_rows(v, 2, 6);
    return add(sum_squares(top), sum_squares(bottom));
  });
}

TEST(Autograd, SumSquaresGradient) {
  Rng rng(9);
  Tensor x = Tensor::randn({7}, rng);
  check_gradient(x, [](const Variable& v) { return sum_squares(v); });
}

TEST(Autograd, MeanGradient) {
  Variable a = Variable::leaf(Tensor({4}, {1, 2, 3, 4}));
  mean(a).backward();
  for (int64_t i = 0; i < 4; ++i) EXPECT_FLOAT_EQ(a.grad()[i], 0.25f);
}

TEST(Autograd, LogSoftmaxGradient) {
  Rng rng(10);
  Tensor x = Tensor::randn({4, 6}, rng, 0.0f, 2.0f);
  Tensor w = Tensor::randn({4, 6}, rng);
  check_gradient(x, [&](const Variable& v) {
    return sum(mul_const(log_softmax_rows(v), w));
  });
}

TEST(Autograd, SelectColsGradientScattersToLabels) {
  Variable m = Variable::leaf(Tensor({2, 3}, {1, 2, 3, 4, 5, 6}));
  sum(select_cols(m, {2, 0})).backward();
  EXPECT_FLOAT_EQ(m.grad()[2], 1.0f);
  EXPECT_FLOAT_EQ(m.grad()[3], 1.0f);
  EXPECT_FLOAT_EQ(m.grad()[0], 0.0f);
  EXPECT_FLOAT_EQ(m.grad()[5], 0.0f);
}

TEST(Autograd, CrossEntropyMatchesClosedFormGradient) {
  Rng rng(11);
  Tensor logits = Tensor::randn({5, 4}, rng, 0.0f, 2.0f);
  const std::vector<int> labels{0, 3, 1, 2, 0};
  Variable l = Variable::leaf(logits.clone());
  cross_entropy(l, labels).backward();
  // Closed form: (softmax - onehot) / B.
  Tensor sm = softmax_rows(logits);
  for (int64_t i = 0; i < 5; ++i) {
    for (int64_t j = 0; j < 4; ++j) {
      float expected = sm[i * 4 + j] / 5.0f;
      if (labels[static_cast<size_t>(i)] == j) expected -= 1.0f / 5.0f;
      EXPECT_NEAR(l.grad()[i * 4 + j], expected, 1e-5);
    }
  }
}

TEST(Autograd, CrossEntropyValueMatchesManual) {
  Tensor logits({1, 2}, {0.0f, 0.0f});
  Variable l = Variable::leaf(logits);
  Variable loss = cross_entropy(l, {0});
  EXPECT_NEAR(loss.value()[0], std::log(2.0f), 1e-5);
}

TEST(Autograd, SupConGradientFiniteDifference) {
  Rng rng(13);
  Tensor emb = Tensor::randn({6, 4}, rng);
  const std::vector<int> labels{0, 1, 0, 1, 2, 2};
  check_gradient(
      emb,
      [&](const Variable& v) {
        return supervised_contrastive(v, labels, 0.5f);
      },
      1e-3f, 4e-2f);
}

TEST(Autograd, SupConGradientFiniteDifferenceWithPackedKernel) {
  // The fused SupCon computes the full pairwise similarity matrix with one
  // GEMM forward and a closed-form GEMM backward; pinning the packed kernel
  // makes both run register-tiled paths. FD must still match.
  ScopedGemmKernel packed(GemmKernel::kPacked);
  Rng rng(13);
  Tensor emb = Tensor::randn({6, 4}, rng);
  const std::vector<int> labels{0, 1, 0, 1, 2, 2};
  check_gradient(
      emb,
      [&](const Variable& v) {
        return supervised_contrastive(v, labels, 0.5f);
      },
      1e-3f, 4e-2f);
}

TEST(Autograd, SupConFusedMatchesReferenceValueAndGradient) {
  // The op-by-op tape build is the agreement oracle for the fused loss: same
  // math, so value and gradient must coincide to float tolerance on every
  // forced kernel.
  Rng rng(21);
  Tensor emb = Tensor::randn({8, 5}, rng);
  const std::vector<int> labels{0, 1, 2, 0, 1, 2, 0, 3};
  for (GemmKernel kern : {GemmKernel::kNaive, GemmKernel::kPacked}) {
    ScopedGemmKernel guard(kern);
    Variable fused_leaf = Variable::leaf(emb.clone());
    Variable fused = supervised_contrastive(fused_leaf, labels, 0.3f);
    fused.backward();
    Variable ref_leaf = Variable::leaf(emb.clone());
    Variable ref = supervised_contrastive_reference(ref_leaf, labels, 0.3f);
    ref.backward();
    EXPECT_NEAR(fused.value()[0], ref.value()[0], 1e-5)
        << gemm_kernel_name(kern);
    for (int64_t i = 0; i < emb.numel(); ++i) {
      EXPECT_NEAR(fused_leaf.grad()[i], ref_leaf.grad()[i], 1e-4)
          << gemm_kernel_name(kern) << " grad at " << i;
    }
  }
}

TEST(Autograd, SupConFusedRerunIsBitIdentical) {
  // Same inputs, same forced kernel: loss and gradient must not move a bit
  // between reruns (the round-curve byte-identity contract starts here).
  ScopedGemmKernel packed(GemmKernel::kPacked);
  Rng rng(22);
  Tensor emb = Tensor::randn({7, 4}, rng);
  const std::vector<int> labels{0, 0, 1, 1, 2, 2, 0};
  Variable l1 = Variable::leaf(emb.clone());
  Variable loss1 = supervised_contrastive(l1, labels, 0.2f);
  loss1.backward();
  Variable l2 = Variable::leaf(emb.clone());
  Variable loss2 = supervised_contrastive(l2, labels, 0.2f);
  loss2.backward();
  EXPECT_EQ(loss1.value()[0], loss2.value()[0]);
  for (int64_t i = 0; i < emb.numel(); ++i) {
    EXPECT_EQ(l1.grad()[i], l2.grad()[i]) << "grad drifted at " << i;
  }
}

TEST(Autograd, SupConZeroWhenNoPositives) {
  Rng rng(14);
  Tensor emb = Tensor::randn({4, 3}, rng);
  Variable v = Variable::leaf(emb);
  Variable loss = supervised_contrastive(v, {0, 1, 2, 3}, 0.1f);
  EXPECT_FLOAT_EQ(loss.value()[0], 0.0f);
  loss.backward();  // must not throw; gradient is zero
  for (int64_t i = 0; i < emb.numel(); ++i) EXPECT_FLOAT_EQ(v.grad()[i], 0.0f);
}

TEST(Autograd, SupConPullsPositivesTogether) {
  // Two same-label points plus a far negative: the gradient should move the
  // positives toward each other (negative gradient along their difference).
  Tensor emb({3, 2}, {1.0f, 0.0f, 0.0f, 1.0f, -1.0f, -1.0f});
  Variable v = Variable::leaf(emb);
  supervised_contrastive(v, {0, 0, 1}, 0.5f).backward();
  // Moving point 0 opposite to its gradient should reduce the loss; verify
  // by a small step.
  Tensor stepped = emb.clone();
  const float lr = 0.05f;
  for (int64_t i = 0; i < stepped.numel(); ++i) {
    stepped[i] -= lr * v.grad()[i];
  }
  const float before =
      supervised_contrastive(Variable::leaf(emb), {0, 0, 1}, 0.5f).value()[0];
  const float after = supervised_contrastive(Variable::leaf(stepped),
                                             {0, 0, 1}, 0.5f)
                          .value()[0];
  EXPECT_LT(after, before);
}

TEST(Autograd, SupConTemperatureValidation) {
  Variable v = Variable::leaf(Tensor({2, 2}));
  EXPECT_THROW(supervised_contrastive(v, {0, 0}, 0.0f), Error);
}

TEST(Autograd, DiamondGraphTopologicalOrder) {
  // x -> u = 2x, w = 3x; y = exp(log u + log w) = u * w = 6x^2;
  // dy/dx = 12x.
  Variable x = Variable::leaf(Tensor({1}, {2.0f}));
  Variable u = mul_scalar(x, 2.0f);
  Variable w = mul_scalar(x, 3.0f);
  sum(exp(add(log(u), log(w)))).backward();
  EXPECT_NEAR(x.grad()[0], 24.0f, 1e-4);
}

}  // namespace
}  // namespace fca::ag
