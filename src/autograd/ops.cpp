#include "autograd/ops.hpp"

#include <cmath>

#include "obs/trace.hpp"
#include "tensor/ops.hpp"
#include "utils/error.hpp"

namespace fca::ag {
namespace {

using detail::Node;
using NodePtr = std::shared_ptr<Node>;

bool any_requires(const std::vector<NodePtr>& parents) {
  for (const auto& p : parents) {
    if (p->requires_grad) return true;
  }
  return false;
}

Variable make_op(Tensor value, std::vector<Variable> inputs,
                 std::function<void(Node&)> backward) {
  std::vector<NodePtr> parents;
  parents.reserve(inputs.size());
  for (const auto& v : inputs) {
    FCA_CHECK_MSG(v.defined(), "op input is an undefined Variable");
    parents.push_back(v.node());
  }
  const bool req = any_requires(parents);
  return Variable(detail::make_node(std::move(value), req, std::move(parents),
                                    req ? std::move(backward) : nullptr));
}

}  // namespace

Variable add(const Variable& a, const Variable& b) {
  return make_op(fca::add(a.value(), b.value()), {a, b}, [](Node& n) {
    if (n.parents[0]->requires_grad) n.parents[0]->accumulate(n.grad);
    if (n.parents[1]->requires_grad) n.parents[1]->accumulate(n.grad);
  });
}

Variable sub(const Variable& a, const Variable& b) {
  return make_op(fca::sub(a.value(), b.value()), {a, b}, [](Node& n) {
    if (n.parents[0]->requires_grad) n.parents[0]->accumulate(n.grad);
    if (n.parents[1]->requires_grad) n.parents[1]->accumulate(fca::neg(n.grad));
  });
}

Variable mul_scalar(const Variable& a, float s) {
  return make_op(fca::mul_scalar(a.value(), s), {a}, [s](Node& n) {
    if (n.parents[0]->requires_grad) {
      n.parents[0]->accumulate(fca::mul_scalar(n.grad, s));
    }
  });
}

Variable add_scalar(const Variable& a, float s) {
  return make_op(fca::add_scalar(a.value(), s), {a}, [](Node& n) {
    if (n.parents[0]->requires_grad) n.parents[0]->accumulate(n.grad);
  });
}

Variable neg(const Variable& a) { return mul_scalar(a, -1.0f); }

Variable exp(const Variable& a) {
  Tensor v = fca::exp(a.value());
  return make_op(v, {a}, [](Node& n) {
    if (n.parents[0]->requires_grad) {
      n.parents[0]->accumulate(fca::mul(n.grad, n.value));
    }
  });
}

Variable log(const Variable& a) {
  return make_op(fca::log(a.value()), {a}, [](Node& n) {
    if (n.parents[0]->requires_grad) {
      n.parents[0]->accumulate(fca::div(n.grad, n.parents[0]->value));
    }
  });
}

Variable mul_const(const Variable& a, const Tensor& c) {
  Tensor mask = c.clone();
  return make_op(fca::mul(a.value(), c), {a}, [mask](Node& n) {
    if (n.parents[0]->requires_grad) {
      n.parents[0]->accumulate(fca::mul(n.grad, mask));
    }
  });
}

Variable matmul(const Variable& a, const Variable& b, bool trans_a,
                bool trans_b) {
  Tensor v = fca::matmul(a.value(), b.value(), trans_a, trans_b);
  return make_op(v, {a, b}, [trans_a, trans_b](Node& n) {
    const Tensor& g = n.grad;
    const Tensor& av = n.parents[0]->value;
    const Tensor& bv = n.parents[1]->value;
    if (n.parents[0]->requires_grad) {
      // dA for C = op(A) op(B): four transpose cases.
      Tensor da = trans_a ? fca::matmul(bv, g, trans_b, true)
                          : fca::matmul(g, bv, false, !trans_b);
      n.parents[0]->accumulate(da);
    }
    if (n.parents[1]->requires_grad) {
      Tensor db = trans_b ? fca::matmul(g, av, true, trans_a)
                          : fca::matmul(av, g, !trans_a, false);
      n.parents[1]->accumulate(db);
    }
  });
}

Variable add_rowwise(const Variable& m, const Variable& row) {
  Tensor v = fca::add_rowwise(m.value(), row.value());
  return make_op(v, {m, row}, [](Node& n) {
    if (n.parents[0]->requires_grad) n.parents[0]->accumulate(n.grad);
    if (n.parents[1]->requires_grad) {
      n.parents[1]->accumulate(fca::sum_rows(n.grad));
    }
  });
}

Variable l2_normalize_rows(const Variable& m, float eps) {
  FCA_CHECK(m.value().ndim() == 2);
  Tensor y = fca::l2_normalize_rows(m.value(), eps);
  Tensor yc = y.clone();
  return make_op(y, {m}, [yc, eps](Node& n) {
    if (!n.parents[0]->requires_grad) return;
    const Tensor& x = n.parents[0]->value;
    const Tensor& g = n.grad;
    const int64_t rows = x.dim(0);
    const int64_t cols = x.dim(1);
    Tensor dx(x.shape());
    // d/dx (x / ||x||) applied to g: (g - y (y . g)) / ||x||
    for (int64_t i = 0; i < rows; ++i) {
      double norm_sq = 0.0;
      double ydotg = 0.0;
      for (int64_t j = 0; j < cols; ++j) {
        const float xv = x[i * cols + j];
        norm_sq += static_cast<double>(xv) * xv;
        ydotg += static_cast<double>(yc[i * cols + j]) * g[i * cols + j];
      }
      const double norm =
          std::max(static_cast<double>(eps), std::sqrt(norm_sq));
      for (int64_t j = 0; j < cols; ++j) {
        dx[i * cols + j] = static_cast<float>(
            (g[i * cols + j] - yc[i * cols + j] * ydotg) / norm);
      }
    }
    n.parents[0]->accumulate(dx);
  });
}

Variable slice_rows(const Variable& m, int64_t from, int64_t to) {
  FCA_CHECK(m.value().ndim() == 2);
  const int64_t rows = m.value().dim(0);
  const int64_t cols = m.value().dim(1);
  FCA_CHECK(0 <= from && from <= to && to <= rows);
  Tensor v({to - from, cols});
  std::copy_n(m.value().data() + from * cols, (to - from) * cols, v.data());
  return make_op(v, {m}, [from, to, cols](Node& n) {
    if (!n.parents[0]->requires_grad) return;
    Tensor dx(n.parents[0]->value.shape());
    std::copy_n(n.grad.data(), (to - from) * cols, dx.data() + from * cols);
    n.parents[0]->accumulate(dx);
  });
}

Variable sum(const Variable& a) {
  Tensor v({1}, std::vector<float>{fca::sum(a.value())});
  return make_op(v, {a}, [](Node& n) {
    if (!n.parents[0]->requires_grad) return;
    n.parents[0]->accumulate(
        Tensor::full(n.parents[0]->value.shape(), n.grad[0]));
  });
}

Variable mean(const Variable& a) {
  FCA_CHECK(a.value().numel() > 0);
  return mul_scalar(sum(a), 1.0f / static_cast<float>(a.value().numel()));
}

Variable sum_squares(const Variable& a) {
  Tensor v({1}, std::vector<float>{fca::sum_squares(a.value())});
  return make_op(v, {a}, [](Node& n) {
    if (!n.parents[0]->requires_grad) return;
    Tensor dx = fca::mul_scalar(n.parents[0]->value, 2.0f * n.grad[0]);
    n.parents[0]->accumulate(dx);
  });
}

Variable log_softmax_rows(const Variable& logits) {
  FCA_CHECK(logits.value().ndim() == 2);
  Tensor v = fca::log_softmax_rows(logits.value());
  Tensor vc = v.clone();
  return make_op(v, {logits}, [vc](Node& n) {
    if (!n.parents[0]->requires_grad) return;
    // dL/dx = g - softmax(x) * rowsum(g)
    const int64_t rows = vc.dim(0);
    const int64_t cols = vc.dim(1);
    Tensor dx(vc.shape());
    for (int64_t i = 0; i < rows; ++i) {
      double gsum = 0.0;
      for (int64_t j = 0; j < cols; ++j) gsum += n.grad[i * cols + j];
      for (int64_t j = 0; j < cols; ++j) {
        dx[i * cols + j] = static_cast<float>(
            n.grad[i * cols + j] - std::exp(vc[i * cols + j]) * gsum);
      }
    }
    n.parents[0]->accumulate(dx);
  });
}

Variable select_cols(const Variable& m, const std::vector<int>& labels) {
  FCA_CHECK(m.value().ndim() == 2);
  const int64_t rows = m.value().dim(0);
  const int64_t cols = m.value().dim(1);
  FCA_CHECK(static_cast<int64_t>(labels.size()) == rows);
  Tensor v({rows});
  for (int64_t i = 0; i < rows; ++i) {
    FCA_CHECK(labels[static_cast<size_t>(i)] >= 0 &&
              labels[static_cast<size_t>(i)] < cols);
    v[i] = m.value()[i * cols + labels[static_cast<size_t>(i)]];
  }
  std::vector<int> lab = labels;
  return make_op(v, {m}, [lab, cols](Node& n) {
    if (!n.parents[0]->requires_grad) return;
    Tensor dx(n.parents[0]->value.shape());
    for (size_t i = 0; i < lab.size(); ++i) {
      dx[static_cast<int64_t>(i) * cols + lab[i]] =
          n.grad[static_cast<int64_t>(i)];
    }
    n.parents[0]->accumulate(dx);
  });
}

Variable cross_entropy(const Variable& logits,
                       const std::vector<int>& labels) {
  Variable lsm = log_softmax_rows(logits);
  Variable picked = select_cols(lsm, labels);
  return neg(mean(picked));
}

namespace {

/// Positive-pair weights for SupCon: pos_weight[i,j] = 1/|P(i)| when j is a
/// positive of anchor i (same label, j != i), else 0. Returns the number of
/// anchors with at least one positive.
int64_t supcon_pos_weight(const std::vector<int>& labels, int64_t n,
                          Tensor& pos_weight) {
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
  return active_anchors;
}

}  // namespace

Variable supervised_contrastive(const Variable& embeddings,
                                const std::vector<int>& labels,
                                float temperature) {
  obs::ProfileSpan span("kernel", "supcon", embeddings.value().dim(0));
  FCA_CHECK(embeddings.value().ndim() == 2);
  FCA_CHECK(temperature > 0.0f);
  const int64_t n = embeddings.value().dim(0);
  const int64_t d = embeddings.value().dim(1);
  FCA_CHECK(static_cast<int64_t>(labels.size()) == n);

  // Fused evaluation (tests/test_autograd.cpp keeps the op-by-op graph form
  // this replaces, supervised_contrastive_reference, as the agreement
  // oracle). Forward: one
  // n×n GEMM for every pairwise similarity, then a single row pass doing
  // shift/exp/denominator/loss. Backward is closed-form — for the shifted
  // logits G = dL/dS = -(1/A)(P - rowsum(P) ⊙ E/denom) and, since
  // S = z zᵀ/τ is symmetric in z, dL/dz = (G + Gᵀ) z / τ, one more GEMM —
  // instead of the reference's ~10 tape nodes each materializing an n×n
  // intermediate.
  const Tensor& x = embeddings.value();
  Tensor z = fca::l2_normalize_rows(x);
  Tensor sim = fca::matmul(z, z, false, true);
  fca::mul_scalar_(sim, 1.0f / temperature);

  Tensor pos_weight({n, n});
  const int64_t active_anchors = supcon_pos_weight(labels, n, pos_weight);
  if (active_anchors == 0) {
    // No positive pairs in the batch: loss is identically zero but must stay
    // connected to the graph so callers can still call backward().
    return make_op(Tensor({1}), {embeddings}, [](Node& n_) {
      if (!n_.parents[0]->requires_grad) return;
      n_.parents[0]->accumulate(Tensor(n_.parents[0]->value.shape()));
    });
  }

  // Row pass: subtract the detached row max (standard SupCon trick; since
  // each row contains the self-similarity 1/tau this is also the global max,
  // and detaching keeps the gradient exact because log-sum-exp is shift
  // invariant), exponentiate with the self-pair masked out, and accumulate
  // the positive-weighted log-probabilities.
  Tensor exp_sim({n, n});  // E = exp(S - rowmax) with zeroed diagonal
  Tensor denom({n});
  double loss_acc = 0.0;
  for (int64_t i = 0; i < n; ++i) {
    const float* srow = sim.data() + i * n;
    float* erow = exp_sim.data() + i * n;
    const float rowmax = *std::max_element(srow, srow + n);
    double dsum = 0.0;
    for (int64_t j = 0; j < n; ++j) {
      const float e = j == i ? 0.0f : std::exp(srow[j] - rowmax);
      erow[j] = e;
      dsum += e;
    }
    denom[i] = static_cast<float>(dsum);
    const float log_denom = std::log(denom[i]);
    const float* prow = pos_weight.data() + i * n;
    for (int64_t j = 0; j < n; ++j) {
      if (prow[j] != 0.0f) {
        loss_acc += static_cast<double>(prow[j]) *
                    (srow[j] - rowmax - log_denom);
      }
    }
  }
  Tensor loss({1});
  loss[0] = static_cast<float>(-loss_acc / static_cast<double>(active_anchors));

  const float eps = 1e-12f;  // l2_normalize_rows default
  const float inv_temp = 1.0f / temperature;
  const int64_t active = active_anchors;
  Tensor zc = z.clone();
  return make_op(
      loss, {embeddings},
      [zc, exp_sim, denom, pos_weight, active, inv_temp, eps, n, d](Node& n_) {
        if (!n_.parents[0]->requires_grad) return;
        const float g0 = n_.grad[0];
        const float scale = -g0 / static_cast<float>(active);
        Tensor grad_s({n, n});
        for (int64_t i = 0; i < n; ++i) {
          const float* prow = pos_weight.data() + i * n;
          const float* erow = exp_sim.data() + i * n;
          float* grow = grad_s.data() + i * n;
          float prow_sum = 0.0f;
          for (int64_t j = 0; j < n; ++j) prow_sum += prow[j];
          const float denom_scale = prow_sum / denom[i];
          for (int64_t j = 0; j < n; ++j) {
            grow[j] = scale * (prow[j] - denom_scale * erow[j]);
          }
        }
        // dL/dz = (G + Gᵀ) z / τ: fold the transpose into a second GEMM
        // rather than materializing Gᵀ.
        Tensor dz = fca::matmul(grad_s, zc, false, false);
        Tensor dz_t = fca::matmul(grad_s, zc, true, false);
        fca::add_(dz, dz_t);
        fca::mul_scalar_(dz, inv_temp);
        // Pullback of z = x/||x||, numerics matching ag::l2_normalize_rows.
        const Tensor& x = n_.parents[0]->value;
        Tensor dx(x.shape());
        for (int64_t i = 0; i < n; ++i) {
          const float* xrow = x.data() + i * d;
          const float* zrow = zc.data() + i * d;
          const float* grow = dz.data() + i * d;
          float* orow = dx.data() + i * d;
          double norm_sq = 0.0;
          double zdotg = 0.0;
          for (int64_t j = 0; j < d; ++j) {
            norm_sq += static_cast<double>(xrow[j]) * xrow[j];
            zdotg += static_cast<double>(zrow[j]) * grow[j];
          }
          const double norm =
              std::max(static_cast<double>(eps), std::sqrt(norm_sq));
          for (int64_t j = 0; j < d; ++j) {
            orow[j] = static_cast<float>((grow[j] - zrow[j] * zdotg) / norm);
          }
        }
        n_.parents[0]->accumulate(dx);
      });
}

Variable nt_xent(const Variable& embeddings, float temperature) {
  FCA_CHECK(embeddings.value().ndim() == 2);
  const int64_t n = embeddings.value().dim(0);
  FCA_CHECK_MSG(n % 2 == 0, "nt_xent expects a two-view batch (even rows)");
  const int64_t b = n / 2;
  std::vector<int> pair_labels(static_cast<size_t>(n));
  for (int64_t i = 0; i < b; ++i) {
    pair_labels[static_cast<size_t>(i)] = static_cast<int>(i);
    pair_labels[static_cast<size_t>(b + i)] = static_cast<int>(i);
  }
  return supervised_contrastive(embeddings, pair_labels, temperature);
}

}  // namespace fca::ag
