#include "nn/optim.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <iterator>
#include <limits>
#include <memory>

#include "utils/error.hpp"
#include "utils/rng.hpp"

namespace fca::nn {
namespace {

Param make_param(std::vector<float> value, std::vector<float> grad) {
  Param p("p", Tensor({static_cast<int64_t>(value.size())}, value));
  p.grad = Tensor({static_cast<int64_t>(grad.size())}, grad);
  return p;
}

TEST(SGD, PlainStepIsGradientDescent) {
  Param p = make_param({1.0f, 2.0f}, {0.5f, -1.0f});
  SGD sgd({&p}, 0.1f);
  sgd.step();
  EXPECT_FLOAT_EQ(p.value[0], 0.95f);
  EXPECT_FLOAT_EQ(p.value[1], 2.1f);
}

TEST(SGD, MomentumAccumulates) {
  Param p = make_param({0.0f}, {1.0f});
  SGD sgd({&p}, 1.0f, /*momentum=*/0.5f);
  sgd.step();  // v = 1, w = -1
  EXPECT_FLOAT_EQ(p.value[0], -1.0f);
  sgd.step();  // v = 0.5 + 1 = 1.5, w = -2.5
  EXPECT_FLOAT_EQ(p.value[0], -2.5f);
}

TEST(SGD, WeightDecayPullsTowardZero) {
  Param p = make_param({10.0f}, {0.0f});
  SGD sgd({&p}, 0.1f, 0.0f, /*weight_decay=*/0.1f);
  sgd.step();
  EXPECT_NEAR(p.value[0], 10.0f - 0.1f * (0.1f * 10.0f), 1e-5);
}

TEST(SGD, NesterovLooksAhead) {
  Param p = make_param({0.0f}, {1.0f});
  SGD sgd({&p}, 1.0f, 0.5f, 0.0f, /*nesterov=*/true);
  sgd.step();  // v=1, g_eff = 1 + 0.5*1 = 1.5, w = -1.5
  EXPECT_FLOAT_EQ(p.value[0], -1.5f);
}

TEST(SGD, NesterovRequiresMomentum) {
  Param p = make_param({0.0f}, {1.0f});
  EXPECT_THROW(SGD({&p}, 1.0f, 0.0f, 0.0f, true), Error);
}

TEST(SGD, RejectsNonPositiveLr) {
  Param p = make_param({0.0f}, {1.0f});
  EXPECT_THROW(SGD({&p}, 0.0f), Error);
}

TEST(Adam, FirstStepSizeIsLr) {
  // With bias correction the first Adam step is ~lr * sign(grad).
  Param p = make_param({1.0f}, {0.3f});
  Adam adam({&p}, 0.01f);
  adam.step();
  EXPECT_NEAR(p.value[0], 1.0f - 0.01f, 1e-4);
}

TEST(Adam, MatchesReferenceIteration) {
  // Hand-rolled two-step reference.
  const float lr = 0.1f, b1 = 0.9f, b2 = 0.999f, eps = 1e-8f;
  float w = 2.0f, m = 0.0f, v = 0.0f;
  Param p = make_param({2.0f}, {});
  Adam adam({&p}, lr, b1, b2, eps);
  const float grads[2] = {0.4f, -0.2f};
  for (int t = 1; t <= 2; ++t) {
    const float g = grads[t - 1];
    m = b1 * m + (1 - b1) * g;
    v = b2 * v + (1 - b2) * g * g;
    const float mhat = m / (1 - std::pow(b1, static_cast<float>(t)));
    const float vhat = v / (1 - std::pow(b2, static_cast<float>(t)));
    w -= lr * mhat / (std::sqrt(vhat) + eps);

    p.grad = Tensor({1}, {g});
    adam.step();
    EXPECT_NEAR(p.value[0], w, 1e-5) << "step " << t;
  }
}

TEST(Adam, WeightDecayAffectsUpdate) {
  Param p = make_param({5.0f}, {0.0f});
  Adam adam({&p}, 0.1f, 0.9f, 0.999f, 1e-8f, /*weight_decay=*/0.5f);
  adam.step();
  // Effective gradient = 0.5 * 5 = 2.5 -> first step ~= -lr.
  EXPECT_NEAR(p.value[0], 5.0f - 0.1f, 1e-3);
}

TEST(Optimizer, ZeroGradClearsAll) {
  Param a = make_param({1.0f}, {3.0f});
  Param b = make_param({1.0f, 1.0f}, {4.0f, 5.0f});
  SGD sgd({&a, &b}, 0.1f);
  sgd.zero_grad();
  EXPECT_FLOAT_EQ(a.grad[0], 0.0f);
  EXPECT_FLOAT_EQ(b.grad[1], 0.0f);
}

TEST(Optimizer, SetLrTakesEffect) {
  Param p = make_param({0.0f}, {1.0f});
  SGD sgd({&p}, 0.1f);
  sgd.set_lr(1.0f);
  sgd.step();
  EXPECT_FLOAT_EQ(p.value[0], -1.0f);
}

TEST(Adam, ConvergesOnQuadratic) {
  // min (w - 3)^2: Adam should approach 3.
  Param p = make_param({0.0f}, {0.0f});
  Adam adam({&p}, 0.2f);
  for (int i = 0; i < 200; ++i) {
    p.grad[0] = 2.0f * (p.value[0] - 3.0f);
    adam.step();
  }
  EXPECT_NEAR(p.value[0], 3.0f, 0.05f);
}

TEST(SGD, MomentumConvergesOnQuadratic) {
  Param p = make_param({10.0f}, {0.0f});
  SGD sgd({&p}, 0.05f, 0.9f);
  for (int i = 0; i < 300; ++i) {
    p.grad[0] = 2.0f * (p.value[0] - 3.0f);
    sgd.step();
  }
  EXPECT_NEAR(p.value[0], 3.0f, 0.05f);
}

bool bytes_equal(const Tensor& a, const Tensor& b) {
  return a.same_shape(b) &&
         std::memcmp(a.data(), b.data(),
                     static_cast<size_t>(a.numel()) * sizeof(float)) == 0;
}

/// Adam's update in the library's scalar expression order, one element at
/// a time: the reference the vectorized kernel must match byte for byte.
struct ScalarAdam {
  float lr, b1, b2, eps, wd;

  /// Step `t` (1-based) of one parameter.
  void step(int t, std::vector<float>& w, const std::vector<float>& g,
            std::vector<float>& m, std::vector<float>& v) const {
    // The betas go through volatile so the bias corrections come from the
    // same runtime powf the optimizer calls, not a compile-time fold.
    volatile float vb1 = b1, vb2 = b2;
    const float bc1 = 1.0f - std::pow(vb1, static_cast<float>(t));
    const float bc2 = 1.0f - std::pow(vb2, static_cast<float>(t));
    for (size_t j = 0; j < w.size(); ++j) {
      float gj = g[j];
      if (wd > 0.0f) gj = gj + wd * w[j];
      m[j] = b1 * m[j] + (1.0f - b1) * gj;
      v[j] = b2 * v[j] + ((1.0f - b2) * gj) * gj;
      w[j] -= (lr * (m[j] / bc1)) / (std::sqrt(v[j] / bc2) + eps);
    }
  }
};

TEST(Adam, ByteEqualToScalarReference) {
  std::vector<int64_t> sizes;
  for (int64_t n = 1; n <= 70; ++n) sizes.push_back(n);
  for (int64_t n : {127, 128, 129, 1000, 4097, 65537}) sizes.push_back(n);
  for (const float wd : {0.0f, 1e-4f, 0.5f}) {
    Rng rng(static_cast<uint64_t>(wd * 1e6f) + 17);
    std::vector<std::unique_ptr<Param>> params;
    std::vector<Param*> ptrs;
    std::vector<std::vector<float>> w, m, v;
    for (const int64_t n : sizes) {
      auto p = std::make_unique<Param>("p", Tensor::randn({n}, rng));
      p->grad = Tensor({n});
      w.emplace_back(p->value.data(), p->value.data() + n);
      m.emplace_back(static_cast<size_t>(n), 0.0f);
      v.emplace_back(static_cast<size_t>(n), 0.0f);
      ptrs.push_back(p.get());
      params.push_back(std::move(p));
    }
    Adam adam(ptrs, 3e-3f, 0.9f, 0.999f, 1e-8f, wd);
    const ScalarAdam ref{3e-3f, 0.9f, 0.999f, 1e-8f, wd};
    for (int t = 1; t <= 5; ++t) {
      for (size_t i = 0; i < params.size(); ++i) {
        Tensor& g = params[i]->grad;
        for (int64_t j = 0; j < g.numel(); ++j) {
          // Every tenth gradient is exactly zero (v / bc2 can be 0).
          g[j] = rng.uniform_int(10) == 0 ? 0.0f
                                          : static_cast<float>(rng.normal());
        }
        const std::vector<float> gv(g.data(), g.data() + g.numel());
        ref.step(t, w[i], gv, m[i], v[i]);
      }
      adam.step();
      const std::vector<Tensor*> slots = adam.state_tensors();
      for (size_t i = 0; i < params.size(); ++i) {
        const auto n = static_cast<size_t>(params[i]->value.numel());
        const size_t bytes = n * sizeof(float);
        ASSERT_EQ(std::memcmp(params[i]->value.data(), w[i].data(), bytes), 0)
            << "value, n=" << n << " wd=" << wd << " t=" << t;
        ASSERT_EQ(std::memcmp(slots[i]->data(), m[i].data(), bytes), 0)
            << "m, n=" << n << " wd=" << wd << " t=" << t;
        ASSERT_EQ(
            std::memcmp(slots[params.size() + i]->data(), v[i].data(), bytes),
            0)
            << "v, n=" << n << " wd=" << wd << " t=" << t;
      }
    }
  }
}

/// Steps `opt` k times on fresh gradients, resets it, then takes one more
/// step; the parameter and every slot must equal what a newly built
/// optimizer gives from the same starting point, and the slots must keep
/// their storage.
template <typename MakeOpt>
void expect_reset_equals_fresh(MakeOpt make) {
  Rng rng(5);
  Param a("a", Tensor::randn({37}, rng));
  Param b("b", Tensor::randn({4, 9}, rng));
  a.grad = Tensor({37});
  b.grad = Tensor({4, 9});
  const auto fill_grads = [&rng](Param& p) {
    for (int64_t j = 0; j < p.grad.numel(); ++j) {
      p.grad[j] = static_cast<float>(rng.normal());
    }
  };
  std::unique_ptr<Optimizer> opt = make(std::vector<Param*>{&a, &b});
  std::vector<const float*> storage;
  for (const Tensor* s : opt->state_tensors()) storage.push_back(s->data());
  const float lr0 = opt->lr();
  for (int k = 0; k < 3; ++k) {
    fill_grads(a);
    fill_grads(b);
    opt->step();
  }
  opt->set_lr(lr0 * 7.0f);
  opt->reset();
  EXPECT_EQ(opt->lr(), lr0);

  fill_grads(a);
  fill_grads(b);
  Param fa("a", a.value.clone());
  Param fb("b", b.value.clone());
  fa.grad = a.grad.clone();
  fb.grad = b.grad.clone();
  std::unique_ptr<Optimizer> fresh = make(std::vector<Param*>{&fa, &fb});
  opt->step();
  fresh->step();

  EXPECT_TRUE(bytes_equal(a.value, fa.value));
  EXPECT_TRUE(bytes_equal(b.value, fb.value));
  const std::vector<Tensor*> slots = opt->state_tensors();
  const std::vector<Tensor*> fresh_slots = fresh->state_tensors();
  ASSERT_EQ(slots.size(), storage.size());
  ASSERT_EQ(slots.size(), fresh_slots.size());
  for (size_t s = 0; s < slots.size(); ++s) {
    EXPECT_EQ(slots[s]->data(), storage[s]) << "slot " << s << " moved";
    EXPECT_TRUE(bytes_equal(*slots[s], *fresh_slots[s])) << "slot " << s;
  }
  EXPECT_EQ(opt->scalar_state(), fresh->scalar_state());
}

TEST(SGD, ResetEqualsFreshConstruction) {
  expect_reset_equals_fresh([](std::vector<Param*> ps) {
    return std::make_unique<SGD>(std::move(ps), 0.05f, /*momentum=*/0.9f,
                                 /*weight_decay=*/1e-3f);
  });
  expect_reset_equals_fresh([](std::vector<Param*> ps) {
    return std::make_unique<SGD>(std::move(ps), 0.05f, 0.9f, 0.0f,
                                 /*nesterov=*/true);
  });
}

TEST(Adam, ResetEqualsFreshConstruction) {
  expect_reset_equals_fresh([](std::vector<Param*> ps) {
    return std::make_unique<Adam>(std::move(ps), 3e-3f);
  });
  expect_reset_equals_fresh([](std::vector<Param*> ps) {
    return std::make_unique<Adam>(std::move(ps), 1e-2f, 0.8f, 0.99f, 1e-6f,
                                  /*weight_decay=*/1e-4f);
  });
}

/// Values a first Adam step must carry bit for bit: both signed zeros,
/// subnormals of both signs, and ordinary floats.
std::vector<float> edge_values(Rng& rng, int64_t n) {
  const float sub = std::numeric_limits<float>::denorm_min();
  const float special[] = {0.0f, -0.0f, sub, -sub, 1000.0f * sub,
                           -std::numeric_limits<float>::min() / 4.0f};
  std::vector<float> out(static_cast<size_t>(n));
  for (int64_t j = 0; j < n; ++j) {
    out[static_cast<size_t>(j)] =
        j % 3 == 0 ? static_cast<float>(rng.normal())
                   : special[static_cast<size_t>(j) % std::size(special)];
  }
  return out;
}

TEST(Adam, ResetSlotsReadAsZerosAndFirstStepEqualsFresh) {
  for (const float wd : {0.0f, 1e-3f}) {
    Rng rng(17);
    // `lazy` steps straight after its reset, on slots it never zeroed;
    // `read` has its slots read (so written) between the reset and the
    // step; `fresh` is built at that point.
    Param lazy_p("p", Tensor::randn({77}, rng));
    lazy_p.grad = Tensor({77});
    Param read_p("p", lazy_p.value.clone());
    read_p.grad = Tensor({77});
    Adam lazy({&lazy_p}, 3e-3f, 0.9f, 0.999f, 1e-8f, wd);
    Adam read({&read_p}, 3e-3f, 0.9f, 0.999f, 1e-8f, wd);
    for (int k = 0; k < 3; ++k) {
      for (int64_t j = 0; j < 77; ++j) {
        lazy_p.grad[j] = read_p.grad[j] = static_cast<float>(rng.normal());
      }
      lazy.step();
      read.step();
    }
    lazy.reset();
    read.reset();
    for (const Tensor* s : read.state_tensors()) {
      for (int64_t j = 0; j < s->numel(); ++j) {
        ASSERT_EQ(std::signbit((*s)[j]), false) << "wd=" << wd;
        ASSERT_EQ((*s)[j], 0.0f) << "wd=" << wd;
      }
    }
    EXPECT_EQ(read.scalar_state(), std::vector<int64_t>{0});

    const std::vector<float> value = edge_values(rng, 77);
    const std::vector<float> grad = edge_values(rng, 77);
    for (Param* p : {&lazy_p, &read_p}) {
      std::memcpy(p->value.data(), value.data(), value.size() * sizeof(float));
      std::memcpy(p->grad.data(), grad.data(), grad.size() * sizeof(float));
    }
    Param fresh_p("p", lazy_p.value.clone());
    fresh_p.grad = lazy_p.grad.clone();
    Adam fresh({&fresh_p}, 3e-3f, 0.9f, 0.999f, 1e-8f, wd);
    lazy.step();
    read.step();
    fresh.step();

    const size_t bytes = value.size() * sizeof(float);
    const std::vector<Tensor*> fresh_slots = fresh.state_tensors();
    for (Adam* opt : {&lazy, &read}) {
      const Param& p = opt == &lazy ? lazy_p : read_p;
      EXPECT_EQ(std::memcmp(p.value.data(), fresh_p.value.data(), bytes), 0)
          << (opt == &lazy ? "lazy" : "read") << " value, wd=" << wd;
      const std::vector<Tensor*> slots = opt->state_tensors();
      ASSERT_EQ(slots.size(), fresh_slots.size());
      for (size_t s = 0; s < slots.size(); ++s) {
        EXPECT_EQ(std::memcmp(slots[s]->data(), fresh_slots[s]->data(), bytes),
                  0)
            << (opt == &lazy ? "lazy" : "read") << " slot " << s
            << ", wd=" << wd;
      }
      EXPECT_EQ(opt->scalar_state(), fresh.scalar_state());
    }
  }
}

}  // namespace
}  // namespace fca::nn
