#include "models/serialize.hpp"

#include <gtest/gtest.h>

#include <cstring>

#include "models/factory.hpp"
#include "tensor/ops.hpp"
#include "utils/error.hpp"

namespace fca::models {
namespace {

ModelConfig tiny_config() {
  ModelConfig mc;
  mc.arch = Arch::kMiniAlexNet;
  mc.in_channels = 1;
  mc.image_size = 8;
  mc.feature_dim = 8;
  mc.num_classes = 3;
  mc.width = 4;
  return mc;
}

TEST(Serialize, ParamsSizeIsTheStateSizeWithoutBuffers) {
  Rng rng(1);
  auto model = build_model(tiny_config(), rng);  // MiniAlexNet: no buffers
  ASSERT_TRUE(model->buffers().empty());
  EXPECT_EQ(serialize_state(*model).size(),
            serialized_params_size(model->parameters()));
}

TEST(Serialize, StateIncludesBuffers) {
  ModelConfig mc = tiny_config();
  mc.arch = Arch::kMiniResNet;  // has BatchNorm buffers
  mc.width = 4;
  Rng rng(2);
  auto src = build_model(mc, rng);
  // Perturb running stats so the round trip is observable.
  for (auto& buf : src->buffers()) buf.tensor->fill(0.33f);
  auto dst = build_model(mc, rng);
  deserialize_state(serialize_state(*src), *dst);
  for (auto& buf : dst->buffers()) {
    for (int64_t i = 0; i < buf.tensor->numel(); ++i) {
      EXPECT_FLOAT_EQ((*buf.tensor)[i], 0.33f);
    }
  }
  EXPECT_GT(serialized_state_size(*src),
            serialized_params_size(src->parameters()));
}

TEST(Serialize, TensorsRoundTrip) {
  Rng rng(3);
  std::vector<Tensor> tensors;
  tensors.push_back(Tensor::randn({3, 4}, rng));
  tensors.push_back(Tensor::randn({7}, rng));
  tensors.push_back(Tensor({2, 2, 2}, 1.5f));
  const auto bytes = serialize_tensors(tensors);
  const auto back = deserialize_tensors(bytes);
  ASSERT_EQ(back.size(), 3u);
  for (size_t i = 0; i < tensors.size(); ++i) {
    EXPECT_EQ(back[i].shape(), tensors[i].shape());
    EXPECT_TRUE(allclose(back[i], tensors[i], 0.0f, 0.0f));
  }
}

TEST(Serialize, EmptyTensorList) {
  const auto bytes = serialize_tensors({});
  EXPECT_TRUE(deserialize_tensors(bytes).empty());
}

TEST(Serialize, RejectsTruncatedBuffer) {
  Rng rng(4);
  std::vector<Tensor> tensors{Tensor::randn({4}, rng)};
  auto bytes = serialize_tensors(tensors);
  bytes.resize(bytes.size() - 3);
  EXPECT_THROW(deserialize_tensors(bytes), Error);
}

TEST(Serialize, RejectsShapeMismatchOnState) {
  Rng rng(5);
  auto a = build_model(tiny_config(), rng);
  ModelConfig other = tiny_config();
  other.feature_dim = 16;
  auto b = build_model(other, rng);
  const auto bytes = serialize_state(*a);
  EXPECT_THROW(deserialize_state(bytes, *b), Error);
  EXPECT_THROW(check_state(bytes, *b), Error);
}

TEST(Serialize, ClassifierPayloadIsSmall) {
  // The headline communication claim: classifier-only payloads are orders
  // of magnitude smaller than the full model.
  Rng rng(6);
  ModelConfig mc = tiny_config();
  mc.arch = Arch::kMiniResNet;
  mc.width = 8;
  auto model = build_model(mc, rng);
  const size_t full = serialized_params_size(model->parameters());
  const size_t clf = serialized_params_size(model->classifier_parameters());
  EXPECT_LT(clf * 10, full);
}

TEST(Serialize, CopySnapshotRestore) {
  Rng rng(7);
  auto a = build_model(tiny_config(), rng);
  auto b = build_model(tiny_config(), rng);
  const auto snapshot = snapshot_values(a->parameters());
  restore_values(snapshot, b->parameters());
  EXPECT_TRUE(allclose(a->classifier().weight().value,
                       b->classifier().weight().value, 0.0f, 0.0f));

  a->classifier().weight().value.fill(9.0f);
  restore_values(snapshot, a->parameters());
  EXPECT_TRUE(allclose(a->classifier().weight().value,
                       b->classifier().weight().value, 0.0f, 0.0f));
}

TEST(Serialize, RestoreRejectsCountMismatch) {
  Rng rng(8);
  auto a = build_model(tiny_config(), rng);
  std::vector<Tensor> wrong{Tensor({2})};
  EXPECT_THROW(restore_values(wrong, a->parameters()), Error);
}

TEST(Serialize, RestoreRejectsMisshapedSnapshotBeforeAnyWrite) {
  Rng rng(9);
  auto a = build_model(tiny_config(), rng);
  const std::vector<nn::Param*> params = a->parameters();
  ASSERT_GE(params.size(), 2u);
  std::vector<Tensor> snapshot = snapshot_values(params);
  snapshot[0].fill(7.0f);
  snapshot[1] = Tensor({params[1]->value.numel() + 1});
  const Tensor before = params[0]->value.clone();
  EXPECT_THROW(restore_values(snapshot, params), Error);
  EXPECT_TRUE(allclose(params[0]->value, before, 0.0f, 0.0f));
}

TEST(Serialize, SerializeValuesMatchesSnapshotBytes) {
  ModelConfig mc = tiny_config();
  mc.arch = Arch::kMiniResNet;
  Rng rng(9);
  auto model = build_model(mc, rng);
  EXPECT_EQ(serialize_values(model->parameters()),
            serialize_tensors(snapshot_values(model->parameters())));
  EXPECT_EQ(serialize_values(model->classifier_parameters()),
            serialize_tensors(snapshot_values(model->classifier_parameters())));
}

/// weighted_sum_into over serialized payloads, each parsed with
/// view_tensors first, as FederatedRun::average_into parses them.
void sum_payloads(const std::vector<std::vector<std::byte>>& payloads,
                  std::span<const float> weights, std::vector<Tensor>& out) {
  std::vector<std::vector<TensorView>> views;
  for (const std::vector<std::byte>& p : payloads) {
    views.push_back(view_tensors(p));
  }
  const std::vector<std::span<const TensorView>> ups(views.begin(),
                                                       views.end());
  weighted_sum_into(ups, weights, out);
}

std::vector<Tensor> zeros_like(const std::vector<Tensor>& ts) {
  std::vector<Tensor> out;
  for (const Tensor& t : ts) out.emplace_back(t.shape());
  return out;
}

TEST(Serialize, AccumulateIsBitEqualToDeserializeAxpy) {
  Rng rng(10);
  std::vector<std::vector<Tensor>> uploads;
  for (int k = 0; k < 3; ++k) {
    uploads.push_back({Tensor::randn({5, 7}, rng), Tensor::randn({5}, rng),
                       Tensor::randn({2, 3, 2}, rng)});
  }
  const std::vector<float> weights = {0.2f, 0.3333333f, 0.4666667f};
  std::vector<Tensor> expected = zeros_like(uploads[0]);
  std::vector<std::vector<std::byte>> payloads;
  for (size_t k = 0; k < uploads.size(); ++k) {
    payloads.push_back(serialize_tensors(uploads[k]));
    const std::vector<Tensor> up = deserialize_tensors(payloads.back());
    for (size_t t = 0; t < up.size(); ++t) axpy_(expected[t], weights[k], up[t]);
  }
  // Once taking the first payload's shapes, once over stale values, which
  // must not leak into the sum.
  std::vector<Tensor> fresh;
  sum_payloads(payloads, weights, fresh);
  std::vector<Tensor> stale = zeros_like(uploads[0]);
  for (Tensor& t : stale) t.fill(7.0f);
  sum_payloads(payloads, weights, stale);
  for (const std::vector<Tensor>* got : {&fresh, &stale}) {
    ASSERT_EQ(got->size(), expected.size());
    for (size_t t = 0; t < got->size(); ++t) {
      const Tensor& g = (*got)[t];
      ASSERT_EQ(g.shape(), expected[t].shape());
      EXPECT_EQ(std::memcmp(g.data(), expected[t].data(),
                            static_cast<size_t>(g.numel()) * sizeof(float)),
                0)
          << (got == &fresh ? "fresh" : "stale") << ", tensor " << t;
    }
  }
}

TEST(Serialize, AccumulateRejectsMismatchedPayloads) {
  Rng rng(11);
  const std::vector<Tensor> two{Tensor::randn({3, 2}, rng),
                                Tensor::randn({3}, rng)};
  std::vector<Tensor> agg = zeros_like(two);
  for (Tensor& t : agg) t.fill(3.0f);
  const std::vector<float> weights = {0.5f, 0.5f};
  // Each bad payload comes last, after a good one, so a sum that wrote
  // before it checked every payload would show.
  const auto rejects = [&](std::vector<std::byte> bad) {
    const std::vector<std::vector<std::byte>> payloads{serialize_tensors(two),
                                                       std::move(bad)};
    EXPECT_THROW(sum_payloads(payloads, weights, agg), Error);
    for (const Tensor& t : agg) {
      EXPECT_TRUE(allclose(t, Tensor(t.shape(), 3.0f), 0.0f, 0.0f));
    }
    std::vector<Tensor> none;
    EXPECT_THROW(sum_payloads(payloads, weights, none), Error);
    EXPECT_TRUE(none.empty());
  };
  // Count mismatch: one tensor too many and one too few.
  std::vector<Tensor> three = two;
  three.push_back(Tensor::randn({1}, rng));
  rejects(serialize_tensors(three));
  rejects(serialize_tensors({two[0]}));
  // Shape mismatch: same numel, different shape.
  rejects(serialize_tensors({two[0].reshape({2, 3}), two[1]}));
  // Trailing bytes after a well-formed list.
  std::vector<std::byte> trailing = serialize_tensors(two);
  trailing.push_back(std::byte{0});
  rejects(std::move(trailing));
  // One good payload at weight 1 yields exactly that payload.
  const std::vector<std::vector<std::byte>> good{serialize_tensors(two)};
  sum_payloads(good, std::vector<float>{1.0f}, agg);
  EXPECT_TRUE(allclose(agg[0], two[0], 0.0f, 0.0f));
}

// FedClassAvg+Proto sums only the leading [W, b] of each [W, b, protos,
// counts] upload: a slice of the views, not the whole payload.
TEST(Serialize, WeightedSumOverLeadingSlices) {
  Rng rng(13);
  std::vector<std::vector<std::byte>> payloads;
  for (int k = 0; k < 3; ++k) {
    payloads.push_back(serialize_tensors(
        {Tensor::randn({3, 4}, rng), Tensor::randn({3}, rng),
         Tensor::randn({3, 6}, rng), Tensor::randn({3}, rng)}));
  }
  const std::vector<float> weights = {0.5f, 0.125f, 0.75f};
  std::vector<std::vector<TensorView>> views;
  std::vector<std::span<const TensorView>> heads;
  std::vector<Tensor> expected{Tensor({3, 4}), Tensor({3})};
  for (size_t k = 0; k < payloads.size(); ++k) {
    views.push_back(view_tensors(payloads[k]));
    heads.push_back(std::span(views[k]).first(2));
    const std::vector<Tensor> up = deserialize_tensors(payloads[k]);
    for (size_t t = 0; t < 2; ++t) axpy_(expected[t], weights[k], up[t]);
  }
  std::vector<Tensor> got{Tensor({3, 4}, 9.0f), Tensor({3}, 9.0f)};
  weighted_sum_into(heads, weights, got);
  ASSERT_EQ(got.size(), 2u);
  for (size_t t = 0; t < 2; ++t) {
    ASSERT_EQ(got[t].shape(), expected[t].shape());
    EXPECT_EQ(std::memcmp(got[t].data(), expected[t].data(),
                          static_cast<size_t>(got[t].numel()) * sizeof(float)),
              0)
        << "tensor " << t;
  }
  // The last slice holds [protos, counts] instead: rejected before a write.
  heads.back() = std::span(views.back()).last(2);
  std::vector<Tensor> kept{got[0].clone(), got[1].clone()};
  EXPECT_THROW(weighted_sum_into(heads, weights, got), Error);
  for (size_t t = 0; t < 2; ++t) {
    EXPECT_TRUE(allclose(got[t], kept[t], 0.0f, 0.0f)) << "tensor " << t;
  }
}

void put_u32_at(std::vector<std::byte>& b, size_t at, uint32_t v) {
  std::memcpy(b.data() + at, &v, sizeof(v));
}

TEST(Serialize, DeserializeBoundsCorruptHeaders) {
  Rng rng(12);
  const std::vector<std::byte> good =
      serialize_tensors({Tensor::randn({4, 4}, rng)});
  // Layout: u32 count | u32 name_len | "0" | u32 ndim | i64 dims[2] | floats.
  constexpr size_t kNdimAt = 4 + 4 + 1;
  constexpr size_t kDim0At = kNdimAt + 4;

  // Truncated anywhere: never a partial parse.
  for (size_t n = 0; n < good.size(); ++n) {
    const std::vector<std::byte> cut(good.begin(),
                                     good.begin() + static_cast<long>(n));
    EXPECT_THROW(deserialize_tensors(cut), Error) << "truncated to " << n;
  }
  // A count of 0xFFFFFFFF must fail before reserving 4G tensor slots.
  std::vector<std::byte> huge_count = good;
  put_u32_at(huge_count, 0, 0xFFFFFFFFu);
  EXPECT_THROW(deserialize_tensors(huge_count), Error);
  // A 2^40 dim must fail before allocating 4 TiB of floats.
  std::vector<std::byte> huge_dim = good;
  const int64_t big = int64_t{1} << 40;
  std::memcpy(huge_dim.data() + kDim0At, &big, sizeof(big));
  EXPECT_THROW(deserialize_tensors(huge_dim), Error);
  // Dims whose product overflows int64 are rejected, not wrapped.
  std::vector<std::byte> overflow = good;
  const int64_t half = int64_t{1} << 33;
  std::memcpy(overflow.data() + kDim0At, &half, sizeof(half));
  std::memcpy(overflow.data() + kDim0At + 8, &half, sizeof(half));
  EXPECT_THROW(deserialize_tensors(overflow), Error);
  // A negative dim and an absurd ndim are rejected too.
  std::vector<std::byte> negative = good;
  const int64_t minus = -4;
  std::memcpy(negative.data() + kDim0At, &minus, sizeof(minus));
  EXPECT_THROW(deserialize_tensors(negative), Error);
  std::vector<std::byte> huge_ndim = good;
  put_u32_at(huge_ndim, kNdimAt, 0xFFFFFFFFu);
  EXPECT_THROW(deserialize_tensors(huge_ndim), Error);
  // The untouched buffer still parses.
  EXPECT_EQ(deserialize_tensors(good).size(), 1u);
}

TEST(Serialize, RankZeroTensorHoldsNoFloats) {
  // Tensor(Shape{}) has numel 0, and the serializer writes no floats for
  // it; the parser must count it the same way.
  const std::vector<std::byte> bytes = serialize_tensors({Tensor(Shape{})});
  const std::vector<Tensor> back = deserialize_tensors(bytes);
  ASSERT_EQ(back.size(), 1u);
  EXPECT_EQ(back[0].ndim(), 0);
  EXPECT_EQ(back[0].numel(), 0);
  // The same record followed by one float's worth of bytes is a trailing
  // remainder, not a float to copy into the empty tensor.
  std::vector<std::byte> padded = bytes;
  padded.resize(bytes.size() + sizeof(float), std::byte{0x3f});
  EXPECT_THROW(deserialize_tensors(padded), Error);
  EXPECT_THROW(view_tensors(padded), Error);
}

}  // namespace
}  // namespace fca::models
