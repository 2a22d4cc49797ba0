#include "models/serialize.hpp"

#include <algorithm>
#include <cstring>

#include "utils/bytes.hpp"
#include "utils/error.hpp"
#include "utils/threadpool.hpp"

namespace fca::models {
namespace {

// Buffer format, little-endian:
//   u32 tensor_count
//   per tensor: u32 name_len, name bytes, u32 ndim, i64 dims..., f32 data...

struct NamedTensor {
  std::string name;
  Tensor* tensor;
};

size_t serialized_named_size(const std::vector<NamedTensor>& items) {
  size_t n = sizeof(uint32_t);
  for (const auto& it : items) {
    n += sizeof(uint32_t) + it.name.size();
    n += sizeof(uint32_t) +
         static_cast<size_t>(it.tensor->ndim()) * sizeof(int64_t);
    n += static_cast<size_t>(it.tensor->numel()) * sizeof(float);
  }
  return n;
}

void append_named(const std::vector<NamedTensor>& items,
                  std::vector<std::byte>& out) {
  utils::ByteWriter w(out);
  w.u32(static_cast<uint32_t>(items.size()));
  for (const auto& it : items) {
    w.str(it.name);
    w.u32(static_cast<uint32_t>(it.tensor->ndim()));
    for (int64_t d : it.tensor->shape()) w.i64(d);
    w.raw(std::as_bytes(std::span<const float>(
        it.tensor->data(), static_cast<size_t>(it.tensor->numel()))));
  }
}

std::vector<std::byte> serialize_named(const std::vector<NamedTensor>& items) {
  std::vector<std::byte> out;
  out.reserve(serialized_named_size(items));
  append_named(items, out);
  return out;
}

/// Checks a named-tensor buffer against `items` (count, names, shapes and
/// length) and returns each tensor's data bytes; writes nothing.
std::vector<std::span<const std::byte>> parse_named(
    std::span<const std::byte> bytes, const std::vector<NamedTensor>& items) {
  utils::ByteReader r(bytes);
  const uint32_t count = r.u32();
  FCA_CHECK_MSG(count == items.size(), "tensor count mismatch: buffer has "
                                           << count << ", target has "
                                           << items.size());
  std::vector<std::span<const std::byte>> data;
  data.reserve(items.size());
  for (const auto& it : items) {
    const std::string_view name = r.str();
    FCA_CHECK_MSG(name == it.name,
                  "tensor name mismatch: '" << name << "' vs '" << it.name
                                            << "'");
    const uint32_t ndim = r.u32();
    FCA_CHECK_MSG(ndim == static_cast<uint32_t>(it.tensor->ndim()),
                  "rank mismatch for " << name);
    for (int64_t d = 0; d < it.tensor->ndim(); ++d) {
      FCA_CHECK_MSG(r.i64() == it.tensor->dim(d), "shape mismatch for "
                                                      << name);
    }
    data.push_back(
        r.need(static_cast<size_t>(it.tensor->numel()) * sizeof(float)));
  }
  r.expect_done();
  return data;
}

/// parse_named, then the copies: a rejected buffer leaves every tensor as
/// it was.
void deserialize_named(std::span<const std::byte> bytes,
                       const std::vector<NamedTensor>& items) {
  const std::vector<std::span<const std::byte>> data =
      parse_named(bytes, items);
  for (size_t i = 0; i < items.size(); ++i) {
    if (!data[i].empty()) {
      std::memcpy(items[i].tensor->data(), data[i].data(), data[i].size());
    }
  }
}

std::vector<NamedTensor> param_tensors(const std::vector<nn::Param*>& params) {
  std::vector<NamedTensor> out;
  out.reserve(params.size());
  for (size_t i = 0; i < params.size(); ++i) {
    // Positional prefix keeps equal simple names ("weight") distinct.
    out.push_back({std::to_string(i) + ":" + params[i]->name,
                   &params[i]->value});
  }
  return out;
}

std::vector<NamedTensor> state_tensors(SplitModel& model) {
  std::vector<NamedTensor> out = param_tensors(model.parameters());
  for (const auto& buf : model.buffers()) {
    out.push_back({"buf:" + buf.name, buf.tensor});
  }
  return out;
}

/// serialize_tensors' naming: position i is named "i".
std::vector<NamedTensor> indexed_tensors(const std::vector<Tensor*>& tensors) {
  std::vector<NamedTensor> out;
  out.reserve(tensors.size());
  for (size_t i = 0; i < tensors.size(); ++i) {
    out.push_back({std::to_string(i), tensors[i]});
  }
  return out;
}

}  // namespace

size_t serialized_params_size(const std::vector<nn::Param*>& params) {
  return serialized_named_size(param_tensors(params));
}

std::vector<std::byte> serialize_state(SplitModel& model) {
  return serialize_named(state_tensors(model));
}

void deserialize_state(std::span<const std::byte> bytes, SplitModel& model) {
  deserialize_named(bytes, state_tensors(model));
}

void check_state(std::span<const std::byte> bytes, SplitModel& model) {
  parse_named(bytes, state_tensors(model));
}

size_t serialized_state_size(SplitModel& model) {
  return serialized_named_size(state_tensors(model));
}

void append_state(SplitModel& model, std::vector<std::byte>& out) {
  append_named(state_tensors(model), out);
}

size_t serialized_tensors_size(const std::vector<Tensor*>& tensors) {
  return serialized_named_size(indexed_tensors(tensors));
}

void append_tensors(const std::vector<Tensor*>& tensors,
                    std::vector<std::byte>& out) {
  append_named(indexed_tensors(tensors), out);
}

std::vector<std::byte> serialize_tensors(const std::vector<Tensor>& tensors) {
  std::vector<NamedTensor> items;
  items.reserve(tensors.size());
  for (size_t i = 0; i < tensors.size(); ++i) {
    // serialize_named only reads through the pointer, so the const_cast is
    // safe; the alternative (templating NamedTensor on constness) is not
    // worth the noise.
    items.push_back(
        {std::to_string(i), const_cast<Tensor*>(&tensors[i])});
  }
  return serialize_named(items);
}

std::vector<std::byte> serialize_values(const std::vector<nn::Param*>& params) {
  std::vector<NamedTensor> items;
  items.reserve(params.size());
  for (size_t i = 0; i < params.size(); ++i) {
    items.push_back({std::to_string(i), &params[i]->value});
  }
  return serialize_named(items);
}

std::vector<TensorView> view_tensors(std::span<const std::byte> bytes) {
  // Every count is checked against the bytes still unread before it sizes
  // anything, so a corrupt header costs O(input) memory, never more.
  constexpr size_t kMinRecordBytes = 2 * sizeof(uint32_t);  // name_len, ndim
  utils::ByteReader r(bytes);
  const uint32_t count = r.count(kMinRecordBytes);
  std::vector<TensorView> out;
  out.reserve(count);
  for (uint32_t i = 0; i < count; ++i) {
    r.str();  // the name: serialize_tensors' names are positions
    const uint32_t ndim = r.count(sizeof(int64_t));
    TensorView v;
    v.shape.reserve(ndim);
    for (uint32_t d = 0; d < ndim; ++d) v.shape.push_back(r.i64());
    // Checked product: numel * 4 must fit in what is left, so no dim can
    // overflow it or make a caller allocate past the input. The messages
    // name the offending dim, not the shape, which a corrupt ndim can make
    // as long as the input.
    const size_t max_floats = r.remaining() / sizeof(float);
    size_t numel = 1;
    for (uint32_t k = 0; k < ndim; ++k) {
      const int64_t dim = v.shape[k];
      FCA_CHECK_MSG(dim >= 0, "tensor " << i << " has negative dim " << dim);
      const auto d = static_cast<size_t>(dim);
      FCA_CHECK_MSG(d == 0 || numel <= max_floats / d,
                    "tensor " << i << " of rank " << ndim << " overruns the "
                              << r.remaining() << " byte(s) left at dim "
                              << k << " (" << dim << ")");
      numel *= d;
    }
    // A rank-0 shape holds no floats, as shape_numel and the serializer
    // count it; reading it as one float would hand deserialize_tensors a
    // 4-byte copy into an empty tensor.
    v.numel = ndim == 0 ? 0 : static_cast<int64_t>(numel);
    v.data = r.need(static_cast<size_t>(v.numel) * sizeof(float)).data();
    out.push_back(std::move(v));
  }
  r.expect_done();
  return out;
}

std::vector<Tensor> deserialize_tensors(std::span<const std::byte> bytes) {
  const std::vector<TensorView> views = view_tensors(bytes);
  std::vector<Tensor> out;
  out.reserve(views.size());
  for (const TensorView& v : views) {
    Tensor t = Tensor::uninit(v.shape);
    if (v.numel > 0) {
      std::memcpy(t.data(), v.data,
                  static_cast<size_t>(v.numel) * sizeof(float));
    }
    out.push_back(std::move(t));
  }
  return out;
}

void weighted_sum_into(std::span<const std::span<const TensorView>> ups,
                       std::span<const float> weights,
                       std::vector<Tensor>& out) {
  FCA_CHECK(!ups.empty() && ups.size() == weights.size());
  // Every element is written by its block, so the sums need no zero-fill.
  // They go into new tensors, not out's storage: that allocation keeps
  // glibc from trimming the freed uploads off the heap top each round,
  // which cost fedavg-shm ~13 MB of page faults per round (DESIGN.md §15).
  std::vector<Tensor> agg;
  if (out.empty()) {
    for (const TensorView& v : ups[0]) agg.push_back(Tensor::uninit(v.shape));
  } else {
    for (const Tensor& t : out) agg.push_back(Tensor::uninit(t.shape()));
  }
  for (std::span<const TensorView> up : ups) {
    FCA_CHECK_MSG(up.size() == agg.size(), "tensor count mismatch: payload has "
                                               << up.size() << ", aggregate has "
                                               << agg.size());
    for (size_t t = 0; t < agg.size(); ++t) {
      FCA_CHECK_MSG(up[t].shape == agg[t].shape(),
                    "shape mismatch at tensor "
                        << t << ": payload " << shape_to_string(up[t].shape)
                        << ", aggregate " << shape_to_string(agg[t].shape()));
    }
  }

  // Tensor t holds the flattened elements [start[t], start[t + 1]).
  std::vector<int64_t> start(agg.size() + 1, 0);
  for (size_t t = 0; t < agg.size(); ++t) {
    start[t + 1] = start[t] + agg[t].numel();
  }
  const int64_t total = start.back();
  const int64_t blocks = (total + kSumBlockFloats - 1) / kSumBlockFloats;
  // Blocks own disjoint elements and each element's sum runs in payload
  // order, so any split of the blocks over threads gives the same bytes.
  // The sum is axpy_'s per-element arithmetic, reading the floats straight
  // from the payload bytes, in plain code on purpose: a cloned v3/v4 body
  // would contract it into an FMA.
  parallel_for_range(
      0, blocks,
      [&](int64_t b0, int64_t b1) {
        for (int64_t b = b0; b < b1; ++b) {
          const int64_t lo = b * kSumBlockFloats;
          const int64_t hi = std::min(lo + kSumBlockFloats, total);
          for (size_t t = 0; t < agg.size(); ++t) {
            const int64_t a = std::max(lo, start[t]) - start[t];
            const int64_t e = std::min(hi, start[t + 1]) - start[t];
            if (a >= e) continue;
            float* pa = agg[t].data();
            std::fill(pa + a, pa + e, 0.0f);
            for (size_t i = 0; i < ups.size(); ++i) {
              const TensorView& up = ups[i][t];
              const float w = weights[i];
              for (int64_t j = a; j < e; ++j) pa[j] += w * up[j];
            }
          }
        }
      },
      /*grain=*/1);
  out = std::move(agg);
}

std::vector<Tensor> snapshot_values(const std::vector<nn::Param*>& params) {
  std::vector<Tensor> out;
  out.reserve(params.size());
  for (const nn::Param* p : params) out.push_back(p->value.clone());
  return out;
}

void restore_values(const std::vector<Tensor>& snapshot,
                    const std::vector<nn::Param*>& params) {
  FCA_CHECK_MSG(snapshot.size() == params.size(),
                "tensor count mismatch: snapshot has " << snapshot.size()
                                                        << ", target has "
                                                        << params.size());
  // Every shape is checked before the first write, so a rejected snapshot
  // leaves every parameter as it was.
  for (size_t i = 0; i < params.size(); ++i) {
    FCA_CHECK_MSG(snapshot[i].same_shape(params[i]->value),
                  "shape mismatch at tensor "
                      << i << ": snapshot "
                      << shape_to_string(snapshot[i].shape()) << ", parameter "
                      << shape_to_string(params[i]->value.shape()));
  }
  for (size_t i = 0; i < params.size(); ++i) {
    std::copy_n(snapshot[i].data(), snapshot[i].numel(),
                params[i]->value.data());
  }
}

void restore_values(std::span<const std::byte> payload,
                    const std::vector<nn::Param*>& params) {
  const std::vector<TensorView> views = view_tensors(payload);
  FCA_CHECK_MSG(views.size() == params.size(),
                "tensor count mismatch: payload has " << views.size()
                                                       << ", target has "
                                                       << params.size());
  for (size_t i = 0; i < params.size(); ++i) {
    FCA_CHECK_MSG(views[i].shape == params[i]->value.shape(),
                  "shape mismatch at tensor "
                      << i << ": payload " << shape_to_string(views[i].shape)
                      << ", parameter "
                      << shape_to_string(params[i]->value.shape()));
  }
  for (size_t i = 0; i < params.size(); ++i) {
    if (views[i].numel == 0) continue;
    std::memcpy(params[i]->value.data(), views[i].data,
                static_cast<size_t>(views[i].numel) * sizeof(float));
  }
}

}  // namespace fca::models
