#include "models/serialize.hpp"

#include <algorithm>
#include <cstring>
#include <fstream>

#include "utils/atomic_io.hpp"
#include "utils/error.hpp"

namespace fca::models {
namespace {

// Buffer format, little-endian:
//   u32 tensor_count
//   per tensor: u32 name_len, name bytes, u32 ndim, i64 dims..., f32 data...

// resize + memcpy rather than insert: GCC 12 reports a false
// -Wstringop-overflow for an insert into a reserved, still empty vector.
template <typename T>
void put(std::vector<std::byte>& out, T v) {
  const size_t at = out.size();
  out.resize(at + sizeof(v));
  std::memcpy(out.data() + at, &v, sizeof(v));
}

void put_u32(std::vector<std::byte>& out, uint32_t v) { put(out, v); }
void put_i64(std::vector<std::byte>& out, int64_t v) { put(out, v); }

class Reader {
 public:
  explicit Reader(std::span<const std::byte> bytes) : bytes_(bytes) {}

  uint32_t u32() {
    uint32_t v;
    read(&v, sizeof(v));
    return v;
  }
  int64_t i64() {
    int64_t v;
    read(&v, sizeof(v));
    return v;
  }
  std::string str(size_t len) {
    FCA_CHECK_MSG(pos_ + len <= bytes_.size(), "truncated buffer");
    std::string s(reinterpret_cast<const char*>(bytes_.data() + pos_), len);
    pos_ += len;
    return s;
  }
  void floats(float* dst, size_t count) { read(dst, count * sizeof(float)); }
  /// Skips `n` bytes and returns where they start.
  const std::byte* skip(size_t n) {
    FCA_CHECK_MSG(n <= remaining(), "truncated buffer");
    const std::byte* p = bytes_.data() + pos_;
    pos_ += n;
    return p;
  }
  size_t remaining() const { return bytes_.size() - pos_; }
  bool done() const { return pos_ == bytes_.size(); }

 private:
  void read(void* dst, size_t n) {
    FCA_CHECK_MSG(pos_ + n <= bytes_.size(), "truncated buffer");
    std::memcpy(dst, bytes_.data() + pos_, n);
    pos_ += n;
  }
  std::span<const std::byte> bytes_;
  size_t pos_ = 0;
};

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
  put_u32(out, static_cast<uint32_t>(items.size()));
  for (const auto& it : items) {
    put_u32(out, static_cast<uint32_t>(it.name.size()));
    const auto* np = reinterpret_cast<const std::byte*>(it.name.data());
    out.insert(out.end(), np, np + it.name.size());
    put_u32(out, static_cast<uint32_t>(it.tensor->ndim()));
    for (int64_t d : it.tensor->shape()) put_i64(out, d);
    const auto* dp = reinterpret_cast<const std::byte*>(it.tensor->data());
    out.insert(out.end(), dp,
               dp + static_cast<size_t>(it.tensor->numel()) * sizeof(float));
  }
}

std::vector<std::byte> serialize_named(const std::vector<NamedTensor>& items) {
  std::vector<std::byte> out;
  out.reserve(serialized_named_size(items));
  append_named(items, out);
  return out;
}

void deserialize_named(std::span<const std::byte> bytes,
                       const std::vector<NamedTensor>& items) {
  Reader r(bytes);
  const uint32_t count = r.u32();
  FCA_CHECK_MSG(count == items.size(), "tensor count mismatch: buffer has "
                                           << count << ", target has "
                                           << items.size());
  for (const auto& it : items) {
    const uint32_t name_len = r.u32();
    const std::string name = r.str(name_len);
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
    r.floats(it.tensor->data(), static_cast<size_t>(it.tensor->numel()));
  }
  FCA_CHECK_MSG(r.done(), "trailing bytes after deserialization");
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

std::vector<std::byte> serialize_params(
    const std::vector<nn::Param*>& params) {
  return serialize_named(param_tensors(params));
}

void deserialize_params(std::span<const std::byte> bytes,
                        const std::vector<nn::Param*>& params) {
  deserialize_named(bytes, param_tensors(params));
}

size_t serialized_params_size(const std::vector<nn::Param*>& params) {
  return serialized_named_size(param_tensors(params));
}

std::vector<std::byte> serialize_state(SplitModel& model) {
  return serialize_named(state_tensors(model));
}

void deserialize_state(std::span<const std::byte> bytes, SplitModel& model) {
  deserialize_named(bytes, state_tensors(model));
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

namespace {
constexpr char kStateMagic[8] = {'F', 'C', 'A', 'S', 'T', 'A', 'T', '1'};
}  // namespace

void save_state_file(SplitModel& model, const std::string& path) {
  const std::vector<std::byte> body = serialize_state(model);
  std::vector<std::byte> file(sizeof(kStateMagic) + sizeof(uint64_t) +
                              body.size());
  std::memcpy(file.data(), kStateMagic, sizeof(kStateMagic));
  const auto size = static_cast<uint64_t>(body.size());
  std::memcpy(file.data() + sizeof(kStateMagic), &size, sizeof(size));
  std::memcpy(file.data() + sizeof(kStateMagic) + sizeof(size), body.data(),
              body.size());
  atomic_write_file(path, std::span<const std::byte>(file));
}

void load_state_file(SplitModel& model, const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  FCA_CHECK_MSG(in.good(), "cannot open " << path);
  char magic[sizeof(kStateMagic)] = {};
  in.read(magic, sizeof(magic));
  FCA_CHECK_MSG(in.good() && std::memcmp(magic, kStateMagic,
                                         sizeof(kStateMagic)) == 0,
                path << " is not an FCA state file");
  uint64_t size = 0;
  in.read(reinterpret_cast<char*>(&size), sizeof(size));
  FCA_CHECK_MSG(in.good(), "truncated state file " << path);
  std::vector<std::byte> body(size);
  in.read(reinterpret_cast<char*>(body.data()),
          static_cast<std::streamsize>(size));
  FCA_CHECK_MSG(in.good(), "truncated state file " << path);
  deserialize_state(body, model);
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
  // Every length field is checked against the bytes still unread before it
  // sizes anything, so a corrupt header costs O(input) memory, never more.
  constexpr size_t kMinRecordBytes = 2 * sizeof(uint32_t);  // name_len, ndim
  Reader r(bytes);
  const uint32_t count = r.u32();
  FCA_CHECK_MSG(count <= r.remaining() / kMinRecordBytes,
                "tensor count " << count << " cannot fit in the "
                                << r.remaining() << " byte(s) left");
  std::vector<TensorView> out;
  out.reserve(count);
  for (uint32_t i = 0; i < count; ++i) {
    const uint32_t name_len = r.u32();
    r.skip(name_len);
    const uint32_t ndim = r.u32();
    FCA_CHECK_MSG(ndim <= r.remaining() / sizeof(int64_t),
                  "tensor " << i << " claims " << ndim
                            << " dims; only " << r.remaining()
                            << " byte(s) left");
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
    v.data = r.skip(static_cast<size_t>(v.numel) * sizeof(float));
    out.push_back(std::move(v));
  }
  FCA_CHECK_MSG(r.done(), "trailing bytes after tensor deserialization");
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

void accumulate_tensors(std::span<const TensorView> up, float weight,
                        std::span<Tensor> agg) {
  FCA_CHECK_MSG(up.size() == agg.size(), "tensor count mismatch: payload has "
                                             << up.size() << ", aggregate has "
                                             << agg.size());
  // Every shape is checked before anything is added, so a rejected payload
  // leaves the aggregate untouched.
  for (size_t t = 0; t < agg.size(); ++t) {
    FCA_CHECK_MSG(up[t].shape == agg[t].shape(),
                  "shape mismatch at tensor " << t << ": payload "
                                              << shape_to_string(up[t].shape)
                                              << ", aggregate "
                                              << shape_to_string(agg[t].shape()));
  }
  for (size_t t = 0; t < agg.size(); ++t) {
    // axpy_'s per-element arithmetic, reading straight from the bytes.
    float* pa = agg[t].data();
    for (int64_t i = 0; i < up[t].numel; ++i) pa[i] += weight * up[t][i];
  }
}

void accumulate_tensors(std::span<const std::byte> payload, float weight,
                        std::vector<Tensor>& agg) {
  accumulate_tensors(view_tensors(payload), weight, agg);
}

void copy_param_values(const std::vector<nn::Param*>& src,
                       const std::vector<nn::Param*>& dst) {
  FCA_CHECK(src.size() == dst.size());
  for (size_t i = 0; i < src.size(); ++i) {
    FCA_CHECK_MSG(src[i]->value.same_shape(dst[i]->value),
                  "param shape mismatch at index " << i);
    std::copy_n(src[i]->value.data(), src[i]->value.numel(),
                dst[i]->value.data());
  }
}

std::vector<Tensor> snapshot_values(const std::vector<nn::Param*>& params) {
  std::vector<Tensor> out;
  out.reserve(params.size());
  for (const nn::Param* p : params) out.push_back(p->value.clone());
  return out;
}

void restore_values(const std::vector<Tensor>& snapshot,
                    const std::vector<nn::Param*>& params) {
  FCA_CHECK(snapshot.size() == params.size());
  for (size_t i = 0; i < params.size(); ++i) {
    FCA_CHECK(snapshot[i].same_shape(params[i]->value));
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
