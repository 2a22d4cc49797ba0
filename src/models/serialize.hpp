// Parameter (de)serialization.
//
// Produces the byte streams that flow through the comm fabric: FedClassAvg
// ships only classifier parameters, FedAvg/FedProx ship whole models. The
// format is a simple self-describing TLV: per tensor, a name, a shape, and
// raw float32 data. Sizes measured on these buffers feed Table 5.
#pragma once

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <span>
#include <string>
#include <vector>

#include "models/split_model.hpp"

namespace fca::models {

/// Size in bytes of `params`' values in this format, without building the
/// buffer.
size_t serialized_params_size(const std::vector<nn::Param*>& params);

/// Full model state: every parameter plus every buffer (BatchNorm running
/// stats), the equivalent of a PyTorch state_dict file.
std::vector<std::byte> serialize_state(SplitModel& model);
/// Restores serialize_state's bytes into `model`. Every name, shape and
/// length is checked before the first write, so a rejected buffer throws
/// fca::Error and leaves the model as it was.
void deserialize_state(std::span<const std::byte> bytes, SplitModel& model);
/// deserialize_state's checks alone: throws where it would, writes nothing.
void check_state(std::span<const std::byte> bytes, SplitModel& model);
size_t serialized_state_size(SplitModel& model);
/// serialize_state's bytes appended to `out` in place, with no buffer of
/// their own (reserve serialized_state_size first to avoid regrowth).
void append_state(SplitModel& model, std::vector<std::byte>& out);

/// Serializes an anonymous tensor list (used for prototypes, soft
/// predictions and other non-parameter payloads on the wire).
std::vector<std::byte> serialize_tensors(const std::vector<Tensor>& tensors);
/// serialize_tensors' bytes for tensors held by pointer (optimizer slots),
/// read in place and appended to `out`: no clones, no buffer of their own.
void append_tensors(const std::vector<Tensor*>& tensors,
                    std::vector<std::byte>& out);
size_t serialized_tensors_size(const std::vector<Tensor*>& tensors);
/// serialize_tensors of the parameters' values, read in place: the same
/// bytes as serialize_tensors(snapshot_values(params)) without the clones.
std::vector<std::byte> serialize_values(const std::vector<nn::Param*>& params);

/// One tensor of a serialize_tensors buffer, viewed where it lies: its
/// shape and `numel` float32 values starting at `data`. The values may be
/// unaligned, so they are read through operator[]. Valid while the buffer
/// lives.
struct TensorView {
  Shape shape;
  int64_t numel = 0;
  const std::byte* data = nullptr;
  float operator[](int64_t i) const {
    float v = 0.0f;
    std::memcpy(&v, data + static_cast<size_t>(i) * sizeof(float), sizeof(v));
    return v;
  }
};

/// Parses a serialize_tensors buffer without copying a float. The parse is
/// bounded: the tensor count, every ndim and every numel * 4 are checked
/// against the bytes left before they size anything, so a corrupt header
/// throws fca::Error instead of allocating. Trailing bytes are rejected. A
/// rank-0 record holds no floats, as shape_numel counts it.
std::vector<TensorView> view_tensors(std::span<const std::byte> bytes);
/// Inverse of serialize_tensors; shapes are carried in the buffer. Bounded
/// like view_tensors.
std::vector<Tensor> deserialize_tensors(std::span<const std::byte> bytes);

/// Element-block size, in floats, of weighted_sum_into. It is a constant,
/// so the split never depends on the pool's thread count, and an aggregate
/// of one block (a classifier pair) stays on the caller.
inline constexpr int64_t kSumBlockFloats = int64_t{1} << 14;

/// out = sum_i weights[i] * ups[i], tensor by tensor, over already parsed
/// payloads (view_tensors, or a leading slice of one). Each element is
/// seeded with 0.0f and then gets `+= weights[i] * up_i[j]` in ascending i,
/// axpy_'s expression, so the bytes equal zero-filled tensors passed through
/// axpy_ once per payload, in order. `out` keeps its shapes (its values are
/// not read), or takes ups[0]'s shapes when empty; the sums land in new
/// tensors that replace it. Every payload is shape-checked before the first
/// write: one of another tensor count or shape throws fca::Error and leaves
/// `out` as it was. Blocks of kSumBlockFloats elements run on
/// parallel_for_range.
void weighted_sum_into(std::span<const std::span<const TensorView>> ups,
                       std::span<const float> weights,
                       std::vector<Tensor>& out);

/// Snapshots parameter values into plain tensors (deep copies).
std::vector<Tensor> snapshot_values(const std::vector<nn::Param*>& params);
/// Writes snapshot tensors back into parameters. The count and every shape
/// are checked before the first write, so a rejected snapshot throws
/// fca::Error and leaves every parameter as it was.
void restore_values(const std::vector<Tensor>& snapshot,
                    const std::vector<nn::Param*>& params);
/// Writes a serialize_tensors payload straight into the parameters' values:
/// the same result as restore_values(deserialize_tensors(payload), params)
/// with no tensor of its own. The payload is parsed like view_tensors, and
/// its tensor count and every shape are checked before the first write, so
/// a rejected payload throws fca::Error and leaves every parameter as it
/// was.
void restore_values(std::span<const std::byte> payload,
                    const std::vector<nn::Param*>& params);

}  // namespace fca::models
