#include "fl/client_state.hpp"

#include <cstring>

#include "models/serialize.hpp"
#include "utils/bytes.hpp"
#include "utils/error.hpp"

namespace fca::fl {

std::vector<std::byte> encode_client_state(Client& client) {
  models::SplitModel& model = client.model();
  // Optimizer: scalar state (e.g. Adam's step count) + slot tensors.
  const std::vector<int64_t> scalars = client.optimizer().scalar_state();
  const std::vector<Tensor*> slots = client.optimizer().state_tensors();
  const size_t model_bytes = models::serialized_state_size(model);
  const size_t slot_bytes = models::serialized_tensors_size(slots);
  // One exactly sized buffer: the model and the slots serialize straight
  // into it, read in place (no clones, no intermediate blobs).
  utils::ByteWriter w;
  w.reserve(sizeof(uint64_t) + model_bytes + sizeof(uint32_t) +
            scalars.size() * sizeof(int64_t) + sizeof(uint64_t) +
            slot_bytes + sizeof(uint64_t));
  w.u64(model_bytes);
  models::append_state(model, w.buffer());
  w.u32(static_cast<uint32_t>(scalars.size()));
  for (int64_t s : scalars) w.i64(s);
  w.u64(slot_bytes);
  models::append_tensors(slots, w.buffer());
  w.u64(client.rng().state());
  return w.take();
}

void decode_client_state(std::span<const std::byte> bytes, Client& client) {
  // Parsed in place: the model and slot blobs are views into `bytes`. Every
  // field is read and checked before the first write the client can see.
  // state_tensors() below may first write the zeros an Adam reset still
  // owes (nn/optim.hpp); the slots read as those zeros either way, so a
  // rejected decode leaves the client as it was. Only a decode into a
  // client reset since its last step pays that fill, which the memcpy then
  // overwrites.
  utils::ByteReader r(bytes);
  const std::span<const std::byte> model_bytes = r.blob();
  std::vector<int64_t> scalars(r.count(sizeof(int64_t)));
  for (int64_t& v : scalars) v = r.i64();
  const std::vector<models::TensorView> slots = models::view_tensors(r.blob());
  const uint64_t rng_state = r.u64();
  r.expect_done();

  const std::vector<Tensor*> targets = client.optimizer().state_tensors();
  FCA_CHECK_MSG(slots.size() == targets.size(),
                "optimizer slot count mismatch for client " << client.id()
                    << ": serialized state has " << slots.size()
                    << ", live has " << targets.size());
  for (size_t i = 0; i < slots.size(); ++i) {
    FCA_CHECK_MSG(slots[i].shape == targets[i]->shape(),
                  "optimizer slot shape mismatch for client " << client.id());
  }
  models::check_state(model_bytes, client.model());
  // The optimizer checks its scalars before it stores them, so this first
  // write is also the last step that can throw.
  client.optimizer().restore_scalar_state(scalars);
  models::deserialize_state(model_bytes, client.model());
  for (size_t i = 0; i < slots.size(); ++i) {
    if (slots[i].numel > 0) {
      std::memcpy(targets[i]->data(), slots[i].data,
                  static_cast<size_t>(slots[i].numel) * sizeof(float));
    }
  }
  client.rng().restore(rng_state);
}

}  // namespace fca::fl
