// Canonical byte encoding of one client's complete mutable state: model
// weights (including BatchNorm buffers), optimizer scalar state + slot
// tensors, and the client's private RNG stream.
//
// The encoding is shared by the checkpoint subsystem (per-client sections in
// a .fckpt container) and the client store (page files under
// --max-resident-clients), so a paged-out client's page payload is byte
// identical to what a checkpoint would record for it — checkpoints can lift
// page payloads directly and vice versa. Round-tripping through
// encode/decode restores the client bit for bit (tensor bytes are raw
// float memcpys; the RNG is a single counter word).
#pragma once

#include <cstddef>
#include <span>
#include <vector>

#include "fl/client.hpp"

namespace fca::fl {

/// Serializes the client's model, optimizer and RNG state.
std::vector<std::byte> encode_client_state(Client& client);

/// Restores state captured by encode_client_state() into `client`, which
/// must have been built with the same architecture. The whole buffer is
/// parsed and every name, shape, length and optimizer scalar is checked
/// before the first write, so a rejected state throws fca::Error and leaves
/// the client's model, optimizer and RNG as they were.
void decode_client_state(std::span<const std::byte> bytes, Client& client);

}  // namespace fca::fl
