// Typed recoverable transport errors (DESIGN.md §12).
//
// The transport backends distinguish two failure families:
//
//   * Programming errors — rank out of range, recv with no matching send on
//     a reliable in-process fabric, API misuse. These stay FCA_CHECK /
//     fca::Error: they indicate a bug and must abort loudly.
//   * Operational failures — a peer process died, a frame arrived corrupt, a
//     dial was refused, a ring stayed full. These throw TransportError, a
//     typed subclass the policy layer (comm::Network) catches to degrade the
//     run onto the survivor-set machinery instead of dying.
//
// TransportError derives from fca::Error, so legacy catch sites keep
// working; new code switches on code() and peer() to decide whether to
// retry, condemn the peer, or abort.
#pragma once

#include <string>
#include <string_view>

#include "utils/error.hpp"

namespace fca::comm {

enum class TransportErrc {
  /// Dial refused / region never appeared: the peer cannot be reached.
  kPeerUnreachable,
  /// An established stream died (connection reset, peer closed mid-frame,
  /// partial write into a dead socket).
  kPeerReset,
  /// A blocking operation exhausted its io/retry deadline.
  kTimeout,
  /// Frame failed integrity checks: bad magic, wrong protocol version,
  /// CRC mismatch, truncation — the stream is desynchronized.
  kFrameCorrupt,
  /// A shm ring stayed full past the retry budget (consumer wedged or dead).
  kRingStalled,
  /// Rendezvous/region negotiation failed: incompatible protocol version,
  /// world-size or ring-capacity mismatch, malformed greeting, or a shm
  /// region too large to size.
  kHandshakeRejected,
};

std::string_view to_string(TransportErrc code);

class TransportError : public Error {
 public:
  /// `peer` is the fabric rank this failure condemns, or kNoPeer when the
  /// failure is not attributable to one rank (e.g. a rejected handshake).
  static constexpr int kNoPeer = -1;

  TransportError(TransportErrc code, int peer, const std::string& what)
      : Error(std::string("[") + std::string(to_string(code)) + "] " + what),
        code_(code),
        peer_(peer) {}

  /// Re-attributes an existing error to a specific peer rank — catch sites
  /// often know which rank a stream belongs to when the throw site did not.
  TransportError(const TransportError& base, int peer)
      : Error(base.what()), code_(base.code_), peer_(peer) {}

  TransportErrc code() const { return code_; }
  int peer() const { return peer_; }

  /// True when the sane recovery is to drop one peer from the survivor set
  /// and keep the round going. A rejected handshake is setup-time and
  /// fatal: there is no running round to degrade.
  bool peer_scoped() const {
    return code_ != TransportErrc::kHandshakeRejected;
  }

 private:
  TransportErrc code_;
  int peer_;
};

inline std::string_view to_string(TransportErrc code) {
  switch (code) {
    case TransportErrc::kPeerUnreachable:
      return "peer-unreachable";
    case TransportErrc::kPeerReset:
      return "peer-reset";
    case TransportErrc::kTimeout:
      return "timeout";
    case TransportErrc::kFrameCorrupt:
      return "frame-corrupt";
    case TransportErrc::kRingStalled:
      return "ring-stalled";
    case TransportErrc::kHandshakeRejected:
      return "handshake-rejected";
  }
  return "?";
}

}  // namespace fca::comm
