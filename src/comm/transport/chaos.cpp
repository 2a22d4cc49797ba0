#include "comm/transport/chaos.hpp"

#include <sstream>
#include <utility>

#include "comm/transport/error.hpp"
#include "comm/transport/framing.hpp"
#include "utils/error.hpp"
#include "utils/rng.hpp"

namespace fca::comm {

ChaosTransport::ChaosTransport(std::unique_ptr<Transport> inner,
                               const ChaosConfig& config)
    : Transport(inner->world_size(), inner->self_rank()),
      inner_(std::move(inner)),
      config_(config) {
  config_.validate();
  FCA_CHECK_MSG(config_.kill_peer == ChaosConfig::kNoKill ||
                    (config_.kill_peer >= 0 && config_.kill_peer < world_),
                "chaos kill peer " << config_.kill_peer
                                   << " outside [0, " << world_ << ")");
  name_ = std::string("chaos+") + std::string(inner_->name());
}

void ChaosTransport::check_killed(int rank) {
  if (config_.kill_peer == ChaosConfig::kNoKill ||
      rank != config_.kill_peer || round_ < config_.kill_from_round ||
      kill_bytes_moved_ < config_.kill_after_bytes) {
    return;
  }
  std::ostringstream os;
  os << "chaos killed the link to rank " << config_.kill_peer << " after "
     << kill_bytes_moved_ << " wire byte(s) (round " << round_ << ")";
  if (!kill_reported_) {
    kill_reported_ = true;
    throw TransportError(TransportErrc::kPeerReset, config_.kill_peer,
                         os.str());
  }
  throw TransportError(TransportErrc::kPeerUnreachable, config_.kill_peer,
                       os.str());
}

void ChaosTransport::account_kill_bytes(int src, int dst, size_t payload_len) {
  if (config_.kill_peer == ChaosConfig::kNoKill) return;
  if (src != config_.kill_peer && dst != config_.kill_peer) return;
  kill_bytes_moved_ += framing::frame_size(payload_len);
}

void ChaosTransport::send(const WireView& msg) {
  check_killed(msg.dst);
  check_killed(msg.src);
  account_kill_bytes(msg.src, msg.dst, msg.payload.size());
  inner_->send(msg);
}

WireMessage ChaosTransport::apply_recv_chaos(WireMessage msg) {
  account_kill_bytes(msg.src, msg.dst, msg.payload.size());
  const uint64_t edge = static_cast<uint64_t>(msg.src) *
                            static_cast<uint64_t>(world_) +
                        static_cast<uint64_t>(msg.dst);
  const uint64_t seq = recv_seq_[{msg.src, msg.dst}]++;
  const Rng stream = Rng(config_.seed)
                         .fork("chaos")
                         .fork_indexed("edge/", edge)
                         .fork_indexed("msg/", seq);

  if (config_.truncate_rate > 0.0 &&
      stream.fork("truncate").uniform() < config_.truncate_rate) {
    // The tail of the frame never arrived: the sender died mid-write. The
    // message is consumed (its bytes are gone) and the stream is condemned.
    ++injected_truncate_;
    std::ostringstream os;
    os << "chaos truncated the frame (" << msg.src << " -> " << msg.dst
       << " tag " << msg.tag << ", seq " << seq
       << "): peer died mid-write";
    throw TransportError(TransportErrc::kPeerReset, msg.src, os.str());
  }

  if (config_.corrupt_rate > 0.0 &&
      stream.fork("corrupt").uniform() < config_.corrupt_rate) {
    // Materialize the real wire frame, flip one seeded byte, and run the
    // production decode + verify path — detection must come from the same
    // code a real corrupted stream would hit.
    ++injected_corrupt_;
    Bytes frame;
    framing::append_frame(frame, msg.src, msg.dst, msg.tag, msg.transfer_s,
                          msg.payload);
    Rng flip = stream.fork("flip");
    const size_t offset =
        static_cast<size_t>(flip.uniform_int(frame.size()));
    const uint8_t mask = static_cast<uint8_t>(1 + flip.uniform_int(255));
    frame[offset] ^= static_cast<std::byte>(mask);
    try {
      const framing::FrameHeader h = framing::decode_header(frame.data());
      if (framing::frame_size(h.payload_len) != frame.size()) {
        framing::fail_corrupt("frame length inconsistent with the stream");
      }
      framing::verify_frame(
          h, frame.data(),
          std::span<const std::byte>(frame.data() + framing::kHeaderBytes,
                                     h.payload_len));
    } catch (const TransportError& e) {
      throw TransportError(e, msg.src);
    }
    // The flipped frame still decoded and CRC-verified: silent acceptance.
    // (With a nonzero XOR mask this needs a CRC collision; the chaos test
    // tier asserts it never happens.)
    ++silent_corruptions_;
  }

  if (config_.duplicate_rate > 0.0 &&
      stream.fork("duplicate").uniform() < config_.duplicate_rate) {
    ++injected_duplicate_;
    dups_[{msg.dst, msg.src, msg.tag}].push_back(msg);
    ++dup_count_;
  }

  if (config_.delay_rate > 0.0 &&
      stream.fork("delay").uniform() < config_.delay_rate) {
    ++injected_delay_;
    msg.transfer_s += config_.delay_s;
  }
  return msg;
}

std::optional<WireMessage> ChaosTransport::try_recv(int dst, int src,
                                                    int tag) {
  check_killed(src);
  auto it = dups_.find({dst, src, tag});
  if (it != dups_.end() && !it->second.empty()) {
    WireMessage msg = std::move(it->second.front());
    it->second.pop_front();
    --dup_count_;
    return msg;  // replayed copy: chaos already ran on the original
  }
  std::optional<WireMessage> msg = inner_->try_recv(dst, src, tag);
  if (!msg.has_value()) return std::nullopt;
  return apply_recv_chaos(std::move(*msg));
}

std::optional<WireMessage> ChaosTransport::wait_recv(int dst, int src,
                                                     int tag) {
  check_killed(src);
  auto it = dups_.find({dst, src, tag});
  if (it != dups_.end() && !it->second.empty()) {
    WireMessage msg = std::move(it->second.front());
    it->second.pop_front();
    --dup_count_;
    return msg;
  }
  std::optional<WireMessage> msg = inner_->wait_recv(dst, src, tag);
  if (!msg.has_value()) return std::nullopt;
  return apply_recv_chaos(std::move(*msg));
}

bool ChaosTransport::has_message(int dst, int src, int tag) {
  auto it = dups_.find({dst, src, tag});
  if (it != dups_.end() && !it->second.empty()) return true;
  return inner_->has_message(dst, src, tag);
}

size_t ChaosTransport::pending_messages() const {
  return inner_->pending_messages() + dup_count_;
}

void ChaosTransport::clear_pending() {
  dups_.clear();
  dup_count_ = 0;
  inner_->clear_pending();
}

void ChaosTransport::discard_peer(int rank) {
  for (auto it = dups_.begin(); it != dups_.end();) {
    if (it->first.src == rank || it->first.dst == rank) {
      dup_count_ -= it->second.size();
      it = dups_.erase(it);
    } else {
      ++it;
    }
  }
  inner_->discard_peer(rank);
}

std::string ChaosTransport::describe_pending(int dst, int src) {
  return inner_->describe_pending(dst, src);
}

}  // namespace fca::comm
