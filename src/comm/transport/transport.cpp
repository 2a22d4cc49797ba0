#include "comm/transport/transport.hpp"

#include <bit>
#include <cerrno>
#include <cmath>
#include <cstdlib>
#include <sstream>
#include <utility>

#include "comm/transport/chaos.hpp"
#include "comm/transport/framing.hpp"
#include "comm/transport/inproc.hpp"
#include "comm/transport/shm.hpp"
#include "comm/transport/tcp.hpp"
#include "utils/error.hpp"

namespace fca::comm {

TransportKind parse_transport_kind(std::string_view name) {
  if (name == "inproc") return TransportKind::kInproc;
  if (name == "shm") return TransportKind::kShm;
  if (name == "tcp") return TransportKind::kTcp;
  throw Error("unknown transport '" + std::string(name) +
              "' (want inproc | shm | tcp)");
}

void MailboxSet::push(WireMessage msg) {
  boxes_[Key{msg.src, msg.dst, msg.tag}].push_back(std::move(msg));
  ++count_;
}

std::optional<WireMessage> MailboxSet::pop(int dst, int src, int tag) {
  auto it = boxes_.find(Key{src, dst, tag});
  if (it == boxes_.end() || it->second.empty()) return std::nullopt;
  WireMessage out = std::move(it->second.front());
  it->second.pop_front();
  --count_;
  return out;
}

bool MailboxSet::has(int dst, int src, int tag) const {
  auto it = boxes_.find(Key{src, dst, tag});
  return it != boxes_.end() && !it->second.empty();
}

void MailboxSet::clear() {
  boxes_.clear();
  count_ = 0;
}

size_t MailboxSet::erase_rank(int rank) {
  size_t removed = 0;
  for (auto it = boxes_.begin(); it != boxes_.end();) {
    if (it->first.src == rank || it->first.dst == rank) {
      removed += it->second.size();
      it = boxes_.erase(it);
    } else {
      ++it;
    }
  }
  count_ -= removed;
  return removed;
}

void ChaosConfig::validate() const {
  const auto check_rate = [](double rate, const char* what) {
    FCA_CHECK_MSG(std::isfinite(rate) && rate >= 0.0 && rate <= 1.0,
                  "chaos " << what << " must be in [0, 1], got " << rate);
  };
  check_rate(corrupt_rate, "corrupt rate");
  check_rate(truncate_rate, "truncate rate");
  check_rate(duplicate_rate, "duplicate rate");
  check_rate(delay_rate, "delay rate");
  FCA_CHECK_MSG(std::isfinite(delay_s) && delay_s >= 0.0,
                "chaos delay must be finite and non-negative, got "
                    << delay_s);
  FCA_CHECK_MSG(kill_from_round >= 0,
                "chaos kill_from_round must be non-negative, got "
                    << kill_from_round);
}

std::string MailboxSet::describe(int dst, int src) const {
  for (const auto& [key, box] : boxes_) {
    if (box.empty()) continue;
    if (key.src == src && key.dst == dst) {
      std::ostringstream os;
      os << "; nearest non-empty mailbox for this pair: tag=" << key.tag
         << " (" << box.size() << " message(s))";
      return os.str();
    }
  }
  for (const auto& [key, box] : boxes_) {
    if (box.empty()) continue;
    if (key.src == dst && key.dst == src) {
      std::ostringstream os;
      os << "; reverse direction dst->src has tag=" << key.tag << " ("
         << box.size() << " message(s)) pending — swapped src/dst?";
      return os.str();
    }
  }
  return "";
}

Transport::Transport(int world, int self_rank)
    : world_(world), self_rank_(self_rank) {
  FCA_CHECK_MSG(world >= 1, "transport needs at least one rank");
  FCA_CHECK_MSG(
      self_rank == TransportOptions::kAllRanks ||
          (self_rank >= 0 && self_rank < world),
      "transport self rank " << self_rank << " outside [0, " << world << ")");
}

void Transport::note_sent_frame(size_t payload_len) {
  ++sent_frames_;
  wire_bytes_ += framing::frame_size(payload_len);
}

void Transport::check_rank_pair(int dst, int src) const {
  FCA_CHECK_MSG(src >= 0 && src < world_,
                "rank " << src << " out of range [0, " << world_ << ")");
  FCA_CHECK_MSG(dst >= 0 && dst < world_,
                "rank " << dst << " out of range [0, " << world_ << ")");
}

void Transport::send_many(std::span<const WireView> msgs,
                          std::span<std::exception_ptr> errors) {
  FCA_CHECK(errors.size() == msgs.size());
  for (size_t i = 0; i < msgs.size(); ++i) {
    try {
      send(msgs[i]);
    } catch (const TransportError& e) {
      errors[i] = std::current_exception();
      if (!e.peer_scoped()) return;
    }
  }
}

void Transport::recv_many(int dst, int tag, std::span<RecvSlot> slots) {
  for (RecvSlot& s : slots) {
    try {
      std::optional<WireMessage> msg =
          s.wait ? wait_recv(dst, s.src, tag) : try_recv(dst, s.src, tag);
      s.received = msg.has_value();
      if (s.received) {
        s.payload = std::move(msg->payload);
        s.transfer_s = msg->transfer_s;
      }
    } catch (const TransportError&) {
      s.error = std::current_exception();
    }
  }
}

void Transport::fail_no_message(int dst, int src, int tag) {
  std::ostringstream os;
  os << "recv with no matching send: src=" << src << " dst=" << dst
     << " tag=" << tag << "; " << pending_messages()
     << " message(s) pending fabric-wide" << describe_pending(dst, src);
  if (fallible()) {
    // On a fabric where a remote sender can genuinely die or stall, a
    // drained io timeout is an operational failure attributable to the
    // sender, not a protocol bug — surface it as recoverable.
    throw TransportError(TransportErrc::kTimeout, src, os.str());
  }
  throw Error(os.str());
}

WireMessage Transport::recv(int dst, int src, int tag) {
  std::optional<WireMessage> msg = wait_recv(dst, src, tag);
  if (!msg.has_value()) fail_no_message(dst, src, tag);
  return std::move(*msg);
}

std::unique_ptr<Transport> make_transport(const TransportOptions& options,
                                          int world_size,
                                          Handshake* handshake) {
  options.retry.validate();
  options.chaos.validate();
  std::unique_ptr<Transport> built;
  switch (options.kind) {
    case TransportKind::kInproc:
      FCA_CHECK_MSG(options.self_rank == TransportOptions::kAllRanks,
                    "the inproc transport cannot span processes; use shm or "
                    "tcp for a multi-process world");
      built = std::make_unique<InprocTransport>(world_size);
      break;
    case TransportKind::kShm:
      built = std::make_unique<ShmTransport>(options, world_size, handshake);
      break;
    case TransportKind::kTcp:
      built = std::make_unique<TcpTransport>(options, world_size, handshake);
      break;
  }
  FCA_CHECK_MSG(built != nullptr, "unreachable transport kind");
  if (options.chaos.enabled()) {
    built = std::make_unique<ChaosTransport>(std::move(built), options.chaos);
  }
  return built;
}

/// Strict size_t parse for capacity-style environment values: the whole
/// string must be digits (no sign, no suffix, no trailing junk).
static size_t parse_env_size(const char* value, const char* var) {
  errno = 0;
  char* end = nullptr;
  const unsigned long long parsed = std::strtoull(value, &end, 10);
  FCA_CHECK_MSG(end != value && *end == '\0' && errno == 0 &&
                    *value != '-' && *value != '+',
                var << "='" << value
                    << "' is not a plain decimal byte count");
  return static_cast<size_t>(parsed);
}

TransportOptions transport_options_from_env(TransportOptions base) {
  const char* kind = std::getenv("FCA_TRANSPORT");
  if (kind != nullptr && *kind != '\0') {
    base.kind = parse_transport_kind(kind);
  }
  const char* cap = std::getenv("FCA_SHM_RING_CAPACITY");
  if (cap != nullptr && *cap != '\0') {
    const size_t capacity = parse_env_size(cap, "FCA_SHM_RING_CAPACITY");
    // Reject obviously broken sizes here, at the configuration boundary,
    // with actionable messages; ShmTransport re-validates (same rules) for
    // programmatic callers.
    FCA_CHECK_MSG(capacity != 0,
                  "FCA_SHM_RING_CAPACITY=0 would make every ring zero-sized; "
                  "unset it for auto sizing or pass a power of two >= "
                      << kMinShmRingCapacity);
    FCA_CHECK_MSG(std::has_single_bit(capacity),
                  "FCA_SHM_RING_CAPACITY=" << capacity
                                           << " is not a power of two");
    FCA_CHECK_MSG(capacity >= kMinShmRingCapacity &&
                      capacity <= kMaxShmRingCapacity,
                  "FCA_SHM_RING_CAPACITY=" << capacity << " outside ["
                                           << kMinShmRingCapacity << ", "
                                           << kMaxShmRingCapacity << "]");
    base.shm_ring_capacity = capacity;
  }
  return base;
}

}  // namespace fca::comm
