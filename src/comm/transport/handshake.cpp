#include "comm/transport/handshake.hpp"

#include <sstream>
#include <string>

#include "comm/transport/error.hpp"
#include "utils/bytes.hpp"
#include "utils/error.hpp"

namespace fca::comm {

namespace {
constexpr uint32_t kHandshakeMagic = 0x46434853u;  // "FCHS"
constexpr uint32_t kHandshakeVersion = 2;

[[noreturn]] void reject(const std::string& why) {
  throw TransportError(TransportErrc::kHandshakeRejected,
                       TransportError::kNoPeer, "handshake rejected: " + why);
}
}  // namespace

Bytes Handshake::serialize() const {
  utils::ByteWriter w;
  w.u32(kHandshakeMagic);
  w.u32(kHandshakeVersion);
  w.u64(seed);
  w.i32(next_round);
  w.bytes(serialize_fault_config(faults));
  w.bytes(serialize_fault_stats(fault_stats));
  w.u32(world_size);
  w.u32(population);
  w.u64(config_digest);
  w.u32(flags);
  return w.take();
}

Handshake Handshake::parse(std::span<const std::byte> blob) {
  // Everything below — framing truncation, magic/version skew, FaultConfig
  // field corruption — must surface as one typed error so callers can tell
  // "the peer speaks a different protocol" from transport-layer faults, and
  // so no malformed blob ever decays into silently-adopted defaults.
  try {
    utils::ByteReader r(blob);
    const uint32_t magic = r.u32();
    if (magic != kHandshakeMagic) {
      std::ostringstream os;
      os << "bad magic 0x" << std::hex << magic;
      reject(os.str());
    }
    const uint32_t version = r.u32();
    if (version != kHandshakeVersion) {
      std::ostringstream os;
      os << "wire version " << version << ", expected " << kHandshakeVersion;
      reject(os.str());
    }
    Handshake hs;
    hs.seed = r.u64();
    hs.next_round = r.i32();
    hs.faults = parse_fault_config(r.bytes());
    hs.fault_stats = parse_fault_stats(r.bytes());
    hs.world_size = r.u32();
    hs.population = r.u32();
    hs.config_digest = r.u64();
    hs.flags = r.u32();
    r.expect_done();
    return hs;
  } catch (const TransportError&) {
    throw;
  } catch (const Error& e) {
    reject(e.what());
  }
}

}  // namespace fca::comm
