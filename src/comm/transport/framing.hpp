// Wire framing shared by every transport backend.
//
// A message crosses any backend as one frame (format version 2):
//
//   offset  size  field
//        0     4  magic 0x46434154 ("FCAT") — detects stream desync
//        4     4  frame format version (kFrameVersion)
//        8     4  src rank
//       12     4  dst rank
//       16     4  tag (two's complement)
//       20     4  payload length in bytes
//       24     8  simulated transfer seconds (IEEE-754 bit pattern)
//       32     4  CRC32 over header bytes [0, 32) + the payload
//       36     n  payload
//
// All integers are little-endian: encode_header writes the fields in order
// with the shared byte cursor's encoding, and decode_header reads them back
// through that cursor (utils/bytes.hpp), so the format is identical across
// compilers and both ends of a cross-machine tcp link. The in-process
// backend never materializes frames but accounts wire bytes with the same
// frame_size() formula, keeping byte accounting backend-invariant.
//
// Integrity (DESIGN.md §12): the CRC32 (shared slice-by-8 kernel,
// utils/crc32.hpp — same polynomial as the checkpoint container) covers the
// header up to the CRC field plus the whole payload, so a flipped bit, a
// truncated write from a killed peer, or a desynchronized stream is
// *detected and reported* as TransportError{kFrameCorrupt} instead of being
// parsed as garbage. Version 1 frames (no version/CRC fields) are rejected
// the same way; cross-version worlds are refused at handshake time.
#pragma once

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <span>
#include <sstream>
#include <string>
#include <vector>

#include "comm/transport/error.hpp"
#include "utils/bytes.hpp"
#include "utils/crc32.hpp"

namespace fca::comm::framing {

inline constexpr uint32_t kFrameMagic = 0x46434154u;  // "FCAT"
inline constexpr uint32_t kFrameVersion = 2;
inline constexpr size_t kHeaderBytes = 36;
/// Bytes of the header covered by the CRC (everything before the CRC field).
inline constexpr size_t kCrcOffset = 32;

struct FrameHeader {
  int src = 0;
  int dst = 0;
  int tag = 0;
  uint32_t payload_len = 0;
  double transfer_s = 0.0;
  /// CRC32 over header bytes [0, kCrcOffset) + payload, as carried on the
  /// wire. Filled by decode_header; verified against the payload by
  /// verify_frame once the payload bytes are available.
  uint32_t crc = 0;
};

/// Total wire footprint of a message with `payload_len` payload bytes.
inline constexpr uint64_t frame_size(size_t payload_len) {
  return static_cast<uint64_t>(kHeaderBytes) + payload_len;
}

/// Writes the header for `h` into `out`, which must hold kHeaderBytes, and
/// stamps the CRC over its first kCrcOffset bytes + payload.
/// h.payload_len must equal payload.size(). Fields go in in order, with
/// ByteWriter's encoding, and nothing is allocated: the shm fan-out runs
/// this on pool threads.
inline void encode_header(const FrameHeader& h, std::byte* out,
                          std::span<const std::byte> payload) {
  std::byte* p = out;
  const auto put = [&p](auto v) {
    std::memcpy(p, &v, sizeof(v));
    p += sizeof(v);
  };
  put(kFrameMagic);
  put(kFrameVersion);
  put(static_cast<int32_t>(h.src));
  put(static_cast<int32_t>(h.dst));
  put(static_cast<int32_t>(h.tag));
  put(h.payload_len);
  put(h.transfer_s);
  uint32_t c = crc32_init();
  c = crc32_update(c, std::span<const std::byte>(out, kCrcOffset));
  c = crc32_update(c, payload);
  put(crc32_final(c));
}

[[noreturn]] inline void fail_corrupt(const std::string& what) {
  throw TransportError(TransportErrc::kFrameCorrupt, TransportError::kNoPeer,
                       what + " — transport stream desynchronized or frame "
                              "corrupted in flight");
}

/// Decodes kHeaderBytes header bytes; throws TransportError{kFrameCorrupt}
/// on a bad magic or an unknown format version (stream desync, a foreign or
/// cross-version writer, corruption landing in the first 8 bytes).
inline FrameHeader decode_header(const std::byte* p) {
  utils::ByteReader r(std::span<const std::byte>(p, kHeaderBytes));
  const uint32_t magic = r.u32();
  if (magic != kFrameMagic) {
    std::ostringstream os;
    os << "bad frame magic 0x" << std::hex << magic;
    fail_corrupt(os.str());
  }
  const uint32_t version = r.u32();
  if (version != kFrameVersion) {
    std::ostringstream os;
    os << "frame format version " << version << ", expected " << kFrameVersion;
    fail_corrupt(os.str());
  }
  FrameHeader h;
  h.src = r.i32();
  h.dst = r.i32();
  h.tag = r.i32();
  h.payload_len = r.u32();
  h.transfer_s = r.f64();
  h.crc = r.u32();
  return h;
}

/// Verifies the carried CRC against the raw header bytes and the payload;
/// throws TransportError{kFrameCorrupt} on mismatch. `header_raw` is the
/// same kHeaderBytes block decode_header consumed.
inline void verify_frame(const FrameHeader& h, const std::byte* header_raw,
                         std::span<const std::byte> payload) {
  uint32_t c = crc32_init();
  c = crc32_update(c, std::span<const std::byte>(header_raw, kCrcOffset));
  c = crc32_update(c, payload);
  const uint32_t actual = crc32_final(c);
  if (actual != h.crc) {
    std::ostringstream os;
    os << "frame CRC mismatch: carried 0x" << std::hex << h.crc
       << ", computed 0x" << actual << std::dec << " over "
       << payload.size() << " payload byte(s) (" << h.src << " -> " << h.dst
       << " tag " << h.tag << ")";
    fail_corrupt(os.str());
  }
}

/// Appends one complete, CRC-stamped frame for `msg`-shaped fields onto
/// `out` (the shared encode path of the stream backends).
inline void append_frame(std::vector<std::byte>& out, int src, int dst,
                         int tag, double transfer_s,
                         std::span<const std::byte> payload) {
  const size_t at = out.size();
  out.resize(at + kHeaderBytes);
  encode_header({src, dst, tag, static_cast<uint32_t>(payload.size()),
                 transfer_s, 0},
                out.data() + at, payload);
  out.insert(out.end(), payload.begin(), payload.end());
}

}  // namespace fca::comm::framing
