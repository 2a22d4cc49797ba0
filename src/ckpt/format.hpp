// Checkpoint container format.
//
// A checkpoint file is a small set of named binary sections under one
// header, each integrity-checked independently:
//
//   offset  size  field
//   0       8     magic "FCACKPT\0"
//   8       4     u32 format version (kFormatVersion)
//   12      4     u32 section count
//   per section:
//           4     u32 name length
//           n     name bytes (ASCII, e.g. "meta", "client/3")
//           8     u64 payload length
//           4     u32 CRC32 (IEEE) of the payload
//           m     payload bytes
//
// All integers are little-endian, written and read through the shared byte
// cursor (utils/bytes.hpp): the section count and every name and payload
// length are checked against the bytes left in the file before they are
// used, so a truncated or corrupt container throws fca::Error instead of
// reading past its end. The CRC32 is the shared one (utils/crc32.hpp).
// Versioning rule: any change to the section layout or to a section's
// internal encoding bumps kFormatVersion, and readers accept exactly
// kFormatVersion: an older or newer file is rejected outright rather than
// guessed at. Files are written atomically (temp file + rename), so a crash
// mid-save can never leave a truncated file under the final name — and if
// anything else corrupts one, the per-section CRC catches it on load.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <string>
#include <vector>

namespace fca::ckpt {

// v2: meta gained the fault-event marker, the network section gained
// FaultStats, and metrics rows gained selected/survivor counts and
// per-round fault events.
// v3: real (non-injected) transport-fault accounting — meta gained the
// real-fault marker, FaultStats gained real_peer_faults, and metrics rows
// gained real_fault_events.
// v4: O(active-cohort) checkpoints — client sections are written only for
// the store's dirty set, a "clients" index section lists which ids are
// present, and lazy-init runs add a "bootstrap" section so re-derived clean
// clients start from the armed payload.
inline constexpr uint32_t kFormatVersion = 4;

/// Accumulates named sections and writes the container atomically.
class SectionWriter {
 public:
  /// Adds a section; names must be unique within one file.
  void add(const std::string& name, std::vector<std::byte> payload);
  /// Writes header + sections, stamped kFormatVersion, and atomically
  /// replaces `path`. Payloads are written where they lie, never joined into
  /// a second file-sized buffer.
  void write(const std::string& path) const;

 private:
  std::vector<std::pair<std::string, std::vector<std::byte>>> sections_;
};

/// Parses and fully validates a checkpoint file: magic, version, structure,
/// and every section's CRC32. Throws fca::Error on any mismatch, so a
/// truncated or bit-flipped file is rejected before any state is touched.
class SectionReader {
 public:
  explicit SectionReader(const std::string& path);

  bool has(const std::string& name) const;
  /// Payload of a section; throws if absent.
  std::span<const std::byte> section(const std::string& name) const;
  size_t file_size() const { return file_.size(); }

 private:
  std::vector<std::byte> file_;
  std::vector<std::pair<std::string, std::span<const std::byte>>> sections_;
};

}  // namespace fca::ckpt
