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
// All integers are little-endian (the library already assumes a
// little-endian host for tensor serialization). Versioning rule: any change
// to the section layout or to a section's internal encoding bumps
// kFormatVersion, and readers accept exactly kFormatVersion: an older or
// newer file is rejected outright rather than guessed at. Files are written
// atomically (temp file + rename), so a crash
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

/// CRC32 (IEEE 802.3, reflected, init/final 0xFFFFFFFF) of `data`.
uint32_t crc32(std::span<const std::byte> data);

/// Little-endian scalar/byte-string encoder for section payloads.
class ByteWriter {
 public:
  void u32(uint32_t v);
  void u64(uint64_t v);
  void i64(int64_t v);
  void f64(double v);
  void str(const std::string& s);            // u32 length + bytes
  void blob(std::span<const std::byte> b);   // u64 length + bytes
  /// Reserves room for `n` more bytes: a writer sized up front builds its
  /// payload in one allocation.
  void reserve(size_t n) { out_.reserve(out_.size() + n); }
  /// The payload built so far, for serializers that append in place
  /// (models::append_state) instead of handing over a finished blob.
  std::vector<std::byte>& buffer() { return out_; }
  /// Returns the accumulated bytes and resets the writer.
  std::vector<std::byte> take() {
    std::vector<std::byte> v = std::move(out_);
    out_.clear();
    return v;
  }

 private:
  std::vector<std::byte> out_;
};

/// Strict decoder matching ByteWriter; throws fca::Error on truncation.
class ByteReader {
 public:
  explicit ByteReader(std::span<const std::byte> bytes) : bytes_(bytes) {}
  uint32_t u32();
  uint64_t u64();
  int64_t i64();
  double f64();
  std::string str();
  /// A u64-length-prefixed byte string, viewed in place (valid while the
  /// reader's bytes live).
  std::span<const std::byte> blob();
  bool done() const { return pos_ == bytes_.size(); }
  /// Asserts the payload was consumed exactly.
  void expect_done() const;

 private:
  void read(void* dst, size_t n);
  std::span<const std::byte> bytes_;
  size_t pos_ = 0;
};

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
