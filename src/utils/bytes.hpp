// The one byte cursor under every format that crosses a process or disk
// boundary: model payloads (models/serialize), checkpoint and page-file
// containers (ckpt/format), wire frames and the scoped envelope, the
// rendezvous handshake, fault configs and the out-of-band control blobs.
//
// Every integer is little-endian, copied with memcpy (no alignment is
// assumed). ByteReader is bounded: every read, length prefix and element
// count is checked against the bytes left before it is used, so a corrupt
// or hostile input throws fca::Error and never reads past its end or sizes
// an allocation larger than itself.
#pragma once

#include <bit>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <span>
#include <string_view>
#include <vector>

namespace fca::utils {

static_assert(std::endian::native == std::endian::little,
              "wire and file formats are little-endian and copied as is");

/// Appends little-endian fields to a byte buffer: its own, or a caller's
/// (so a serializer can append in place after what the buffer holds).
class ByteWriter {
 public:
  ByteWriter() = default;
  /// Appends to `out` after its current contents; `out` must outlive the
  /// writer.
  explicit ByteWriter(std::vector<std::byte>& out) : out_(&out) {}
  ByteWriter(const ByteWriter&) = delete;
  ByteWriter& operator=(const ByteWriter&) = delete;

  void u32(uint32_t v) { scalar(v); }
  void i32(int32_t v) { scalar(v); }
  void u64(uint64_t v) { scalar(v); }
  void i64(int64_t v) { scalar(v); }
  void f64(double v) { scalar(v); }
  /// `b` as is, with no length prefix: bulk data goes in as one copy.
  void raw(std::span<const std::byte> b) {
    out_->insert(out_->end(), b.begin(), b.end());
  }
  /// u32 length + bytes. Throws fca::Error past 4 GiB.
  void bytes(std::span<const std::byte> b);
  /// u32 length + characters.
  void str(std::string_view s) {
    bytes(std::as_bytes(std::span<const char>(s.data(), s.size())));
  }
  /// Room for `n` more bytes, so a writer sized up front allocates once.
  void reserve(size_t n) { out_->reserve(out_->size() + n); }
  /// The buffer written so far, for serializers that append in place.
  std::vector<std::byte>& buffer() { return *out_; }
  /// Hands the buffer over and leaves the writer empty.
  std::vector<std::byte> take() {
    std::vector<std::byte> v = std::move(*out_);
    out_->clear();
    return v;
  }

 private:
  // resize + memcpy rather than insert: GCC 12 reports a false
  // -Wstringop-overflow for an insert into a reserved, still empty vector.
  template <typename T>
  void scalar(T v) {
    const size_t at = out_->size();
    out_->resize(at + sizeof(v));
    std::memcpy(out_->data() + at, &v, sizeof(v));
  }

  std::vector<std::byte> own_;
  std::vector<std::byte>* out_ = &own_;
};

/// Bounded reader over bytes it does not own. Views it returns are valid
/// while those bytes live. Every failure throws fca::Error.
class ByteReader {
 public:
  explicit ByteReader(std::span<const std::byte> bytes) : bytes_(bytes) {}

  /// The next `n` bytes, viewed in place; throws unless n <= remaining().
  std::span<const std::byte> need(uint64_t n) {
    if (n > remaining()) fail_short(n);
    const std::span<const std::byte> v =
        bytes_.subspan(pos_, static_cast<size_t>(n));
    pos_ += static_cast<size_t>(n);
    return v;
  }

  uint32_t u32() { return scalar<uint32_t>(); }
  int32_t i32() { return scalar<int32_t>(); }
  uint64_t u64() { return scalar<uint64_t>(); }
  int64_t i64() { return scalar<int64_t>(); }
  double f64() { return scalar<double>(); }
  /// A u32-length-prefixed byte string, viewed in place.
  std::span<const std::byte> bytes() { return need(u32()); }
  /// A u32-length-prefixed character string, viewed in place.
  std::string_view str() {
    const std::span<const std::byte> b = bytes();
    return {reinterpret_cast<const char*>(b.data()), b.size()};
  }
  /// A u64-length-prefixed byte string, viewed in place (the client state
  /// writes its model and slot blobs as a u64 length, then appends them).
  std::span<const std::byte> blob() { return need(u64()); }
  /// A u32 element count, checked so that that many elements of at least
  /// `min_bytes_each` (> 0) bytes fit in what is left after it. A count
  /// that passes may size an allocation: it is O(input).
  uint32_t count(size_t min_bytes_each) {
    const uint32_t n = u32();
    if (n > remaining() / min_bytes_each) fail_count(n, min_bytes_each);
    return n;
  }

  size_t remaining() const { return bytes_.size() - pos_; }
  bool done() const { return pos_ == bytes_.size(); }
  /// Throws unless every byte was consumed.
  void expect_done() const {
    if (!done()) fail_trailing();
  }

 private:
  template <typename T>
  T scalar() {
    T v{};
    std::memcpy(&v, need(sizeof(T)).data(), sizeof(T));
    return v;
  }
  [[noreturn]] void fail_short(uint64_t n) const;
  [[noreturn]] void fail_count(uint32_t n, size_t min_bytes_each) const;
  [[noreturn]] void fail_trailing() const;

  std::span<const std::byte> bytes_;
  size_t pos_ = 0;
};

}  // namespace fca::utils
