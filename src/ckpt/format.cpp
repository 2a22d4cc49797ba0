#include "ckpt/format.hpp"

#include <cstring>
#include <fstream>

#include "utils/atomic_io.hpp"
#include "utils/crc32.hpp"
#include "utils/error.hpp"

namespace fca::ckpt {
namespace {

constexpr char kMagic[8] = {'F', 'C', 'A', 'C', 'K', 'P', 'T', '\0'};

}  // namespace

uint32_t crc32(std::span<const std::byte> data) {
  // Same polynomial/parameters as always; the shared slice-by-8 kernel in
  // utils/crc32.hpp now serves both checkpoint sections and wire frames.
  return fca::crc32(data);
}

void ByteWriter::u32(uint32_t v) {
  const auto* p = reinterpret_cast<const std::byte*>(&v);
  out_.insert(out_.end(), p, p + sizeof(v));
}
void ByteWriter::u64(uint64_t v) {
  const auto* p = reinterpret_cast<const std::byte*>(&v);
  out_.insert(out_.end(), p, p + sizeof(v));
}
void ByteWriter::i64(int64_t v) {
  const auto* p = reinterpret_cast<const std::byte*>(&v);
  out_.insert(out_.end(), p, p + sizeof(v));
}
void ByteWriter::f64(double v) {
  const auto* p = reinterpret_cast<const std::byte*>(&v);
  out_.insert(out_.end(), p, p + sizeof(v));
}
void ByteWriter::str(const std::string& s) {
  u32(static_cast<uint32_t>(s.size()));
  const auto* p = reinterpret_cast<const std::byte*>(s.data());
  out_.insert(out_.end(), p, p + s.size());
}
void ByteWriter::blob(std::span<const std::byte> b) {
  u64(b.size());
  out_.insert(out_.end(), b.begin(), b.end());
}

void ByteReader::read(void* dst, size_t n) {
  FCA_CHECK_MSG(pos_ + n <= bytes_.size(), "truncated checkpoint payload");
  std::memcpy(dst, bytes_.data() + pos_, n);
  pos_ += n;
}
uint32_t ByteReader::u32() {
  uint32_t v;
  read(&v, sizeof(v));
  return v;
}
uint64_t ByteReader::u64() {
  uint64_t v;
  read(&v, sizeof(v));
  return v;
}
int64_t ByteReader::i64() {
  int64_t v;
  read(&v, sizeof(v));
  return v;
}
double ByteReader::f64() {
  double v;
  read(&v, sizeof(v));
  return v;
}
std::string ByteReader::str() {
  const uint32_t len = u32();
  FCA_CHECK_MSG(pos_ + len <= bytes_.size(), "truncated checkpoint payload");
  std::string s(reinterpret_cast<const char*>(bytes_.data() + pos_), len);
  pos_ += len;
  return s;
}
std::span<const std::byte> ByteReader::blob() {
  const uint64_t len = u64();
  FCA_CHECK_MSG(len <= bytes_.size() - pos_, "truncated checkpoint payload");
  const std::span<const std::byte> b =
      bytes_.subspan(pos_, static_cast<size_t>(len));
  pos_ += static_cast<size_t>(len);
  return b;
}
void ByteReader::expect_done() const {
  FCA_CHECK_MSG(done(), "trailing bytes in checkpoint payload");
}

void SectionWriter::add(const std::string& name,
                        std::vector<std::byte> payload) {
  for (const auto& [n, p] : sections_) {
    FCA_CHECK_MSG(n != name, "duplicate checkpoint section " << name);
  }
  sections_.emplace_back(name, std::move(payload));
}

void SectionWriter::write(const std::string& path) const {
  // Only the header and each section's name/length/CRC prefix are built
  // here; the file is gathered from them and the payloads as they lie.
  ByteWriter w;
  w.u32(kFormatVersion);
  w.u32(static_cast<uint32_t>(sections_.size()));
  std::vector<std::vector<std::byte>> prefixes;
  prefixes.reserve(sections_.size() + 1);
  prefixes.push_back(w.take());
  for (const auto& [name, payload] : sections_) {
    w.str(name);
    w.u64(payload.size());
    w.u32(crc32(payload));
    prefixes.push_back(w.take());
  }
  std::vector<std::span<const std::byte>> chunks;
  chunks.reserve(2 * sections_.size() + 2);
  chunks.emplace_back(reinterpret_cast<const std::byte*>(kMagic),
                      sizeof(kMagic));
  chunks.emplace_back(prefixes[0]);
  for (size_t i = 0; i < sections_.size(); ++i) {
    chunks.emplace_back(prefixes[i + 1]);
    chunks.emplace_back(sections_[i].second);
  }
  atomic_write_file(path, chunks);
}

SectionReader::SectionReader(const std::string& path) {
  std::ifstream in(path, std::ios::binary | std::ios::ate);
  FCA_CHECK_MSG(in.good(), "cannot open checkpoint " << path);
  const std::streamsize size = in.tellg();
  in.seekg(0);
  file_.resize(static_cast<size_t>(size));
  if (size > 0) {
    in.read(reinterpret_cast<char*>(file_.data()), size);
  }
  FCA_CHECK_MSG(in.good(), "cannot read checkpoint " << path);

  FCA_CHECK_MSG(file_.size() >= sizeof(kMagic) &&
                    std::memcmp(file_.data(), kMagic, sizeof(kMagic)) == 0,
                path << " is not an FCA checkpoint file");
  ByteReader r(std::span<const std::byte>(file_).subspan(sizeof(kMagic)));
  const uint32_t version = r.u32();
  FCA_CHECK_MSG(version == kFormatVersion,
                path << " has checkpoint format version " << version
                     << ", this build reads only version " << kFormatVersion);
  const uint32_t count = r.u32();
  size_t offset = sizeof(kMagic) + 2 * sizeof(uint32_t);
  for (uint32_t i = 0; i < count; ++i) {
    ByteReader hr(std::span<const std::byte>(file_).subspan(offset));
    const std::string name = hr.str();
    const uint64_t len = hr.u64();
    const uint32_t expected_crc = hr.u32();
    const size_t header_size =
        sizeof(uint32_t) + name.size() + sizeof(uint64_t) + sizeof(uint32_t);
    const size_t payload_offset = offset + header_size;
    FCA_CHECK_MSG(payload_offset + len <= file_.size(),
                  path << ": section " << name << " truncated");
    const std::span<const std::byte> payload =
        std::span<const std::byte>(file_).subspan(payload_offset,
                                                  static_cast<size_t>(len));
    FCA_CHECK_MSG(crc32(payload) == expected_crc,
                  path << ": CRC mismatch in section " << name);
    sections_.emplace_back(name, payload);
    offset = payload_offset + static_cast<size_t>(len);
  }
  FCA_CHECK_MSG(offset == file_.size(),
                path << ": trailing bytes after last section");
}

bool SectionReader::has(const std::string& name) const {
  for (const auto& [n, p] : sections_) {
    if (n == name) return true;
  }
  return false;
}

std::span<const std::byte> SectionReader::section(
    const std::string& name) const {
  for (const auto& [n, p] : sections_) {
    if (n == name) return p;
  }
  FCA_CHECK_MSG(false, "checkpoint has no section " << name);
  return {};
}

}  // namespace fca::ckpt
