#include "ckpt/format.hpp"

#include <algorithm>
#include <fstream>

#include "utils/atomic_io.hpp"
#include "utils/bytes.hpp"
#include "utils/crc32.hpp"
#include "utils/error.hpp"

namespace fca::ckpt {
namespace {

constexpr char kMagic[8] = {'F', 'C', 'A', 'C', 'K', 'P', 'T', '\0'};

}  // namespace

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
  utils::ByteWriter w;
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

  utils::ByteReader r(file_);
  const std::span<const std::byte> magic =
      r.need(std::min(sizeof(kMagic), file_.size()));
  FCA_CHECK_MSG(std::ranges::equal(magic, std::as_bytes(std::span(kMagic))),
                path << " is not an FCA checkpoint file");
  const uint32_t version = r.u32();
  FCA_CHECK_MSG(version == kFormatVersion,
                path << " has checkpoint format version " << version
                     << ", this build reads only version " << kFormatVersion);
  // A section is at least its name length, payload length and CRC.
  const uint32_t count =
      r.count(sizeof(uint32_t) + sizeof(uint64_t) + sizeof(uint32_t));
  for (uint32_t i = 0; i < count; ++i) {
    std::string name(r.str());
    const uint64_t len = r.u64();
    const uint32_t expected_crc = r.u32();
    const std::span<const std::byte> payload = r.need(len);
    FCA_CHECK_MSG(crc32(payload) == expected_crc,
                  path << ": CRC mismatch in section " << name);
    sections_.emplace_back(std::move(name), payload);
  }
  FCA_CHECK_MSG(r.done(), path << ": trailing bytes after last section");
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
