#include "utils/bytes.hpp"

#include <limits>
#include <sstream>

#include "utils/error.hpp"

namespace fca::utils {

void ByteWriter::bytes(std::span<const std::byte> b) {
  FCA_CHECK_MSG(b.size() <= std::numeric_limits<uint32_t>::max(),
                b.size() << " bytes overflow a u32 length prefix");
  u32(static_cast<uint32_t>(b.size()));
  raw(b);
}

void ByteReader::fail_short(uint64_t n) const {
  std::ostringstream os;
  os << "truncated input: need " << n << " byte(s) at offset " << pos_
     << ", " << remaining() << " left";
  throw Error(os.str());
}

void ByteReader::fail_count(uint32_t n, size_t min_bytes_each) const {
  std::ostringstream os;
  os << "count " << n << " of " << min_bytes_each
     << "-byte elements cannot fit in the " << remaining()
     << " byte(s) left at offset " << pos_;
  throw Error(os.str());
}

void ByteReader::fail_trailing() const {
  std::ostringstream os;
  os << remaining() << " trailing byte(s) after offset " << pos_;
  throw Error(os.str());
}

}  // namespace fca::utils
