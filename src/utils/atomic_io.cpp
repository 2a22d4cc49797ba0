#include "utils/atomic_io.hpp"

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <system_error>

#include "utils/error.hpp"

namespace fca {
namespace {

/// Temp name beside the target so the final rename stays on one filesystem.
std::string temp_path_for(const std::string& path) {
  const std::filesystem::path p(path);
  std::filesystem::path tmp = p;
  tmp.replace_filename("." + p.filename().string() + ".tmp");
  return tmp.string();
}

}  // namespace

void atomic_write_file(const std::string& path,
                       std::span<const std::byte> data) {
  const std::span<const std::byte> chunks[] = {data};
  atomic_write_file(path, chunks);
}

void atomic_write_file(const std::string& path,
                       std::span<const std::span<const std::byte>> chunks) {
  const std::string tmp = temp_path_for(path);
  {
    std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
    FCA_CHECK_MSG(out.good(), "cannot open " << tmp << " for writing");
    for (const std::span<const std::byte> data : chunks) {
      if (data.empty()) continue;
      out.write(reinterpret_cast<const char*>(data.data()),
                static_cast<std::streamsize>(data.size()));
    }
    out.flush();
    if (!out.good()) {
      out.close();
      std::remove(tmp.c_str());
      FCA_CHECK_MSG(false, "write to " << tmp << " failed");
    }
  }
  std::error_code ec;
  std::filesystem::rename(tmp, path, ec);
  if (ec) {
    std::remove(tmp.c_str());
    FCA_CHECK_MSG(false, "rename " << tmp << " -> " << path << " failed: "
                                   << ec.message());
  }
}

void atomic_write_file(const std::string& path, std::string_view text) {
  atomic_write_file(path,
                    std::span<const std::byte>(
                        reinterpret_cast<const std::byte*>(text.data()),
                        text.size()));
}

}  // namespace fca
