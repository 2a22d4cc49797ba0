// Atomic whole-file writes.
//
// Result files (checkpoints, CSV artifacts, images, model states) must never
// be observable half-written: a bench or experiment killed mid-write would
// otherwise leave a truncated file that a later resume or plot silently
// consumes. The helper writes to a hidden temp file in the same directory
// and renames it over the target — rename(2) within one filesystem is
// atomic, so readers see either the old complete file or the new one.
#pragma once

#include <cstddef>
#include <span>
#include <string>
#include <string_view>

namespace fca {

/// Atomically replaces `path` with `data`. Parent directories must exist.
/// Throws fca::Error on any I/O failure; the temp file is cleaned up.
void atomic_write_file(const std::string& path,
                       std::span<const std::byte> data);

/// Gather overload: writes the concatenation of `chunks` without joining
/// them in memory first.
void atomic_write_file(const std::string& path,
                       std::span<const std::span<const std::byte>> chunks);

/// Text overload.
void atomic_write_file(const std::string& path, std::string_view text);

}  // namespace fca
