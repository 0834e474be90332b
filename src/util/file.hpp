// Whole-file loading for the journal, manifest, sidecar and repro readers.
#pragma once

#include <optional>
#include <string>

namespace fraudsim::util {

// The bytes of the file at `path`, read with one sized read; nullopt when the
// file cannot be opened or read in full. Callers map nullopt onto their own
// error code and message.
[[nodiscard]] std::optional<std::string> read_file(const std::string& path);

}  // namespace fraudsim::util
