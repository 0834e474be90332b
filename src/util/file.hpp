// Whole-file reading for the journal, manifest, sidecar and repro readers: a
// read-only mapping of the file, with no copy of its bytes on the heap.
#pragma once

#include <cstddef>
#include <optional>
#include <string>
#include <string_view>

namespace fraudsim::util {

// A read-only, private mapping of one regular file, released on destruction.
// An empty file maps to an empty view.
//
// Lifetime: bytes() is valid while the mapping lives. The file must not be
// truncated or rewritten meanwhile: a rewrite shows through the view, and a
// read past a truncated end faults (SIGBUS).
class MappedFile {
 public:
  // Maps the file at `path`; nullopt when it cannot be opened, is not a
  // regular file, or cannot be mapped. Callers map nullopt onto their own
  // error code and message.
  [[nodiscard]] static std::optional<MappedFile> open(const std::string& path);

  MappedFile() = default;
  MappedFile(MappedFile&& other) noexcept;
  MappedFile& operator=(MappedFile&& other) noexcept;
  MappedFile(const MappedFile&) = delete;
  MappedFile& operator=(const MappedFile&) = delete;
  ~MappedFile();

  [[nodiscard]] std::string_view bytes() const { return {data_, size_}; }

  // Drops the resident pages that lie wholly before byte `end`. A later read
  // of them faults them back in from the file, so the view stays valid; a
  // sequential reader calls this behind itself to keep its resident set to a
  // window instead of the whole file.
  void drop_before(std::size_t end) const;

 private:
  MappedFile(const char* data, std::size_t size) : data_(data), size_(size) {}
  const char* data_ = nullptr;
  std::size_t size_ = 0;
};

}  // namespace fraudsim::util
