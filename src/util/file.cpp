#include "util/file.hpp"

#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <utility>

namespace fraudsim::util {

std::optional<MappedFile> MappedFile::open(const std::string& path) {
  const int fd = ::open(path.c_str(), O_RDONLY | O_CLOEXEC);
  if (fd < 0) return std::nullopt;
  struct stat st {};
  std::optional<MappedFile> mapped;
  if (::fstat(fd, &st) == 0 && S_ISREG(st.st_mode)) {
    const auto size = static_cast<std::size_t>(st.st_size);
    if (size == 0) {
      mapped.emplace();
    } else if (void* data = ::mmap(nullptr, size, PROT_READ, MAP_PRIVATE, fd, 0);
               data != MAP_FAILED) {
      mapped.emplace(MappedFile(static_cast<const char*>(data), size));
    }
  }
  ::close(fd);  // the mapping keeps the file referenced
  return mapped;
}

MappedFile::MappedFile(MappedFile&& other) noexcept
    : data_(std::exchange(other.data_, nullptr)), size_(std::exchange(other.size_, 0)) {}

MappedFile& MappedFile::operator=(MappedFile&& other) noexcept {
  if (this != &other) {
    MappedFile released(std::move(*this));
    data_ = std::exchange(other.data_, nullptr);
    size_ = std::exchange(other.size_, 0);
  }
  return *this;
}

MappedFile::~MappedFile() {
  if (data_ != nullptr) ::munmap(const_cast<char*>(data_), size_);
}

void MappedFile::drop_before(std::size_t end) const {
  static const auto page = static_cast<std::size_t>(::sysconf(_SC_PAGESIZE));
  const std::size_t length = std::min(end, size_) / page * page;
  if (length > 0) ::madvise(const_cast<char*>(data_), length, MADV_DONTNEED);
}

}  // namespace fraudsim::util
