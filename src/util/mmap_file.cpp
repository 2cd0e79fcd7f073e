#include "util/mmap_file.h"

#include <filesystem>
#include <fstream>

#if defined(_WIN32)
// No mmap on Windows in this tree; Open fails cleanly and callers fall
// back to Read.
#else
#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#endif

namespace koko {

Result<std::shared_ptr<MappedFile>> MappedFile::Open(const std::string& path) {
#if defined(_WIN32)
  return Status::Unimplemented("memory-mapped load unsupported on this platform");
#else
  const int fd = ::open(path.c_str(), O_RDONLY);
  if (fd < 0) {
    return Status::IoError("cannot open " + path + ": " + std::strerror(errno));
  }
  struct stat st;
  if (::fstat(fd, &st) != 0) {
    const std::string err = std::strerror(errno);
    ::close(fd);
    return Status::IoError("cannot stat " + path + ": " + err);
  }
  if (!S_ISREG(st.st_mode)) {
    ::close(fd);
    return Status::IoError("cannot map " + path + ": not a regular file");
  }
  const size_t size = static_cast<size_t>(st.st_size);
  void* data = nullptr;
  if (size > 0) {
    // MAP_PRIVATE read-only: the mapping is immutable from our side and
    // shares page-cache pages with every other reader of the file.
    data = ::mmap(nullptr, size, PROT_READ, MAP_PRIVATE, fd, 0);
    if (data == MAP_FAILED) {
      const std::string err = std::strerror(errno);
      ::close(fd);
      return Status::IoError("cannot mmap " + path + ": " + err);
    }
  }
  // The mapping keeps the underlying pages alive; the descriptor is not
  // needed past mmap.
  ::close(fd);
  return std::shared_ptr<MappedFile>(
      new MappedFile(path, data, size, /*mmapped=*/true));
#endif
}

Result<std::shared_ptr<MappedFile>> MappedFile::Read(const std::string& path) {
  std::error_code ec;
  if (!std::filesystem::is_regular_file(path, ec)) {
    return Status::IoError("cannot read " + path + ": not a regular file");
  }
  const uintmax_t size = std::filesystem::file_size(path, ec);
  if (ec) return Status::IoError("cannot size " + path + ": " + ec.message());
  std::ifstream in(path, std::ios::binary);
  std::vector<uint32_t> words((static_cast<size_t>(size) + 3) / 4);
  if (!in.read(reinterpret_cast<char*>(words.data()),
               static_cast<std::streamsize>(size))) {
    return Status::IoError("cannot read " + path);
  }
  return Own(path, std::move(words), static_cast<size_t>(size));
}

std::shared_ptr<MappedFile> MappedFile::FromWords(std::vector<uint32_t> words) {
  const size_t size = words.size() * sizeof(uint32_t);
  return Own("", std::move(words), size);
}

std::shared_ptr<MappedFile> MappedFile::Own(std::string path,
                                            std::vector<uint32_t> words,
                                            size_t size) {
  auto file = std::shared_ptr<MappedFile>(
      new MappedFile(std::move(path), nullptr, size, /*mmapped=*/false));
  file->owned_ = std::move(words);
  if (size > 0) file->data_ = file->owned_.data();
  return file;
}

MappedFile::~MappedFile() {
#if !defined(_WIN32)
  if (mmapped_ && data_ != nullptr) ::munmap(data_, size_);
#endif
}

}  // namespace koko
