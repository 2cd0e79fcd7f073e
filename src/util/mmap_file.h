#ifndef KOKO_UTIL_MMAP_FILE_H_
#define KOKO_UTIL_MMAP_FILE_H_

#include <cstdint>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "util/status.h"

namespace koko {

/// \brief A borrowed, read-only byte range — the currency of the zero-copy
/// load path.
///
/// A span never owns its memory: it points into an owned vector, a
/// `MappedFile`, or any other buffer the caller keeps alive. Slicing is
/// bounds-checked (`Slice` returns an error instead of a span past the
/// end), so structures parsed out of an untrusted index image can never
/// reference bytes outside the mapping.
class MemorySpan {
 public:
  MemorySpan() = default;
  MemorySpan(const uint8_t* data, size_t size) : data_(data), size_(size) {}

  const uint8_t* data() const { return data_; }
  size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }

  /// Bounds-checked sub-range [offset, offset + length).
  Result<MemorySpan> Slice(size_t offset, size_t length) const {
    if (offset > size_ || length > size_ - offset) {
      return Status::OutOfRange("span slice [" + std::to_string(offset) + ", +" +
                                std::to_string(length) + ") exceeds " +
                                std::to_string(size_) + " bytes");
    }
    return MemorySpan(data_ + offset, length);
  }

  /// Copies the viewed bytes out (tests, diagnostics).
  std::vector<uint8_t> ToVector() const {
    return std::vector<uint8_t>(data_, data_ + size_);
  }

 private:
  const uint8_t* data_ = nullptr;
  size_t size_ = 0;
};

/// \brief A borrowed array of uint32 values over possibly-unaligned bytes.
///
/// An index image keeps its u32 arrays at 4-byte offsets, but a span handed
/// in by a caller need not start aligned, and dereferencing a misaligned
/// `uint32_t*` is undefined behaviour; this view loads elements through
/// `memcpy`, which every supported compiler folds into a plain load. Values
/// are host-endian, matching the image writer's raw integer writes.
class U32View {
 public:
  U32View() = default;
  /// View over an owned, aligned vector.
  explicit U32View(const std::vector<uint32_t>& v)
      : data_(reinterpret_cast<const uint8_t*>(v.data())), size_(v.size()) {}
  /// View over `count` uint32s starting at `bytes` (no alignment required).
  U32View(const uint8_t* bytes, size_t count) : data_(bytes), size_(count) {}

  uint32_t operator[](size_t i) const {
    uint32_t v;
    std::memcpy(&v, data_ + i * sizeof(uint32_t), sizeof(uint32_t));
    return v;
  }

  size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }
  /// Underlying bytes (serialization: the view is written back verbatim).
  const uint8_t* raw() const { return data_; }
  size_t raw_size() const { return size_ * sizeof(uint32_t); }

  /// Elements [begin, end) as a view of the same bytes (caller-checked
  /// bounds).
  U32View Slice(size_t begin, size_t end) const {
    return U32View(data_ + begin * sizeof(uint32_t), end - begin);
  }

  std::vector<uint32_t> ToVector() const {
    std::vector<uint32_t> out(size_);
    for (size_t i = 0; i < size_; ++i) out[i] = (*this)[i];
    return out;
  }

 private:
  const uint8_t* data_ = nullptr;
  size_t size_ = 0;
};

/// \brief The read-only bytes of an index image: an RAII memory mapping,
/// or an owned heap buffer behind the same span API.
///
/// Every index (`KokoIndex`, `ShardedKokoIndex`) is a set of views into
/// one of these, which it holds in a `shared_ptr` so the bytes outlive
/// every structure pointing at them (shards of one sharded file share a
/// single instance). A mapping (`Open`) faults pages in lazily and serves
/// them from the page cache, so many worker processes mapping the same
/// image share physical memory; an owned buffer (`Read`, or `FromWords`
/// for an image assembled in memory) costs its size in heap but needs no
/// mmap support.
class MappedFile {
 public:
  /// Maps `path` read-only. Fails with IoError when the file cannot be
  /// opened, stat'ed, or mapped; an empty file maps to an empty span.
  static Result<std::shared_ptr<MappedFile>> Open(const std::string& path);

  /// Reads `path` into an owned heap buffer (4-byte aligned, so 4-byte
  /// file offsets stay 4-byte aligned in memory). Fails with IoError when
  /// the file cannot be opened or read.
  static Result<std::shared_ptr<MappedFile>> Read(const std::string& path);

  /// Takes ownership of an image assembled in memory; its span is the
  /// words' bytes.
  static std::shared_ptr<MappedFile> FromWords(std::vector<uint32_t> words);

  ~MappedFile();
  MappedFile(const MappedFile&) = delete;
  MappedFile& operator=(const MappedFile&) = delete;

  MemorySpan span() const {
    return MemorySpan(static_cast<const uint8_t*>(data_), size_);
  }
  size_t size() const { return size_; }
  const std::string& path() const { return path_; }

  /// True for a memory mapping (`Open`), false for an owned buffer.
  bool mmapped() const { return mmapped_; }

 private:
  MappedFile(std::string path, void* data, size_t size, bool mmapped)
      : path_(std::move(path)), data_(data), size_(size), mmapped_(mmapped) {}
  /// An owned buffer of `size` bytes held in `words`.
  static std::shared_ptr<MappedFile> Own(std::string path,
                                         std::vector<uint32_t> words,
                                         size_t size);

  std::string path_;
  void* data_ = nullptr;  // nullptr iff the span is empty
  size_t size_ = 0;
  bool mmapped_ = false;
  std::vector<uint32_t> owned_;  // the heap buffer; empty for a mapping
};

}  // namespace koko

#endif  // KOKO_UTIL_MMAP_FILE_H_
