#ifndef KOKO_STORAGE_SERDE_H_
#define KOKO_STORAGE_SERDE_H_

#include <bit>
#include <cstdint>
#include <cstring>
#include <string>
#include <string_view>

#include "util/mmap_file.h"
#include "util/status.h"

namespace koko {

// Every fixed-width integer below is copied in host byte order; the wire
// frames, document blobs and index files are little-endian by definition.
static_assert(std::endian::native == std::endian::little,
              "serde.h writes and reads little-endian integers");

/// \brief Appends little-endian fixed-width integers and length-prefixed
/// strings to a byte buffer (`std::string` or `std::vector<uint8_t>`).
///
/// The one encoder of the wire frames (net/frame.h), the document blobs and
/// the sharded index manifest; SpanReader reads all three back. Deliberately
/// simple — the paper persists its indices in PostgreSQL; here a flat
/// binary image plays that role.
template <typename Bytes>
class ByteWriter {
 public:
  explicit ByteWriter(Bytes* out) : out_(out) {}

  void WriteU8(uint8_t v) { out_->push_back(static_cast<Char>(v)); }
  void WriteU16(uint16_t v) { WriteBytes(&v, sizeof(v)); }
  void WriteU32(uint32_t v) { WriteBytes(&v, sizeof(v)); }
  void WriteU64(uint64_t v) { WriteBytes(&v, sizeof(v)); }
  void WriteI64(int64_t v) { WriteBytes(&v, sizeof(v)); }

  /// u32 length, then the bytes.
  void WriteString(std::string_view s) {
    WriteU32(static_cast<uint32_t>(s.size()));
    WriteBytes(s.data(), s.size());
  }

  /// Raw bytes, no length prefix.
  void WriteBytes(const void* data, size_t size) {
    if (size == 0) return;
    const size_t at = out_->size();
    out_->resize(at + size);
    std::memcpy(out_->data() + at, data, size);
  }

 private:
  using Char = typename Bytes::value_type;
  static_assert(sizeof(Char) == 1);

  Bytes* out_;
};

/// \brief Bounds-checked reader over a MemorySpan that can hand out *views*
/// instead of copies.
///
/// Reads ByteWriter's format and the index image's: scalar reads and
/// strings copy as usual, but arrays and byte blobs come back as
/// `U32View`/`MemorySpan` aliases into the underlying span (the caller owns
/// the backing memory — typically a MappedFile — and must keep it alive).
/// Every read is bounded by the span, so a corrupt length prefix fails with
/// an error instead of reading past it.
class SpanReader {
 public:
  explicit SpanReader(MemorySpan span, size_t offset = 0)
      : span_(span), pos_(offset > span.size() ? span.size() : offset) {}

  size_t offset() const { return pos_; }
  size_t remaining() const { return span_.size() - pos_; }

  Result<uint8_t> ReadU8() {
    if (remaining() < 1) return Eof();
    return span_.data()[pos_++];
  }

  Result<uint16_t> ReadU16() { return ReadFixed<uint16_t>(); }
  Result<uint32_t> ReadU32() { return ReadFixed<uint32_t>(); }
  Result<uint64_t> ReadU64() { return ReadFixed<uint64_t>(); }

  Result<std::string> ReadString() {
    KOKO_ASSIGN_OR_RETURN(uint32_t len, ReadU32());
    if (len > remaining()) return Eof();
    std::string s(reinterpret_cast<const char*>(span_.data() + pos_), len);
    pos_ += len;
    return s;
  }

  /// u32 count, then `count` host-endian uint32s, returned as a view.
  Result<U32View> ReadU32Array() {
    KOKO_ASSIGN_OR_RETURN(uint32_t count, ReadU32());
    const uint64_t bytes = static_cast<uint64_t>(count) * sizeof(uint32_t);
    if (bytes > remaining()) return Eof();
    U32View view(span_.data() + pos_, count);
    pos_ += static_cast<size_t>(bytes);
    return view;
  }

  /// u32 length, then that many bytes, then zero bytes up to the next
  /// multiple of 4 — the index image's byte blobs, which keep every
  /// following u32 at a 4-byte offset. Returns the bytes as a view; a
  /// nonzero pad byte fails with ParseError.
  Result<MemorySpan> ReadPaddedBytes() {
    KOKO_ASSIGN_OR_RETURN(uint32_t len, ReadU32());
    const uint64_t padded = (static_cast<uint64_t>(len) + 3) / 4 * 4;
    if (padded > remaining()) return Eof();
    const MemorySpan bytes(span_.data() + pos_, len);
    for (uint64_t i = len; i < padded; ++i) {
      if (span_.data()[pos_ + i] != 0) {
        return Status::ParseError("nonzero pad byte after a byte blob");
      }
    }
    pos_ += static_cast<size_t>(padded);
    return bytes;
  }

 private:
  template <typename T>
  Result<T> ReadFixed() {
    if (remaining() < sizeof(T)) return Eof();
    T v;
    std::memcpy(&v, span_.data() + pos_, sizeof(v));
    pos_ += sizeof(v);
    return v;
  }

  Status Eof() const { return Status::ParseError("unexpected end of data"); }

  MemorySpan span_;
  size_t pos_ = 0;
};

}  // namespace koko

#endif  // KOKO_STORAGE_SERDE_H_
