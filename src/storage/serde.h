#ifndef KOKO_STORAGE_SERDE_H_
#define KOKO_STORAGE_SERDE_H_

#include <cstdint>
#include <cstring>
#include <istream>
#include <ostream>
#include <streambuf>
#include <string>
#include <vector>

#include "util/mmap_file.h"
#include "util/status.h"

namespace koko {

/// \brief Little-endian binary writer over an std::ostream.
///
/// The persistence format for tables and indices: fixed-width integers,
/// length-prefixed strings. Deliberately simple — the paper persists its
/// indices in PostgreSQL; here a flat binary image plays that role.
class BinaryWriter {
 public:
  explicit BinaryWriter(std::ostream* out) : out_(out) {}

  void WriteU8(uint8_t v) { out_->write(reinterpret_cast<const char*>(&v), 1); }
  void WriteU32(uint32_t v) { WriteRaw(&v, sizeof(v)); }
  void WriteU64(uint64_t v) { WriteRaw(&v, sizeof(v)); }
  void WriteI64(int64_t v) { WriteRaw(&v, sizeof(v)); }
  void WriteDouble(double v) { WriteRaw(&v, sizeof(v)); }

  void WriteString(const std::string& s) {
    WriteU32(static_cast<uint32_t>(s.size()));
    out_->write(s.data(), static_cast<std::streamsize>(s.size()));
  }

  template <typename T>
  void WriteVector(const std::vector<T>& v) {
    static_assert(std::is_trivially_copyable_v<T>);
    WriteU32(static_cast<uint32_t>(v.size()));
    if (!v.empty()) WriteRaw(v.data(), v.size() * sizeof(T));
  }

  /// Raw bytes, no length prefix — for serializing borrowed views (e.g. a
  /// mapped BlockList) whose element storage is not a std::vector.
  void WriteBytes(const void* data, size_t size) {
    if (size > 0) WriteRaw(data, size);
  }

  /// Absolute write position, or -1 when the stream is not seekable. The
  /// index image uses it to pad packed block payloads to a 4-byte file
  /// offset (a loaded image is page- or heap-aligned, so file alignment
  /// is memory alignment); on a non-seekable sink the pad degrades to 0
  /// and the image stays valid, just unaligned.
  int64_t Position() const {
    const std::streampos pos = out_->tellp();
    return pos == std::streampos(-1) ? -1 : static_cast<int64_t>(pos);
  }

  bool ok() const { return out_->good(); }

 private:
  void WriteRaw(const void* data, size_t size) {
    out_->write(reinterpret_cast<const char*>(data),
                static_cast<std::streamsize>(size));
  }
  std::ostream* out_;
};

/// Binary reader matching BinaryWriter's format.
class BinaryReader {
 public:
  explicit BinaryReader(std::istream* in) : in_(in) {}

  Result<uint8_t> ReadU8() {
    uint8_t v = 0;
    return ReadRaw(&v, 1) ? Result<uint8_t>(v) : Fail<uint8_t>();
  }
  Result<uint32_t> ReadU32() {
    uint32_t v = 0;
    return ReadRaw(&v, sizeof(v)) ? Result<uint32_t>(v) : Fail<uint32_t>();
  }
  Result<uint64_t> ReadU64() {
    uint64_t v = 0;
    return ReadRaw(&v, sizeof(v)) ? Result<uint64_t>(v) : Fail<uint64_t>();
  }
  Result<int64_t> ReadI64() {
    int64_t v = 0;
    return ReadRaw(&v, sizeof(v)) ? Result<int64_t>(v) : Fail<int64_t>();
  }
  Result<double> ReadDouble() {
    double v = 0;
    return ReadRaw(&v, sizeof(v)) ? Result<double>(v) : Fail<double>();
  }

  Result<std::string> ReadString() {
    auto len = ReadU32();
    if (!len.ok()) return len.status();
    // A corrupt length prefix must fail cleanly, not allocate gigabytes:
    // never trust a count larger than the bytes left in the stream.
    if (*len > RemainingBytes()) return Fail<std::string>();
    std::string s(*len, '\0');
    if (*len > 0 && !ReadRaw(s.data(), *len)) return Fail<std::string>();
    return s;
  }

  template <typename T>
  Result<std::vector<T>> ReadVector() {
    static_assert(std::is_trivially_copyable_v<T>);
    auto len = ReadU32();
    if (!len.ok()) return len.status();
    if (static_cast<uint64_t>(*len) * sizeof(T) > RemainingBytes()) {
      return Fail<std::vector<T>>();
    }
    std::vector<T> v(*len);
    if (*len > 0 && !ReadRaw(v.data(), v.size() * sizeof(T))) {
      return Fail<std::vector<T>>();
    }
    return v;
  }

 private:
  template <typename T>
  Result<T> Fail() {
    return Status::IoError("unexpected end of stream");
  }

  /// Bytes left between the cursor and end-of-stream; UINT64_MAX when the
  /// stream is not seekable (no bound available). The end offset is cached
  /// — the underlying image does not grow mid-load.
  uint64_t RemainingBytes() {
    const std::streampos cur = in_->tellg();
    if (cur == std::streampos(-1)) return UINT64_MAX;
    if (end_pos_ == std::streampos(-1)) {
      in_->seekg(0, std::ios::end);
      end_pos_ = in_->tellg();
      in_->seekg(cur);
      if (end_pos_ == std::streampos(-1)) return UINT64_MAX;
    }
    if (end_pos_ < cur) return 0;
    return static_cast<uint64_t>(end_pos_ - cur);
  }
  bool ReadRaw(void* data, size_t size) {
    in_->read(reinterpret_cast<char*>(data), static_cast<std::streamsize>(size));
    return in_->good() || (in_->eof() && static_cast<size_t>(in_->gcount()) == size);
  }
  std::istream* in_;
  std::streampos end_pos_ = std::streampos(-1);
};

/// \brief Seekable read-only std::streambuf over a MemorySpan.
///
/// Lets the stream-based deserializers (Catalog::Deserialize and friends)
/// parse a memory-mapped image without an intermediate copy of the stream
/// itself: an `std::istream` constructed over this buffer reads straight
/// from the mapping. Supports seeking so BinaryReader's remaining-bytes bound works.
class SpanStreamBuf : public std::streambuf {
 public:
  explicit SpanStreamBuf(MemorySpan span) {
    char* base = const_cast<char*>(reinterpret_cast<const char*>(span.data()));
    setg(base, base, base + span.size());
  }

 protected:
  pos_type seekoff(off_type off, std::ios_base::seekdir dir,
                   std::ios_base::openmode which) override {
    if (!(which & std::ios_base::in)) return pos_type(off_type(-1));
    off_type base;
    switch (dir) {
      case std::ios_base::beg: base = 0; break;
      case std::ios_base::cur: base = gptr() - eback(); break;
      case std::ios_base::end: base = egptr() - eback(); break;
      default: return pos_type(off_type(-1));
    }
    const off_type target = base + off;
    if (target < 0 || target > egptr() - eback()) return pos_type(off_type(-1));
    setg(eback(), eback() + target, egptr());
    return pos_type(target);
  }

  pos_type seekpos(pos_type pos, std::ios_base::openmode which) override {
    return seekoff(off_type(pos), std::ios_base::beg, which);
  }
};

/// \brief Bounds-checked reader over a MemorySpan that can hand out *views*
/// instead of copies.
///
/// The zero-copy load path's counterpart to BinaryReader: scalar reads and
/// strings copy as usual, but length-prefixed arrays come back as
/// `U32View`/`MemorySpan` aliases into the underlying span (the caller owns
/// the backing memory — typically a MappedFile — and must keep it alive).
/// Every read is bounded by the span, so a corrupt length prefix fails with
/// an error instead of reading past the mapping.
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

  Result<uint32_t> ReadU32() {
    if (remaining() < sizeof(uint32_t)) return Eof();
    uint32_t v;
    std::memcpy(&v, span_.data() + pos_, sizeof(v));
    pos_ += sizeof(v);
    return v;
  }

  Result<uint64_t> ReadU64() {
    if (remaining() < sizeof(uint64_t)) return Eof();
    uint64_t v;
    std::memcpy(&v, span_.data() + pos_, sizeof(v));
    pos_ += sizeof(v);
    return v;
  }

  Result<std::string> ReadString() {
    KOKO_ASSIGN_OR_RETURN(uint32_t len, ReadU32());
    if (len > remaining()) return Eof();
    std::string s(reinterpret_cast<const char*>(span_.data() + pos_), len);
    pos_ += len;
    return s;
  }

  /// u32 count, then `count` host-endian uint32s, returned as a view (the
  /// bytes may be unaligned — U32View loads elements unaligned-safely).
  Result<U32View> ReadU32Array() {
    KOKO_ASSIGN_OR_RETURN(uint32_t count, ReadU32());
    const uint64_t bytes = static_cast<uint64_t>(count) * sizeof(uint32_t);
    if (bytes > remaining()) return Eof();
    U32View view(span_.data() + pos_, count);
    pos_ += static_cast<size_t>(bytes);
    return view;
  }

  /// `count` raw bytes with no length prefix, returned as a view — for
  /// payloads whose length was serialized before an alignment pad.
  Result<MemorySpan> ReadRawSpan(size_t count) {
    if (count > remaining()) return Eof();
    MemorySpan view(span_.data() + pos_, count);
    pos_ += count;
    return view;
  }

 private:
  Status Eof() const {
    return Status::IoError("unexpected end of mapped image");
  }

  MemorySpan span_;
  size_t pos_ = 0;
};

}  // namespace koko

#endif  // KOKO_STORAGE_SERDE_H_
