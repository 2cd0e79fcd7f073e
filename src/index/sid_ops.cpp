#include "index/sid_ops.h"

#include <algorithm>
#include <bit>
#include <cassert>
#include <cstring>
#include <iterator>
#include <limits>
#include <queue>

#include "util/logging.h"

namespace koko {

SidList SidList::FromSorted(std::vector<uint32_t> ids) {
  assert(std::is_sorted(ids.begin(), ids.end()));
  SidList out;
  out.ids_ = std::move(ids);
  out.ids_.erase(std::unique(out.ids_.begin(), out.ids_.end()), out.ids_.end());
  return out;
}

SidList SidList::FromUnsorted(std::vector<uint32_t> ids) {
  std::sort(ids.begin(), ids.end());
  return FromSorted(std::move(ids));
}

bool SidList::Contains(uint32_t sid) const {
  return std::binary_search(ids_.begin(), ids_.end(), sid);
}

namespace {

// index-based lower/upper_bound and galloping advance over any indexable
// u32 sequence — a raw pointer or a (possibly unaligned) U32View. One
// implementation, instantiated for both, so the two access paths cannot
// drift apart.
template <typename Xs>
size_t LowerBoundIdx(const Xs& xs, size_t lo, size_t hi, uint32_t key) {
  while (lo < hi) {
    const size_t mid = lo + (hi - lo) / 2;
    if (xs[mid] < key) {
      lo = mid + 1;
    } else {
      hi = mid;
    }
  }
  return lo;
}

template <typename Xs>
size_t UpperBoundIdx(const Xs& xs, size_t lo, size_t hi, uint32_t key) {
  while (lo < hi) {
    const size_t mid = lo + (hi - lo) / 2;
    if (xs[mid] <= key) {
      lo = mid + 1;
    } else {
      hi = mid;
    }
  }
  return lo;
}

template <typename Xs>
size_t GallopToImpl(const Xs& xs, size_t n, size_t lo, uint32_t key) {
  if (lo >= n || xs[lo] >= key) return lo;
  // Exponential probe: bracket the first element >= key in
  // (lo + step/2, lo + step], then binary search in (prev, cur].
  size_t step = 1;
  size_t prev = lo;
  size_t cur = lo + 1;
  while (cur < n && xs[cur] < key) {
    prev = cur;
    step <<= 1;
    cur = lo + step;
  }
  if (cur > n) cur = n;
  return LowerBoundIdx(xs, prev + 1, cur, key);
}

}  // namespace

size_t GallopTo(const uint32_t* xs, size_t n, size_t lo, uint32_t key) {
  return GallopToImpl(xs, n, lo, key);
}

size_t GallopTo(const U32View& xs, size_t lo, uint32_t key) {
  return GallopToImpl(xs, xs.size(), lo, key);
}

namespace {

// Appends the intersection of two sorted, duplicate-free runs to *out by
// linear merge.
void IntersectRuns(const uint32_t* xs, size_t nx, const uint32_t* ys,
                   size_t ny, std::vector<uint32_t>* out) {
  const size_t old = out->size();
  out->resize(old + std::min(nx, ny));
  uint32_t* dst = out->data() + old;
  size_t i = 0, j = 0, k = 0;
  while (i < nx && j < ny) {
    const uint32_t x = xs[i], y = ys[j];
    if (x < y) {
      ++i;
    } else if (y < x) {
      ++j;
    } else {
      dst[k++] = x;
      ++i;
      ++j;
    }
  }
  out->resize(old + k);
}

// Merge intersection for comparable sizes.
void IntersectMerge(const SidList& a, const SidList& b,
                    std::vector<uint32_t>* out) {
  IntersectRuns(a.data(), a.size(), b.data(), b.size(), out);
}

// Galloping intersection: walk the small list, gallop in the large one.
void IntersectGallop(const SidList& small, const SidList& large,
                     std::vector<uint32_t>* out) {
  size_t j = 0;
  const uint32_t* xs = large.data();
  const size_t n = large.size();
  for (size_t i = 0; i < small.size(); ++i) {
    uint32_t key = small[i];
    j = GallopTo(xs, n, j, key);
    if (j == n) return;
    if (xs[j] == key) {
      out->push_back(key);
      ++j;
    }
  }
}

}  // namespace

SidList Intersect(const SidList& a, const SidList& b) {
  const SidList& small = a.size() <= b.size() ? a : b;
  const SidList& large = a.size() <= b.size() ? b : a;
  std::vector<uint32_t> out;
  if (small.empty()) return SidList();
  out.reserve(small.size());
  if (large.size() / small.size() >= kGallopSkewRatio) {
    IntersectGallop(small, large, &out);
  } else {
    IntersectMerge(small, large, &out);
  }
  return SidList::FromSorted(std::move(out));
}

// ---- BlockList --------------------------------------------------------------

namespace {

// Extracts gap `i` from a `width`-bit packed little-endian bitstream. The
// stream is padded to a multiple of 4 bytes (the BlockList contract), and
// the second word is read only when the field straddles a word boundary,
// so both loads stay inside the block's payload.
uint32_t ExtractPackedGap(const uint8_t* p, uint32_t width, size_t i) {
  const size_t bit = i * width;
  const size_t word = bit >> 5;
  const unsigned shift = static_cast<unsigned>(bit & 31);
  uint32_t lo;
  std::memcpy(&lo, p + 4 * word, 4);
  uint64_t v = lo;
  if (shift + width > 32) {
    uint32_t hi;
    std::memcpy(&hi, p + 4 * word + 4, 4);
    v |= static_cast<uint64_t>(hi) << 32;
  }
  const uint64_t mask = width == 32 ? 0xffffffffull : ((1ull << width) - 1);
  return static_cast<uint32_t>((v >> shift) & mask);
}

}  // namespace

void BlockListBuilder::Append(uint32_t sid) {
  if (size_ > 0) {
    assert(sid >= tail_);
    if (sid == tail_) return;
  }
  open_.push_back(sid);
  tail_ = sid;
  ++size_;
  if (open_.size() == BlockList::kBlockSids) PackOpenBlock();
}

// Packs the open block: its first sid goes to the skip table, its gaps at
// the block's minimal bit width LSB-first into a little-endian bitstream,
// zero-padded to the 4-byte block boundary (word-granular decode loads
// never cross it).
void BlockListBuilder::PackOpenBlock() {
  if (open_.empty()) return;
  const size_t n = open_.size();
  parts_.first.push_back(open_[0]);
  parts_.offset.push_back(static_cast<uint32_t>(parts_.bytes.size()));
  uint32_t max_gap = 0;
  for (size_t i = 1; i < n; ++i) {
    max_gap = std::max(max_gap, open_[i] - open_[i - 1]);
  }
  const uint32_t width = static_cast<uint32_t>(std::bit_width(max_gap));
  parts_.width.push_back(width);
  uint64_t acc = 0;
  unsigned acc_bits = 0;
  for (size_t i = 1; i < n; ++i) {
    acc |= static_cast<uint64_t>(open_[i] - open_[i - 1]) << acc_bits;
    acc_bits += width;
    while (acc_bits >= 8) {
      parts_.bytes.push_back(static_cast<uint8_t>(acc));
      acc >>= 8;
      acc_bits -= 8;
    }
  }
  if (acc_bits > 0) parts_.bytes.push_back(static_cast<uint8_t>(acc));
  while (parts_.bytes.size() % 4 != 0) parts_.bytes.push_back(0);
  open_.clear();
}

BlockList BlockListBuilder::Finish() {
  BlockList out;
  if (size_ > 0) {
    PackOpenBlock();
    parts_.first.shrink_to_fit();
    parts_.offset.shrink_to_fit();
    parts_.width.shrink_to_fit();
    parts_.bytes.shrink_to_fit();
    auto storage =
        std::make_shared<const BlockList::Storage>(std::move(parts_));
    out.size_ = size_;
    out.last_ = tail_;
    out.first_ = U32View(storage->first);
    out.offset_ = U32View(storage->offset);
    out.width_ = U32View(storage->width);
    out.bytes_ = MemorySpan(storage->bytes.data(), storage->bytes.size());
    out.storage_ = std::move(storage);
  }
  *this = BlockListBuilder();
  return out;
}

BlockList BlockList::FromSidList(const SidList& list) {
  BlockListBuilder builder;
  for (uint32_t sid : list) builder.Append(sid);
  return builder.Finish();
}

size_t BlockList::MemoryUsage() const {
  if (storage_ == nullptr) return 0;
  return storage_->bytes.capacity() +
         (storage_->first.capacity() + storage_->offset.capacity() +
          storage_->width.capacity()) *
             sizeof(uint32_t);
}

size_t BlockList::DecodeBlock(size_t b, uint32_t* out) const {
  const size_t count = BlockSize(b);
  // Belt and braces over the construction-time validation: a block can
  // never claim more sids than `out`'s kBlockSids capacity.
  KOKO_CHECK(count >= 1 && count <= kBlockSids);
  const uint8_t* p = bytes_.data() + offset_[b];
  const uint32_t width = width_[b];
  uint32_t sid = first_[b];
  out[0] = sid;
  for (size_t i = 1; i < count; ++i) {
    sid += ExtractPackedGap(p, width, i - 1);
    out[i] = sid;
  }
  return count;
}

SidList BlockList::Decode() const {
  std::vector<uint32_t> ids;
  ids.reserve(size_);
  uint32_t buf[kBlockSids];
  for (size_t b = 0; b < NumBlocks(); ++b) {
    const size_t n = DecodeBlock(b, buf);
    ids.insert(ids.end(), buf, buf + n);
  }
  return SidList::FromSorted(std::move(ids));
}

bool BlockList::Contains(uint32_t sid) const {
  if (empty()) return false;
  // The candidate block is the one before the first whose first sid
  // exceeds `sid`.
  const size_t at = UpperBoundIdx(first_, 0, first_.size(), sid);
  if (at == 0) return false;
  uint32_t buf[kBlockSids];
  const size_t n = DecodeBlock(at - 1, buf);
  return std::binary_search(buf, buf + n, sid);
}

namespace {

// The structural validation walk behind FromMappedPacked: every invariant
// a corrupt image could violate is checked here, before any byte is
// trusted at query time. The encoding is canonical — minimal per-block
// width, zero slack bits, zero pad bytes — so any corruption of a
// structurally plausible image is detectable, and reads during validation
// stay inside the payload because sizes are checked before any gap is
// extracted. On success `*last_out` holds the final sid of the list.
Status ValidatePackedParts(uint32_t count, const U32View& skip_first,
                           const U32View& skip_offset,
                           const U32View& skip_width, const uint8_t* bytes,
                           size_t num_bytes, uint32_t* last_out) {
  const size_t nb = skip_first.size();
  if (skip_offset.size() != nb || skip_width.size() != nb) {
    return Status::ParseError("packed block list: skip table arrays disagree");
  }
  const size_t expected_blocks =
      (static_cast<size_t>(count) + BlockList::kBlockSids - 1) /
      BlockList::kBlockSids;
  if (nb != expected_blocks) {
    return Status::ParseError(
        "packed block list: wrong block count for sid count");
  }
  *last_out = 0;
  if (count == 0) {
    if (num_bytes != 0) {
      return Status::ParseError(
          "packed block list: empty list with payload bytes");
    }
    return Status::OK();
  }
  if (skip_offset[0] != 0) {
    return Status::ParseError("packed block list: first block offset not zero");
  }
  uint32_t prev_last = 0;
  for (size_t b = 0; b < nb; ++b) {
    if (b > 0 && skip_first[b] <= prev_last) {
      return Status::ParseError(
          "packed block list: non-monotone sids across blocks");
    }
    const size_t in_block = b + 1 < nb ? BlockList::kBlockSids
                                       : static_cast<size_t>(count) -
                                             b * BlockList::kBlockSids;
    // Redundant with the block-count equation above, but stated
    // explicitly: a block claiming more sids than kBlockSids would
    // overflow DecodeBlock's stack buffer.
    if (in_block == 0 || in_block > BlockList::kBlockSids) {
      return Status::ParseError(
          "packed block list: block sid count out of range");
    }
    const size_t begin = skip_offset[b];
    const size_t end = b + 1 < nb ? skip_offset[b + 1] : num_bytes;
    if (begin > end || end > num_bytes) {
      return Status::ParseError("packed block list: skip offsets out of bounds");
    }
    if (begin % 4 != 0) {
      return Status::ParseError(
          "packed block list: block payload offset not 4-byte aligned");
    }
    const uint32_t width = skip_width[b];
    if (width > 32) {
      return Status::ParseError("packed block list: gap width exceeds 32 bits");
    }
    const size_t gaps = in_block - 1;
    if ((gaps == 0) != (width == 0)) {
      return Status::ParseError(
          "packed block list: gap width and sid count disagree");
    }
    // Exact payload size: ceil(gaps * width / 8) rounded up to the 4-byte
    // block padding. Checked before any gap is extracted, which keeps the
    // word-granular ExtractPackedGap loads in bounds.
    const uint64_t bits = static_cast<uint64_t>(gaps) * width;
    const size_t expected_bytes =
        static_cast<size_t>(((bits + 7) / 8 + 3) & ~uint64_t{3});
    if (end - begin != expected_bytes) {
      return Status::ParseError("packed block list: wrong block payload size");
    }
    const uint8_t* p = bytes + begin;
    uint64_t sid = skip_first[b];
    uint32_t max_gap = 0;
    for (size_t i = 0; i < gaps; ++i) {
      const uint32_t gap = ExtractPackedGap(p, width, i);
      if (gap == 0) {
        return Status::ParseError(
            "packed block list: zero gap (non-monotone ids)");
      }
      max_gap = std::max(max_gap, gap);
      sid += gap;
      if (sid > std::numeric_limits<uint32_t>::max()) {
        return Status::ParseError("packed block list: sid overflows uint32");
      }
    }
    if (gaps > 0 && (max_gap >> (width - 1)) == 0) {
      return Status::ParseError(
          "packed block list: gap width not minimal for block");
    }
    // The canonical form zero-fills everything past the last gap: the
    // slack bits of the final partial byte and the alignment pad bytes.
    size_t byte_at = static_cast<size_t>(bits / 8);
    const unsigned rem_bits = static_cast<unsigned>(bits % 8);
    if (rem_bits != 0) {
      if ((p[byte_at] >> rem_bits) != 0) {
        return Status::ParseError("packed block list: nonzero slack bits");
      }
      ++byte_at;
    }
    for (; byte_at < expected_bytes; ++byte_at) {
      if (p[byte_at] != 0) {
        return Status::ParseError("packed block list: nonzero pad bytes");
      }
    }
    prev_last = static_cast<uint32_t>(sid);
  }
  *last_out = prev_last;
  return Status::OK();
}

}  // namespace

Result<BlockList> BlockList::FromMappedPacked(uint32_t count,
                                              U32View skip_first,
                                              U32View skip_offset,
                                              U32View skip_width,
                                              MemorySpan bytes) {
  uint32_t last = 0;
  KOKO_RETURN_IF_ERROR(ValidatePackedParts(count, skip_first, skip_offset,
                                           skip_width, bytes.data(),
                                           bytes.size(), &last));
  BlockList out;
  out.size_ = count;
  out.last_ = last;
  out.first_ = skip_first;
  out.offset_ = skip_offset;
  out.width_ = skip_width;
  out.bytes_ = bytes;
  return out;
}

bool operator==(const BlockList& a, const BlockList& b) {
  auto same = [](const uint8_t* x, const uint8_t* y, size_t n) {
    return n == 0 || std::memcmp(x, y, n) == 0;
  };
  auto same_u32 = [&](const U32View& x, const U32View& y) {
    return x.size() == y.size() && same(x.raw(), y.raw(), x.raw_size());
  };
  return a.size_ == b.size_ && same_u32(a.first_, b.first_) &&
         same_u32(a.offset_, b.offset_) && same_u32(a.width_, b.width_) &&
         a.bytes_.size() == b.bytes_.size() &&
         same(a.bytes_.data(), b.bytes_.data(), a.bytes_.size());
}

// ---- In-place compressed intersection ---------------------------------------

namespace {

// Monotone cursor over a BlockList, fed ascending keys: gallops the skip
// table to the candidate block, decodes at most that one block into a stack
// buffer, then gallops within it. Each block is decoded at most once per
// pass, and blocks the keys skip over are never decoded at all.
class BlockCursor {
 public:
  explicit BlockCursor(const BlockList& list) : list_(list) {}

  /// True iff `key` is in the list. Keys must be *strictly* increasing
  /// across calls: a match advances the cursor past the matched sid, so
  /// repeating a key would miss it.
  bool AdvanceTo(uint32_t key) {
    const U32View firsts = list_.skip_first();
    const size_t nb = firsts.size();
    if (nb == 0 || key < firsts[0]) return false;
    // Candidate block: the last one whose first sid is <= key, i.e. just
    // before the first block whose first sid exceeds key.
    size_t candidate;
    if (key == std::numeric_limits<uint32_t>::max()) {
      candidate = nb - 1;
    } else {
      candidate = GallopTo(firsts, block_, key + 1) - 1;
    }
    if (candidate != block_ || !decoded_) {
      block_ = candidate;
      count_ = list_.DecodeBlock(block_, buf_);
      pos_ = 0;
      decoded_ = true;
    }
    pos_ = GallopTo(buf_, count_, pos_, key);
    if (pos_ < count_ && buf_[pos_] == key) {
      ++pos_;
      return true;
    }
    return false;
  }

  /// True once the cursor has moved past the final sid: every later key
  /// misses, so drivers may stop early.
  bool AtEnd() const {
    return decoded_ && block_ + 1 == list_.NumBlocks() && pos_ >= count_;
  }

 private:
  const BlockList& list_;
  size_t block_ = 0;
  bool decoded_ = false;
  uint32_t buf_[BlockList::kBlockSids];
  size_t count_ = 0;
  size_t pos_ = 0;
};

// Merge between a decoded list and a block list of comparable size: decode
// only the blocks overlapping the decoded side's sid span, then
// merge-intersect the two runs.
void IntersectMergeBlocks(const SidList& a, const BlockList& b,
                          std::vector<uint32_t>* out) {
  const uint32_t* xs = a.data();
  const size_t na = a.size();
  // At comparable sizes nearly every block overlaps the decoded side's
  // span, so the per-block pairing (skip test, decode, gallop for the
  // fragment bound) costs more than the decodes it avoids: clamp to the
  // block window overlapping [xs[0], xs[na-1]] via the skip table,
  // bulk-decode it, and run a single merge intersection.
  const U32View firsts = b.skip_first();
  const size_t nb = b.NumBlocks();
  const uint32_t lo = xs[0], hi = xs[na - 1];
  size_t b0 = 0;
  while (b0 + 1 < nb && firsts[b0 + 1] <= lo) ++b0;
  size_t b1 = b0;
  while (b1 < nb && firsts[b1] <= hi) ++b1;
  std::vector<uint32_t> decoded((b1 - b0) * BlockList::kBlockSids);
  size_t at = 0;
  for (size_t blk = b0; blk < b1; ++blk) {
    at += b.DecodeBlock(blk, decoded.data() + at);
  }
  IntersectRuns(xs, na, decoded.data(), at, out);
}

}  // namespace

SidList Intersect(const SidList& a, const BlockList& b) {
  if (a.empty() || b.empty()) return SidList();
  const size_t small = std::min(a.size(), b.size());
  const size_t large = std::max(a.size(), b.size());
  std::vector<uint32_t> out;
  out.reserve(small);
  if (large / small < kGallopSkewRatio) {
    // Comparable sizes: blockwise linear merge (same adaptive policy as
    // the decoded Intersect).
    IntersectMergeBlocks(a, b, &out);
  } else if (a.size() <= b.size()) {
    // Walk the decoded side, gallop blockwise in the compressed one.
    BlockCursor cursor(b);
    for (uint32_t key : a) {
      if (cursor.AdvanceTo(key)) out.push_back(key);
      if (cursor.AtEnd()) break;
    }
  } else {
    // The compressed side is smaller: decode it block by block and gallop
    // each decoded run through the larger decoded list.
    uint32_t buf[BlockList::kBlockSids];
    const uint32_t* xs = a.data();
    const size_t n = a.size();
    size_t j = 0;
    for (size_t blk = 0; blk < b.NumBlocks() && j < n; ++blk) {
      const size_t count = b.DecodeBlock(blk, buf);
      for (size_t i = 0; i < count; ++i) {
        j = GallopTo(xs, n, j, buf[i]);
        if (j == n) break;
        if (xs[j] == buf[i]) {
          out.push_back(buf[i]);
          ++j;
        }
      }
    }
  }
  return SidList::FromSorted(std::move(out));
}

SidList Intersect(const BlockList& a, const SidList& b) { return Intersect(b, a); }

SidList Intersect(const BlockList& a, const BlockList& b) {
  if (a.empty() || b.empty()) return SidList();
  const BlockList& small = a.size() <= b.size() ? a : b;
  const BlockList& large = a.size() <= b.size() ? b : a;
  std::vector<uint32_t> out;
  out.reserve(small.size());
  uint32_t buf[BlockList::kBlockSids];
  if (large.size() / small.size() < kGallopSkewRatio) {
    // Comparable sizes: nearly every block of each side overlaps the
    // other's span, so per-block pairing (skip to the candidate block,
    // decode, intersect the fragment) costs more in bookkeeping than the
    // decodes it avoids. Clamp each side to the other's sid span via the
    // skip table, bulk-decode the two block windows, and run a single
    // merge intersection over the decoded runs.
    const uint32_t lo =
        std::max(small.skip_first()[0], large.skip_first()[0]);
    const uint32_t hi = std::min(small.last_sid(), large.last_sid());
    if (lo > hi) return SidList();
    auto decode_window = [](const BlockList& list, uint32_t win_lo,
                            uint32_t win_hi, std::vector<uint32_t>* dst) {
      const U32View firsts = list.skip_first();
      const size_t nb = list.NumBlocks();
      size_t b0 = 0;
      while (b0 + 1 < nb && firsts[b0 + 1] <= win_lo) ++b0;
      size_t b1 = b0;
      while (b1 < nb && firsts[b1] <= win_hi) ++b1;
      dst->resize((b1 - b0) * BlockList::kBlockSids);
      size_t at = 0;
      for (size_t blk = b0; blk < b1; ++blk) {
        at += list.DecodeBlock(blk, dst->data() + at);
      }
      dst->resize(at);
    };
    std::vector<uint32_t> sdec, ldec;
    decode_window(small, lo, hi, &sdec);
    decode_window(large, lo, hi, &ldec);
    IntersectRuns(sdec.data(), sdec.size(), ldec.data(), ldec.size(), &out);
  } else {
    BlockCursor cursor(large);
    for (size_t blk = 0; blk < small.NumBlocks() && !cursor.AtEnd(); ++blk) {
      const size_t count = small.DecodeBlock(blk, buf);
      for (size_t i = 0; i < count; ++i) {
        if (cursor.AdvanceTo(buf[i])) out.push_back(buf[i]);
        if (cursor.AtEnd()) break;
      }
    }
  }
  return SidList::FromSorted(std::move(out));
}

SidList Intersect(SidSetView a, SidSetView b) {
  if (a.list() != nullptr) {
    return b.list() != nullptr ? Intersect(*a.list(), *b.list())
                               : Intersect(*a.list(), *b.blocks());
  }
  return b.list() != nullptr ? Intersect(*b.list(), *a.blocks())
                             : Intersect(*a.blocks(), *b.blocks());
}

SidList IntersectAllViews(std::vector<SidSetView> views) {
  if (views.empty()) return SidList();
  std::sort(views.begin(), views.end(),
            [](const SidSetView& x, const SidSetView& y) {
              return x.size() < y.size();
            });
  if (views[0].empty()) return SidList();
  // A single compressed view only decodes when it is the sole input; with
  // two or more, the two smallest seed the accumulator through the
  // in-place kernels (bounding it by their intersection), and every later
  // pass intersects against the views' native forms.
  if (views.size() == 1) {
    return views[0].list() != nullptr ? *views[0].list()
                                      : views[0].blocks()->Decode();
  }
  SidList current = Intersect(views[0], views[1]);
  for (size_t i = 2; i < views.size() && !current.empty(); ++i) {
    current = Intersect(&current, views[i]);
  }
  return current;
}

SidList UnionAllBlocks(const std::vector<const BlockList*>& lists) {
  if (lists.empty()) return SidList();
  if (lists.size() == 1) return lists[0]->Decode();
  std::vector<SidList> decoded;
  decoded.reserve(lists.size());
  for (const BlockList* list : lists) decoded.push_back(list->Decode());
  if (decoded.size() == 2) {
    std::vector<uint32_t> out;
    out.reserve(decoded[0].size() + decoded[1].size());
    std::merge(decoded[0].begin(), decoded[0].end(), decoded[1].begin(),
               decoded[1].end(), std::back_inserter(out));
    return SidList::FromSorted(std::move(out));
  }
  // K-way ordered merge over a min-heap of list cursors: O(N log k), each
  // element touched once. Append() drops the duplicate heads.
  using Cursor = std::pair<uint32_t, size_t>;  // (current value, list index)
  std::priority_queue<Cursor, std::vector<Cursor>, std::greater<Cursor>> heap;
  std::vector<size_t> pos(decoded.size(), 0);
  for (size_t i = 0; i < decoded.size(); ++i) {
    if (!decoded[i].empty()) heap.push({decoded[i][0], i});
  }
  SidList out;
  while (!heap.empty()) {
    auto [value, i] = heap.top();
    heap.pop();
    out.Append(value);
    if (++pos[i] < decoded[i].size()) heap.push({decoded[i][pos[i]], i});
  }
  return out;
}

}  // namespace koko
