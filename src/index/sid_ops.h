#ifndef KOKO_INDEX_SID_OPS_H_
#define KOKO_INDEX_SID_OPS_H_

#include <cassert>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

#include "util/mmap_file.h"
#include "util/status.h"

namespace koko {

/// \brief A sorted, deduplicated list of sentence ids.
///
/// The columnar projection of a posting list onto its `sid` column: the unit
/// DPLI (Algorithm 1) actually operates on. Ids are stored ascending and
/// unique, which makes the layout delta-friendly (gaps are small positive
/// integers, see BlockList) and lets set operations run as ordered merges
/// instead of hash probes.
class SidList {
 public:
  SidList() = default;

  /// Takes ownership of an already sorted, already deduplicated vector.
  static SidList FromSorted(std::vector<uint32_t> ids);

  /// Sorts and deduplicates `ids` (any order, duplicates allowed).
  static SidList FromUnsorted(std::vector<uint32_t> ids);

  /// Build-time append of a non-decreasing id stream; duplicates of the
  /// current tail are dropped in O(1). Ids below the tail are rejected via
  /// assert in debug builds (the caller must feed sorted data).
  void Append(uint32_t sid) {
    if (!ids_.empty()) {
      assert(sid >= ids_.back());
      if (ids_.back() == sid) return;
    }
    ids_.push_back(sid);
  }

  /// Number of sids — the `CountSids()` fast path: cardinality without
  /// materialising any posting.
  size_t CountSids() const { return ids_.size(); }

  size_t size() const { return ids_.size(); }
  bool empty() const { return ids_.empty(); }
  uint32_t operator[](size_t i) const { return ids_[i]; }
  const uint32_t* data() const { return ids_.data(); }
  std::vector<uint32_t>::const_iterator begin() const { return ids_.begin(); }
  std::vector<uint32_t>::const_iterator end() const { return ids_.end(); }

  const std::vector<uint32_t>& ids() const { return ids_; }
  /// Moves the id vector out (the list becomes empty).
  std::vector<uint32_t> TakeIds() { return std::move(ids_); }

  bool Contains(uint32_t sid) const;

  size_t MemoryUsage() const { return ids_.capacity() * sizeof(uint32_t); }

  friend bool operator==(const SidList& a, const SidList& b) {
    return a.ids_ == b.ids_;
  }

 private:
  std::vector<uint32_t> ids_;
};

// ---- Galloping primitives ---------------------------------------------------

/// First index in [lo, n) with xs[idx] >= key, found by exponential probing
/// from `lo` followed by binary search within the bracketed range. O(log d)
/// where d is the distance advanced — the primitive behind skewed-list
/// intersection (Bentley & Yao / SVS "galloping" advance).
size_t GallopTo(const uint32_t* xs, size_t n, size_t lo, uint32_t key);

/// GallopTo over a (possibly unaligned) U32View — the skip-table variant
/// used when the table aliases a memory-mapped image.
size_t GallopTo(const U32View& xs, size_t lo, uint32_t key);

// ---- Set operations ---------------------------------------------------------

/// Ordered intersection. Adaptive: linear two-pointer merge when the sizes
/// are comparable, galloping advance in the larger list when skewed
/// (|large| / |small| >= kGallopSkewRatio).
SidList Intersect(const SidList& a, const SidList& b);

/// Size ratio above which Intersect switches from linear merge to galloping.
inline constexpr size_t kGallopSkewRatio = 8;

// ---- Block-compressed posting lists -----------------------------------------

/// \brief A sorted sid list stored as fixed-size bit-packed delta blocks
/// with a per-block skip table — the index's one posting representation,
/// in memory and on disk alike.
///
/// Layout (identical in memory and in the image, so a load aliases it
/// instead of decoding it):
///
///   * `skip_first[b]`  — absolute first sid of block b (the skip table's
///     search key; a contiguous uint32 array, gallop-friendly).
///   * `skip_offset[b]` — byte offset of block b's payload in `bytes`.
///   * `skip_width[b]`  — bit width of block b's gaps: the minimal width
///     holding its largest gap, 0 for a single-sid block.
///   * `bytes`          — concatenated block payloads. A block's payload is
///     the gaps of its 2nd..kth sids from their predecessors, `skip_width`
///     bits each, LSB-first in a little-endian bitstream, zero-padded to a
///     multiple of 4 bytes (so offsets stay 4-byte aligned and the decoder's
///     word-granular loads never cross the block's end). The
///     first sid lives only in the skip table.
///
/// Every block except the last holds exactly `kBlockSids` sids. The
/// encoding is canonical — one byte string per sid set — so equality is a
/// byte compare and any corruption of a structurally plausible image is
/// detectable by `FromMappedPacked`. Intersection runs directly over this
/// form: gallop the skip table to the candidate block, decode at most that
/// one block into a stack buffer (see `Intersect(SidList, BlockList)` /
/// `Intersect(BlockList, BlockList)`).
///
/// Lists are immutable. `BlockListBuilder` (and `FromSidList`) packs each
/// block as it closes; the result owns its arrays in one shared, immutable
/// allocation, so copies are cheap. `FromMappedPacked` returns a *view*
/// whose arrays alias externally owned bytes (a loaded image); its
/// `MemoryUsage()` is 0 and whoever creates it keeps the bytes alive and
/// unmodified for the list's lifetime (KokoIndex holds the image in a
/// shared_ptr). Both kinds expose the identical read API.
class BlockList {
 public:
  /// Sids per block. 128 gaps fit L1 comfortably as a decode buffer and
  /// amortise the 12-byte skip entry to ~0.1 bytes/sid.
  static constexpr size_t kBlockSids = 128;

  BlockList() = default;

  /// Packs an already decoded list.
  static BlockList FromSidList(const SidList& list);

  /// Aliases a list's (possibly untrusted) parts after validating every
  /// structural invariant: block count for the sid count, skip-table
  /// monotonicity and bounds, per-block minimal bit width (<= 32), nonzero
  /// gaps, no uint32 overflow, 4-byte-aligned offsets, exact payload
  /// sizes, and zero padding/slack bits. Validation completes before any
  /// alias is retained ("validate before alias"), so a corrupt image fails
  /// here and never at query time. No posting byte is copied.
  static Result<BlockList> FromMappedPacked(uint32_t count, U32View skip_first,
                                            U32View skip_offset,
                                            U32View skip_width,
                                            MemorySpan bytes);

  /// True when this list aliases external memory (FromMappedPacked).
  bool is_view() const { return storage_ == nullptr && size_ > 0; }

  size_t CountSids() const { return size_; }
  size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }

  /// Largest sid in the list (0 when empty) — with skip_first()[0] this
  /// bounds the list's span without decoding, letting intersection clamp
  /// to the overlapping block window.
  uint32_t last_sid() const { return last_; }
  size_t NumBlocks() const { return first_.size(); }

  /// Number of sids in block `b` (kBlockSids except possibly the last).
  size_t BlockSize(size_t b) const {
    return b + 1 < NumBlocks() ? kBlockSids : size_ - b * kBlockSids;
  }

  /// Decodes block `b` into `out` (capacity >= kBlockSids); returns the
  /// number of sids written. The payload is trusted (validated at
  /// construction), so this is a straight unpack.
  size_t DecodeBlock(size_t b, uint32_t* out) const;

  /// Fully decodes the list (transient use only — unions, aggregation
  /// across shards, tests; the resident form stays compressed).
  SidList Decode() const;

  bool Contains(uint32_t sid) const;

  /// Heap bytes owned by this list. A view owns nothing — its bytes belong
  /// to the image it aliases — so it reports 0.
  size_t MemoryUsage() const;

  /// Serialization views (the image writes these verbatim). Valid while
  /// the list (and, for a view, its backing memory) lives.
  U32View skip_first() const { return first_; }
  U32View skip_offset() const { return offset_; }
  U32View skip_width() const { return width_; }
  MemorySpan bytes() const { return bytes_; }

  /// Byte equality of the four arrays — the encoding is canonical, so
  /// owning and view lists over the same sids are equal.
  friend bool operator==(const BlockList& a, const BlockList& b);

 private:
  friend class BlockListBuilder;

  // Owned arrays of a built list; null for a view.
  struct Storage {
    std::vector<uint32_t> first;
    std::vector<uint32_t> offset;
    std::vector<uint32_t> width;
    std::vector<uint8_t> bytes;
  };

  uint32_t size_ = 0;
  uint32_t last_ = 0;
  std::shared_ptr<const Storage> storage_;
  U32View first_;
  U32View offset_;
  U32View width_;
  MemorySpan bytes_;
};

/// \brief Build-time writer of a BlockList from a non-decreasing sid
/// stream: buffers the open block and packs it when it closes.
class BlockListBuilder {
 public:
  /// Appends `sid` (>= the previous one); repeats of the tail are dropped.
  void Append(uint32_t sid);

  /// Packs the open block and returns the finished list; the builder is
  /// left empty.
  BlockList Finish();

 private:
  void PackOpenBlock();

  BlockList::Storage parts_;
  std::vector<uint32_t> open_;  // sids of the block not yet packed
  uint32_t size_ = 0;
  uint32_t tail_ = 0;  // last appended sid
};

/// \brief A borrowed sorted sid set: either a decoded `SidList` or a
/// compressed `BlockList`.
///
/// DPLI mixes both — computed per-query lists (path projections, literal
/// intersections) are decoded, the index's stored projections are block
/// compressed — and `IntersectAllViews` intersects across the mix without
/// materialising the compressed inputs.
class SidSetView {
 public:
  SidSetView() = default;
  /*implicit*/ SidSetView(const SidList* list) : list_(list) {}
  /*implicit*/ SidSetView(const BlockList* blocks) : blocks_(blocks) {}

  size_t size() const {
    return list_ != nullptr ? list_->size()
                            : (blocks_ != nullptr ? blocks_->size() : 0);
  }
  bool empty() const { return size() == 0; }
  const SidList* list() const { return list_; }
  const BlockList* blocks() const { return blocks_; }

 private:
  const SidList* list_ = nullptr;
  const BlockList* blocks_ = nullptr;
};

/// In-place compressed intersection: walks the smaller side, gallops the
/// skip table to the candidate block and decodes at most that one block
/// into a stack buffer. Results equal Intersect over the decoded lists.
SidList Intersect(const SidList& a, const BlockList& b);
SidList Intersect(const BlockList& a, const SidList& b);
SidList Intersect(const BlockList& a, const BlockList& b);

/// Two-view intersection dispatched on the views' forms: decoded x decoded
/// merges the arrays, any compressed side runs the in-place kernels above.
/// The one intersection step of DPLI — IntersectAllViews and the planner's
/// executor both go through it.
SidList Intersect(SidSetView a, SidSetView b);

/// Per-list statistics derivable from a BlockList's skip/width tables with
/// no payload decode — the planner's cost-model inputs (all O(1) reads).
struct BlockListStats {
  uint64_t sids = 0;       ///< list length
  uint64_t blocks = 0;     ///< skip-table entries
  uint32_t min_sid = 0;    ///< first sid (0 when empty)
  uint32_t max_sid = 0;    ///< last sid (0 when empty)
  double avg_gap = 0.0;    ///< (max-min)/(sids-1): mean inter-sid distance
};

/// Reads a list's stats from its skip table (no block decoded).
BlockListStats StatsOf(const BlockList& list);

/// Multi-way intersection over mixed decoded/compressed views,
/// smallest-first with short-circuit on empty — the DPLI kernel.
SidList IntersectAllViews(std::vector<SidSetView> views);

/// Multi-way union of compressed lists: decodes each list once, then one
/// k-way ordered heap merge (O(N log k)).
SidList UnionAllBlocks(const std::vector<const BlockList*>& lists);

}  // namespace koko

#endif  // KOKO_INDEX_SID_OPS_H_
