#ifndef KOKO_INDEX_KOKO_INDEX_H_
#define KOKO_INDEX_KOKO_INDEX_H_

#include <array>
#include <memory>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "index/path.h"
#include "index/posting.h"
#include "index/sid_ops.h"
#include "storage/serde.h"
#include "text/document.h"
#include "util/mmap_file.h"
#include "util/status.h"

namespace koko {

/// \brief KOKO's multi-indexing scheme (paper §3), held as one image.
///
/// The shard type: the engine serves, and files hold, a KokoIndex only as
/// a shard of a ShardedKokoIndex (index/sharded_index.h).
///
/// An index *is* its image (format v5, docs/INDEX_FORMAT.md): fixed-width
/// u32 columns, CSR row lists and packed sid lists, all views into one
/// `MappedFile`. Build assembles the image in memory and then takes the
/// same validate-then-alias path as LoadMapped, so a built, a copied and a
/// mapped index are one representation and Save writes the bytes back
/// verbatim. The paper's §3 tables map onto it as follows:
///  * **W(word, x, y, u, v, d, plid, posid)** — five columns in sid order,
///    one row per token: sid (x), tid (y), left/right (the subtree span
///    u-v) and depth (d), i.e. §3.1's quintuple. The `word` column and its
///    B-tree are the word dictionary: sorted distinct words, each with the
///    CSR slice of its ascending W row ids and its packed sid list. plid
///    and posid are the inverse of the tries' row lists below.
///  * **E(entity, x, u, v, etype)** — four columns in sid order (sid,
///    left, right, type); the `entity` column and its B-tree are the
///    entity-text dictionary with each text's E row ids.
///  * **PL / POS(id, label, depth)** — the dependency trees of all
///    sentences merged into one trie per label type (§3.2: children with
///    equal labels merge, so every node is a unique root path). Each node
///    stores its parent, label id (the DepLabel / PosTag value) and depth,
///    its posting list as the CSR slice of its W row ids (the paper's
///    PL.id ⋈ W.plid join) and the packed sid list of those rows.
///
/// Per-entity-type sid lists and the sentence count are stored too, so a
/// load parses nothing: its heap is one child index per trie and one
/// `BlockList` handle per word and trie node. Node-merge statistics back
/// the paper's claim that the hierarchy index removes >99.7% of tree
/// nodes.
class KokoIndex {
 public:
  struct Stats {
    double build_seconds = 0;
    size_t num_sentences = 0;
    size_t num_tokens = 0;       // == pre-merge dependency-tree nodes
    size_t num_entities = 0;
    size_t pl_trie_nodes = 0;    // post-merge (excluding the dummy root)
    size_t pos_trie_nodes = 0;

    /// Fraction of tree nodes eliminated by merging, e.g. 0.997.
    double PlCompression() const {
      return num_tokens == 0
                 ? 0.0
                 : 1.0 - static_cast<double>(pl_trie_nodes) /
                           static_cast<double>(num_tokens);
    }
    double PosCompression() const {
      return num_tokens == 0
                 ? 0.0
                 : 1.0 - static_cast<double>(pos_trie_nodes) /
                           static_cast<double>(num_tokens);
    }
  };

  /// Builds all four indices over an annotated corpus.
  static std::unique_ptr<KokoIndex> Build(const AnnotatedCorpus& corpus);

  /// Builds the indices over the contiguous global sid range
  /// [sid_begin, sid_end) only — the unit of work of one ShardedKokoIndex
  /// shard. All stored sids stay *global*, so shard lookups return ids
  /// directly comparable (and mergeable by concatenation) with other
  /// shards'. Build(corpus) is Build(corpus, 0, NumSentences()).
  static std::unique_ptr<KokoIndex> Build(const AnnotatedCorpus& corpus,
                                          uint32_t sid_begin, uint32_t sid_end);

  // ---- Inverted-index lookups --------------------------------------------

  /// Posting list of a surface token (exact match), §3.1 word index: a
  /// dictionary binary search, then the word's row slice read through the
  /// W columns. `sid_filter`, when non-null, drops rows whose sid is not
  /// in it *before* materialising quintuples (the filter push-down of
  /// KokoPathLookup's cross-index joins); rows between filter sids are
  /// skipped by galloping, never visited.
  PostingList LookupWord(std::string_view token) const {
    return LookupWord(token, nullptr);
  }
  PostingList LookupWord(std::string_view token, const SidList* sid_filter) const;

  /// Entity postings whose surface text equals `text` exactly.
  std::vector<EntityPosting> LookupEntityText(std::string_view text) const;

  /// All entity postings in E-row (sid) order, read out of the E columns.
  std::vector<EntityPosting> AllEntities() const;

  // ---- Columnar sid projections (DPLI's working set) ----------------------
  //
  // Sorted, deduplicated sentence-id lists stored in the image: one per
  // word, per entity type, and per hierarchy-trie node. DPLI's candidate
  // pruning intersects these directly instead of materialising Quintuple
  // postings and projecting out sids per query. The lists stay in their
  // block-compressed form (`BlockList`: fixed-size bit-packed delta
  // blocks + skip table) and are intersected in place — they are never
  // decoded wholesale.

  /// Block-compressed sid list of a surface token; nullptr when absent.
  const BlockList* WordSids(std::string_view token) const;

  /// Number of sentences containing `token` without materialising anything.
  size_t CountWordSids(std::string_view token) const;

  /// Sids of all sentences with at least one entity (any type).
  const BlockList& AllEntitySids() const { return all_entity_sids_; }

  /// Sids of all sentences with at least one entity of `type`.
  const BlockList& EntityTypeSids(EntityType type) const {
    return entity_sids_by_type_[static_cast<size_t>(type)];
  }

  /// Union of the per-node sid lists of all PL-trie nodes matched by
  /// `path` — the sid projection of LookupParseLabelPath without building
  /// its posting list. With a `sid_filter` the result is that union
  /// intersected with the filter: each matched node's stored list is
  /// intersected with the filter in place and only the hits are merged,
  /// so no node list is decoded wholesale.
  SidList PlPathSids(const PathQuery& path) const {
    return PlPathSids(path, nullptr);
  }
  SidList PlPathSids(const PathQuery& path, const SidList* sid_filter) const;

  /// Same over the POS trie.
  SidList PosPathSids(const PathQuery& path) const {
    return PosPathSids(path, nullptr);
  }
  SidList PosPathSids(const PathQuery& path, const SidList* sid_filter) const;

  /// Upper-bound estimate of |PlPathSids(path)|: the sum of the matched
  /// trie nodes' stored sid-list lengths (the union can only be smaller,
  /// so pruning plans built on it stay complete). O(matched nodes) skip
  /// table reads, no block decoded, no union materialised — the planner's
  /// path-selectivity input (koko/planner.h).
  size_t EstimatePlPathSids(const PathQuery& path) const;

  /// Same over the POS trie.
  size_t EstimatePosPathSids(const PathQuery& path) const;

  // ---- Hierarchy-index lookups --------------------------------------------

  /// Union of posting lists of all PL-trie nodes matched by `path`, whose
  /// constraints must only use parse labels or wildcards (the output of
  /// DPLI's path decomposition). The `sid_filter` overloads skip rows
  /// outside the filter before quintuple materialisation and the final
  /// sort, galloping over the rows between filter sids.
  PostingList LookupParseLabelPath(const PathQuery& path) const {
    return LookupParseLabelPath(path, nullptr);
  }
  PostingList LookupParseLabelPath(const PathQuery& path,
                                   const SidList* sid_filter) const;

  /// Same over the POS trie (POS-tag constraints or wildcards).
  PostingList LookupPosPath(const PathQuery& path) const {
    return LookupPosPath(path, nullptr);
  }
  PostingList LookupPosPath(const PathQuery& path,
                            const SidList* sid_filter) const;

  // ---- Introspection / persistence ----------------------------------------

  const Stats& stats() const { return stats_; }

  /// Heap footprint: the per-word and per-trie-node list handles, the
  /// tries' child indexes and — for a built or kCopy-loaded index — the
  /// owned image buffer. A kMap-loaded index's columns, row lists and sid
  /// lists live in the mapping and count nothing.
  size_t MemoryUsage() const;

  /// Heap footprint of just the columnar sid projections (per-word,
  /// per-trie-node, per-entity-type) — the block-compressed posting
  /// working set whose size BENCH_table2_scaleup.json tracks. Lists in an
  /// owned image buffer count their encoded bytes; lists that alias an
  /// mmap count nothing.
  size_t SidCacheMemoryUsage() const;

  /// What the same projections would occupy fully decoded (4 bytes/sid,
  /// the pre-block representation's floor) — the compression baseline
  /// reported next to SidCacheMemoryUsage.
  size_t SidCacheDecodedEquivalentBytes() const;

  /// Writes the index's image (format v5, docs/INDEX_FORMAT.md) verbatim
  /// to a stream — one shard's section of a ShardedKokoIndex file — so a
  /// loaded index re-saves byte-identically.
  Status Save(BinaryWriter* writer) const;

  /// Loads the image occupying `span` inside `file` (one shard's extent of
  /// a ShardedKokoIndex file): validates every section, then aliases it in
  /// place. The returned index holds `file` alive for its lifetime. Any
  /// image version other than 5 fails with ParseError.
  static Result<std::unique_ptr<KokoIndex>> LoadMapped(
      std::shared_ptr<MappedFile> file, MemorySpan span);

  /// True when this index's image is a memory mapping (a kMap load whose
  /// mmap succeeded).
  bool mapped() const { return image_ != nullptr && image_->mmapped(); }

  /// Fails with ParseError unless every stored sid — in the W and E sid
  /// columns and in every sid list — lies inside [begin, end). O(1) per
  /// list: the columns and lists are sorted, so only their ends are read.
  Status CheckSidRange(uint32_t begin, uint32_t end) const;

 private:
  // A sorted string dictionary whose i-th key owns the CSR slice
  // rows[row_offsets[i], row_offsets[i + 1]) of ascending W or E row ids.
  struct Dictionary {
    U32View key_offsets;  // size() + 1 byte offsets into `keys`
    MemorySpan keys;
    U32View row_offsets;  // size() + 1 offsets into `rows`
    U32View rows;

    /// Reads and validates the section: key_offsets | keys | row_offsets |
    /// rows over a table of `num_rows` rows.
    Status Read(SpanReader* reader, size_t num_rows, const char* what);
    size_t size() const { return row_offsets.size() - 1; }
    std::string_view Key(size_t i) const;
    /// Index of `key`, or size() when absent (binary search).
    size_t Find(std::string_view key) const;
    U32View Rows(size_t i) const {
      return rows.Slice(row_offsets[i], row_offsets[i + 1]);
    }
  };

  // Merged dependency-tree trie (one per label type); node 0 is the dummy
  // root above all sentence roots.
  struct Trie {
    U32View parent;  // per node; parent[i] < i for every i > 0
    U32View label;   // DepLabel / PosTag value
    U32View depth;
    U32View row_offsets;  // CSR: node i's ascending W row ids
    U32View rows;
    std::vector<BlockList> sids;  // per node: sorted unique sids of its rows
    // Children of each node sorted by label, derived from `parent` at load.
    std::vector<uint32_t> child_offsets;
    std::vector<uint32_t> children;

    /// Reads and validates the section (parent | label | depth |
    /// row_offsets | rows | one sid list per node) and derives the child
    /// index; labels must be below `num_labels`.
    Status Read(SpanReader* reader, size_t num_rows, uint32_t num_labels);
    size_t size() const { return parent.size(); }
    std::span<const uint32_t> Children(uint32_t node) const {
      return std::span<const uint32_t>(children).subspan(
          child_offsets[node], child_offsets[node + 1] - child_offsets[node]);
    }
    U32View Rows(uint32_t node) const {
      return rows.Slice(row_offsets[node], row_offsets[node + 1]);
    }
    uint32_t FindChild(uint32_t node, uint32_t label) const;  // -1u if absent
    /// Trie nodes matched by a decomposed path (steps constrain only this
    /// trie's label kind, or are wildcards).
    std::vector<uint32_t> Match(const PathQuery& path, bool use_pos) const;
    size_t MemoryUsage() const;
  };

  KokoIndex() = default;

  Quintuple RowToQuintuple(uint32_t row) const;
  uint32_t RowSid(uint32_t row) const { return w_sid_[row]; }
  /// Appends to `out` the quintuples of `rows` (ascending W row ids, hence
  /// sid-sorted) whose sid is in `sid_filter`, or of every row when it is
  /// null. Filtered, it leapfrogs the two sorted sequences: each side
  /// gallops to the other's current sid, so a small filter against a long
  /// row list costs O(|filter| log |rows|).
  void AppendRows(U32View rows, const SidList* sid_filter,
                  PostingList* out) const;
  /// Materialises the matched trie nodes' rows into `out` (sorted).
  PostingList TrieRows(const Trie& trie, const PathQuery& path, bool use_pos,
                       const SidList* sid_filter) const;
  /// PlPathSids/PosPathSids over `trie`.
  SidList TriePathSids(const Trie& trie, const PathQuery& path, bool use_pos,
                       const SidList* sid_filter) const;
  /// Calls `fn(const BlockList&)` on every stored sid list. Defined in
  /// koko_index.cpp; instantiated only there.
  template <typename Fn>
  void ForEachSidList(Fn&& fn) const;

  // W columns (one row per token, sid order) and E columns (one row per
  // entity, sid order).
  U32View w_sid_, w_tid_, w_left_, w_right_, w_depth_;
  U32View e_sid_, e_left_, e_right_, e_type_;
  Dictionary words_;
  std::vector<BlockList> word_sids_;  // per words_ entry
  Dictionary entity_texts_;
  BlockList all_entity_sids_;
  std::array<BlockList, kNumEntityTypes> entity_sids_by_type_;
  Trie pl_trie_;
  Trie pos_trie_;
  Stats stats_;
  /// The image every view points into (shards of one sharded file share a
  /// single instance), and this index's extent within it.
  std::shared_ptr<MappedFile> image_;
  MemorySpan image_span_;
};

}  // namespace koko

#endif  // KOKO_INDEX_KOKO_INDEX_H_
