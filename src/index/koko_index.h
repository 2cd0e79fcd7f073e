#ifndef KOKO_INDEX_KOKO_INDEX_H_
#define KOKO_INDEX_KOKO_INDEX_H_

#include <array>
#include <memory>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "index/path.h"
#include "index/posting.h"
#include "index/sid_ops.h"
#include "storage/table.h"
#include "text/document.h"
#include "util/interner.h"
#include "util/mmap_file.h"
#include "util/status.h"

namespace koko {

/// Where Load keeps an index image's bytes. Both modes take one path:
/// the posting payloads (skip tables + block payloads) are validated and
/// then aliased in place — no posting byte is copied or decoded.
///
///  * `kCopy` — read the file into an owned heap buffer (the default).
///    MemoryUsage() counts the buffer.
///  * `kMap` — mmap the file read-only. Resident posting memory is
///    page-cache-backed and shared across processes mapping the same
///    image. Where mmap fails, the load falls back to the kCopy buffer.
enum class LoadMode { kCopy, kMap };

/// The bytes of an index file for `mode`: a read-only mapping (kMap, or
/// an owned copy where mmap fails) or an owned copy (kCopy).
Result<std::shared_ptr<MappedFile>> OpenIndexFile(const std::string& path,
                                                  LoadMode mode);

/// \brief KOKO's multi-indexing scheme (paper §3).
///
/// Four indices over one physical layout:
///  * **Word index** — table W(word, x, y, u, v, d, plid, posid), one row
///    per token, B-tree on `word`. The quintuple columns are §3.1's
///    (x, y, u-v, d); plid/posid are the token's node ids in the two
///    hierarchy indices (§6.2.1's schema, verbatim).
///  * **Entity index** — table E(entity, x, u, v [, etype]), B-tree on
///    `entity`.
///  * **PL / POS hierarchy indices** — dependency trees of all sentences
///    merged into one trie per label type (§3.2): children with equal
///    labels merge, so every trie node is a unique root path with a posting
///    list (represented as row ids into W — the paper's PL.id ⋈ W.plid
///    join). Persisted as closure tables PL/POS(id, label, depth, aid,
///    alabel, adepth).
///
/// Node-merge statistics back the paper's claim that the hierarchy index
/// removes >99.7% of tree nodes.
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

  /// Posting list of a surface token (exact match), §3.1 word index.
  /// `sid_filter`, when non-null, drops rows whose sid is not in it
  /// *before* materialising quintuples (the filter push-down of
  /// KokoPathLookup's cross-index joins); rows between filter sids are
  /// skipped by galloping, never visited.
  PostingList LookupWord(std::string_view token) const {
    return LookupWord(token, nullptr);
  }
  PostingList LookupWord(std::string_view token, const SidList* sid_filter) const;

  /// Entity postings whose surface text equals `text` exactly.
  std::vector<EntityPosting> LookupEntityText(std::string_view text) const;

  /// All entity postings (corpus order). Used when a variable is declared
  /// as an entity with no further restriction.
  const std::vector<EntityPosting>& AllEntities() const { return all_entities_; }

  /// Entity postings of one type, served from per-type buckets precomputed
  /// at Build/Load time (no scan, no copy).
  const std::vector<EntityPosting>& EntitiesOfType(EntityType type) const {
    return entities_by_type_[static_cast<size_t>(type)];
  }

  // ---- Columnar sid projections (DPLI's working set) ----------------------
  //
  // Sorted, deduplicated sentence-id lists precomputed at Build/Load time:
  // one per word, per entity type, and per hierarchy-trie node. DPLI's
  // candidate pruning intersects these directly instead of materialising
  // Quintuple postings and projecting out sids per query. The lists stay
  // resident in their block-compressed form (`BlockList`: fixed-size
  // bit-packed delta blocks + skip table) and are intersected in place —
  // they are never decoded wholesale.

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

  /// Number of trie nodes matched (no posting materialisation); lets DPLI
  /// detect "path absent from index" cheaply.
  size_t CountPlPathNodes(const PathQuery& path) const;
  size_t CountPosPathNodes(const PathQuery& path) const;

  // ---- Introspection / persistence ----------------------------------------

  const Stats& stats() const { return stats_; }

  /// Heap footprint of everything: tables, B-trees, tries, entity cache,
  /// and — after a kCopy load — the owned image buffer.
  size_t MemoryUsage() const;

  /// Heap footprint of just the columnar sid projections (per-word,
  /// per-trie-node, per-entity-type) — the block-compressed posting
  /// working set whose size BENCH_table2_scaleup.json tracks. Lists that
  /// alias an owned (kCopy) image buffer count their encoded bytes; lists
  /// that alias an mmap count nothing.
  size_t SidCacheMemoryUsage() const;

  /// What the same projections would occupy fully decoded (4 bytes/sid,
  /// the pre-block representation's floor) — the compression baseline
  /// reported next to SidCacheMemoryUsage.
  size_t SidCacheDecodedEquivalentBytes() const;

  /// Storage-level view (tables W, E, PL, POS) for tests and tooling.
  const Catalog& catalog() const { return catalog_; }

  /// Persists the index as one image (format v4, docs/INDEX_FORMAT.md):
  /// the relational catalog followed by the columnar sid caches, each
  /// written verbatim in its packed block form with its payload at a
  /// 4-byte-aligned file offset, so Load aliases them in place.
  Status Save(const std::string& path) const;
  /// Writes the same image to a stream (one shard's section of a
  /// ShardedKokoIndex file).
  Status Save(BinaryWriter* writer) const;

  static Result<std::unique_ptr<KokoIndex>> Load(const std::string& path) {
    return Load(path, LoadMode::kCopy);
  }
  static Result<std::unique_ptr<KokoIndex>> Load(const std::string& path,
                                                 LoadMode mode);

  /// Loads the image occupying `span` inside `file` (the whole file, or
  /// one shard's extent of a sharded file): parses the catalog, then
  /// validates and aliases every posting list into `file`. The returned
  /// index holds `file` alive for its lifetime. Any image version other
  /// than 4 fails with ParseError.
  static Result<std::unique_ptr<KokoIndex>> LoadMapped(
      std::shared_ptr<MappedFile> file, MemorySpan span);

  /// True when this index's posting payloads alias a memory mapping (a
  /// kMap load whose mmap succeeded).
  bool mapped() const { return image_ != nullptr && image_->mmapped(); }

  /// Fails with ParseError unless every stored sid list lies inside
  /// [begin, end). O(1) per list: reads each list's first and last sid.
  Status CheckSidRange(uint32_t begin, uint32_t end) const;

 private:
  // Merged dependency-tree trie (one per label type).
  struct TrieNode {
    Symbol label = kInvalidSymbol;
    int32_t parent = -1;
    uint32_t depth = 0;
    std::vector<std::pair<Symbol, uint32_t>> children;  // sorted by label
    std::vector<uint32_t> rows;                         // row ids into W
    BlockList sids;  // block-compressed sorted unique sids of `rows`
  };
  struct Trie {
    std::vector<TrieNode> nodes;  // nodes[0] = dummy root above all trees
    StringPool labels;

    Trie() { nodes.emplace_back(); }
    uint32_t GetOrAddChild(uint32_t parent, Symbol label);
    uint32_t FindChild(uint32_t parent, Symbol label) const;  // -1u if absent
    /// Trie nodes matched by a decomposed path (steps constrain only this
    /// trie's label kind, or are wildcards).
    std::vector<uint32_t> Match(const PathQuery& path, bool use_pos) const;
    size_t MemoryUsage() const;
  };

  KokoIndex() = default;

  Quintuple RowToQuintuple(uint32_t row) const;
  uint32_t RowSid(uint32_t row) const;
  /// Appends to `out` the quintuples of `rows` (ascending W row ids, hence
  /// sid-sorted) whose sid is in `sid_filter`, or of every row when it is
  /// null. Filtered, it leapfrogs the two sorted sequences: each side
  /// gallops to the other's current sid, so a small filter against a long
  /// row list costs O(|filter| log |rows|).
  void AppendRows(const std::vector<uint32_t>& rows, const SidList* sid_filter,
                  PostingList* out) const;
  /// Materialises the matched trie nodes' rows into `out` (unsorted)
  /// through AppendRows.
  void AppendTrieRows(const Trie& trie, const std::vector<uint32_t>& nodes,
                      const SidList* sid_filter, PostingList* out) const;
  /// PlPathSids/PosPathSids over `trie`.
  SidList TriePathSids(const Trie& trie, const PathQuery& path, bool use_pos,
                       const SidList* sid_filter) const;
  void ExportClosureTable(const Trie& trie, const std::string& table_name);
  Status RebuildTrieFromClosure(const std::string& table_name, Trie* trie,
                                int w_node_col);
  /// Post-catalog-load setup: resolve W/E, rebuild tries from the closure
  /// tables, entity cache, stats.
  Status InitFromCatalog();
  /// Validates and aliases the word/trie sid-cache sections of an image.
  Status LoadSidCacheSections(SpanReader* reader);
  /// Calls `fn(const BlockList&)` on every stored sid list. Defined in
  /// koko_index.cpp; instantiated only there.
  template <typename Fn>
  void ForEachSidList(Fn&& fn) const;
  Status RebuildEntityCache();
  /// Fills the columnar sid caches (word/entity-type/trie-node lists) from
  /// the W and E tables; called at the end of Build.
  void RebuildSidCaches();
  /// The entity-side subset of RebuildSidCaches (per-type buckets + sid
  /// lists from all_entities_); cheap, so always recomputed on Load.
  void RebuildEntitySidCaches();

  Catalog catalog_;
  Table* w_ = nullptr;  // W(word, x, y, u, v, d, plid, posid)
  Table* e_ = nullptr;  // E(entity, x, u, v, etype)
  Trie pl_trie_;
  Trie pos_trie_;
  std::vector<EntityPosting> all_entities_;
  std::array<std::vector<EntityPosting>, kNumEntityTypes> entities_by_type_;
  std::unordered_map<std::string, BlockList> word_sids_;
  std::array<BlockList, kNumEntityTypes> entity_sids_by_type_;
  BlockList all_entity_sids_;
  Stats stats_;
  /// The loaded image every BlockList view points into (null for a built
  /// index; shards of one sharded file share a single instance), and this
  /// index's extent within it.
  std::shared_ptr<MappedFile> image_;
  MemorySpan image_span_;
};

}  // namespace koko

#endif  // KOKO_INDEX_KOKO_INDEX_H_
