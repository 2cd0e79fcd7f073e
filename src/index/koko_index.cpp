#include "index/koko_index.h"

#include <algorithm>
#include <fstream>
#include <utility>

#include "util/logging.h"
#include "util/timer.h"

namespace koko {

namespace {

constexpr uint32_t kNoNode = static_cast<uint32_t>(-1);

// Column positions in W.
enum WCol : uint32_t {
  kWWord = 0,
  kWSid,
  kWTid,
  kWLeft,
  kWRight,
  kWDepth,
  kWPlid,
  kWPosid,
};

// Column positions in E.
enum ECol : uint32_t { kEEntity = 0, kESid, kELeft, kERight, kEType };

}  // namespace

// ---- Trie -------------------------------------------------------------------

uint32_t KokoIndex::Trie::FindChild(uint32_t parent, Symbol label) const {
  const auto& kids = nodes[parent].children;
  auto it = std::lower_bound(
      kids.begin(), kids.end(), label,
      [](const std::pair<Symbol, uint32_t>& a, Symbol l) { return a.first < l; });
  if (it != kids.end() && it->first == label) return it->second;
  return kNoNode;
}

uint32_t KokoIndex::Trie::GetOrAddChild(uint32_t parent, Symbol label) {
  uint32_t existing = FindChild(parent, label);
  if (existing != kNoNode) return existing;
  uint32_t id = static_cast<uint32_t>(nodes.size());
  TrieNode node;
  node.label = label;
  node.parent = static_cast<int32_t>(parent);
  node.depth = nodes[parent].depth + 1;
  nodes.push_back(std::move(node));
  auto& kids = nodes[parent].children;
  auto it = std::lower_bound(
      kids.begin(), kids.end(), label,
      [](const std::pair<Symbol, uint32_t>& a, Symbol l) { return a.first < l; });
  kids.insert(it, {label, id});
  return id;
}

std::vector<uint32_t> KokoIndex::Trie::Match(const PathQuery& path,
                                             bool use_pos) const {
  std::vector<uint32_t> current = {0};  // dummy root
  std::vector<char> seen;
  for (const PathStep& step : path.steps) {
    // Resolve the step's label for this trie; unconstrained -> wildcard.
    bool wildcard;
    Symbol label = kInvalidSymbol;
    if (use_pos) {
      wildcard = !step.constraint.pos.has_value();
      if (!wildcard) {
        label = labels.Find(PosTagName(*step.constraint.pos));
        if (label == kInvalidSymbol) return {};
      }
    } else {
      wildcard = !step.constraint.dep.has_value();
      if (!wildcard) {
        label = labels.Find(DepLabelName(*step.constraint.dep));
        if (label == kInvalidSymbol) return {};
      }
    }
    std::vector<uint32_t> next;
    seen.assign(nodes.size(), 0);
    auto add = [&](uint32_t id) {
      if (!seen[id]) {
        seen[id] = 1;
        next.push_back(id);
      }
    };
    for (uint32_t node : current) {
      if (step.axis == PathStep::Axis::kChild) {
        if (wildcard) {
          for (const auto& [_, child] : nodes[node].children) add(child);
        } else {
          uint32_t child = FindChild(node, label);
          if (child != kNoNode) add(child);
        }
      } else {
        // Descendant axis: DFS below `node`.
        std::vector<uint32_t> stack;
        for (const auto& [_, child] : nodes[node].children) stack.push_back(child);
        while (!stack.empty()) {
          uint32_t t = stack.back();
          stack.pop_back();
          if (wildcard || nodes[t].label == label) add(t);
          for (const auto& [_, child] : nodes[t].children) stack.push_back(child);
        }
      }
    }
    current = std::move(next);
    if (current.empty()) return {};
  }
  std::sort(current.begin(), current.end());
  return current;
}

size_t KokoIndex::Trie::MemoryUsage() const {
  size_t bytes = nodes.capacity() * sizeof(TrieNode);
  for (const auto& n : nodes) {
    bytes += n.children.capacity() * sizeof(std::pair<Symbol, uint32_t>);
    bytes += n.rows.capacity() * sizeof(uint32_t);
    bytes += n.sids.MemoryUsage();
  }
  bytes += labels.MemoryUsage();
  return bytes;
}

// ---- Build -------------------------------------------------------------------

std::unique_ptr<KokoIndex> KokoIndex::Build(const AnnotatedCorpus& corpus) {
  return Build(corpus, 0, static_cast<uint32_t>(corpus.NumSentences()));
}

std::unique_ptr<KokoIndex> KokoIndex::Build(const AnnotatedCorpus& corpus,
                                            uint32_t sid_begin,
                                            uint32_t sid_end) {
  WallTimer timer;
  auto index = std::unique_ptr<KokoIndex>(new KokoIndex());

  index->w_ = index->catalog_.CreateTable(
      "W", {{"word", ColumnType::kString},
            {"x", ColumnType::kInt64},
            {"y", ColumnType::kInt64},
            {"u", ColumnType::kInt64},
            {"v", ColumnType::kInt64},
            {"d", ColumnType::kInt64},
            {"plid", ColumnType::kInt64},
            {"posid", ColumnType::kInt64}});
  index->e_ = index->catalog_.CreateTable(
      "E", {{"entity", ColumnType::kString},
            {"x", ColumnType::kInt64},
            {"u", ColumnType::kInt64},
            {"v", ColumnType::kInt64},
            {"etype", ColumnType::kInt64}});

  Trie& pl = index->pl_trie_;
  Trie& pos = index->pos_trie_;

  for (uint32_t sid = sid_begin; sid < sid_end; ++sid) {
    const Sentence& s = corpus.sentence(sid);
    const int n = s.size();
    if (n == 0) continue;
    ++index->stats_.num_sentences;

    // Trie node per token: walk top-down so parents resolve first.
    std::vector<uint32_t> pl_node(n, 0);
    std::vector<uint32_t> pos_node(n, 0);
    // BFS order from root guarantees head processed before child.
    std::vector<int> order;
    order.reserve(n);
    order.push_back(s.root);
    for (size_t k = 0; k < order.size(); ++k) {
      for (int child : s.children[order[k]]) order.push_back(child);
    }
    for (int t : order) {
      uint32_t pl_parent = s.tokens[t].head < 0 ? 0 : pl_node[s.tokens[t].head];
      uint32_t pos_parent = s.tokens[t].head < 0 ? 0 : pos_node[s.tokens[t].head];
      pl_node[t] = pl.GetOrAddChild(pl_parent,
                                    pl.labels.Intern(DepLabelName(s.tokens[t].label)));
      pos_node[t] = pos.GetOrAddChild(
          pos_parent, pos.labels.Intern(PosTagName(s.tokens[t].pos)));
    }

    for (int t = 0; t < n; ++t) {
      uint32_t row = static_cast<uint32_t>(index->w_->NumRows());
      KOKO_CHECK_OK(index->w_->AppendRow(
          {s.tokens[t].text, static_cast<int64_t>(sid), static_cast<int64_t>(t),
           static_cast<int64_t>(s.subtree_left[t]),
           static_cast<int64_t>(s.subtree_right[t]),
           static_cast<int64_t>(s.depth[t]), static_cast<int64_t>(pl_node[t]),
           static_cast<int64_t>(pos_node[t])}));
      pl.nodes[pl_node[t]].rows.push_back(row);
      pos.nodes[pos_node[t]].rows.push_back(row);
      ++index->stats_.num_tokens;
    }

    for (const Entity& ent : s.entities) {
      KOKO_CHECK_OK(index->e_->AppendRow(
          {s.SpanText(ent.begin, ent.end), static_cast<int64_t>(sid),
           static_cast<int64_t>(ent.begin), static_cast<int64_t>(ent.end),
           static_cast<int64_t>(ent.type)}));
      ++index->stats_.num_entities;
    }
  }

  KOKO_CHECK_OK(index->w_->CreateIndex("w_word", {"word"}));
  KOKO_CHECK_OK(index->e_->CreateIndex("e_entity", {"entity"}));

  index->ExportClosureTable(pl, "PL");
  index->ExportClosureTable(pos, "POS");
  KOKO_CHECK_OK(index->RebuildEntityCache());
  index->RebuildSidCaches();

  index->stats_.pl_trie_nodes = pl.nodes.size() - 1;
  index->stats_.pos_trie_nodes = pos.nodes.size() - 1;
  index->stats_.build_seconds = timer.ElapsedSeconds();
  return index;
}

void KokoIndex::ExportClosureTable(const Trie& trie, const std::string& table_name) {
  Table* t = catalog_.CreateTable(
      table_name, {{"id", ColumnType::kInt64},
                   {"label", ColumnType::kString},
                   {"depth", ColumnType::kInt64},
                   {"aid", ColumnType::kInt64},
                   {"alabel", ColumnType::kString},
                   {"adepth", ColumnType::kInt64}});
  // Closure rows: every (node, ancestor-or-self) pair, excluding the dummy.
  for (uint32_t id = 1; id < trie.nodes.size(); ++id) {
    const std::string& label = trie.labels.Lookup(trie.nodes[id].label);
    int32_t anc = static_cast<int32_t>(id);
    while (anc > 0) {
      const TrieNode& a = trie.nodes[static_cast<uint32_t>(anc)];
      KOKO_CHECK_OK(t->AppendRow({static_cast<int64_t>(id), label,
                                  static_cast<int64_t>(trie.nodes[id].depth),
                                  static_cast<int64_t>(anc),
                                  trie.labels.Lookup(a.label),
                                  static_cast<int64_t>(a.depth)}));
      anc = a.parent;
    }
  }
  KOKO_CHECK_OK(t->CreateIndex(table_name + "_label", {"label"}));
}

Status KokoIndex::RebuildEntityCache() {
  all_entities_.clear();
  all_entities_.reserve(e_->NumRows());
  for (uint32_t row = 0; row < e_->NumRows(); ++row) {
    EntityPosting p;
    p.sid = static_cast<uint32_t>(e_->GetInt(row, kESid));
    p.left = static_cast<uint32_t>(e_->GetInt(row, kELeft));
    p.right = static_cast<uint32_t>(e_->GetInt(row, kERight));
    const int64_t type = e_->GetInt(row, kEType);
    // Catalog values may come from a corrupt image; an out-of-range type
    // would index past the per-type bucket arrays.
    if (type < 0 || type >= kNumEntityTypes) {
      return Status::ParseError("E table entity type out of range");
    }
    p.type = static_cast<EntityType>(type);
    // The entity sid lists are built from this order, which must be the
    // sid-sorted order Build writes.
    if (!all_entities_.empty() && p.sid < all_entities_.back().sid) {
      return Status::ParseError("E table rows not in sid order");
    }
    all_entities_.push_back(p);
  }
  return Status::OK();
}

void KokoIndex::RebuildSidCaches() {
  // Per-word sid lists. W rows are appended sentence by sentence, so the
  // sid stream seen by each word is non-decreasing.
  std::unordered_map<std::string, BlockListBuilder> words;
  for (uint32_t row = 0; row < w_->NumRows(); ++row) {
    words[w_->GetString(row, kWWord)].Append(
        static_cast<uint32_t>(w_->GetInt(row, kWSid)));
  }
  word_sids_.clear();
  word_sids_.reserve(words.size());
  for (auto& [word, builder] : words) word_sids_.emplace(word, builder.Finish());

  // Per-trie-node sid lists: project each node's W-row list (row ids are
  // ascending, hence sid-sorted) onto the sid column once.
  for (Trie* trie : {&pl_trie_, &pos_trie_}) {
    for (TrieNode& node : trie->nodes) {
      BlockListBuilder builder;
      for (uint32_t row : node.rows) {
        builder.Append(static_cast<uint32_t>(w_->GetInt(row, kWSid)));
      }
      node.sids = builder.Finish();
    }
  }

  RebuildEntitySidCaches();
}

void KokoIndex::RebuildEntitySidCaches() {
  // Per-type entity buckets + sid lists. all_entities_ is in E-row order,
  // which is sid-sorted.
  std::array<BlockListBuilder, kNumEntityTypes> by_type;
  BlockListBuilder all;
  for (auto& bucket : entities_by_type_) bucket.clear();
  for (const EntityPosting& p : all_entities_) {
    entities_by_type_[static_cast<size_t>(p.type)].push_back(p);
    by_type[static_cast<size_t>(p.type)].Append(p.sid);
    all.Append(p.sid);
  }
  for (size_t t = 0; t < kNumEntityTypes; ++t) {
    entity_sids_by_type_[t] = by_type[t].Finish();
  }
  all_entity_sids_ = all.Finish();
}

// ---- Lookups ------------------------------------------------------------------

Quintuple KokoIndex::RowToQuintuple(uint32_t row) const {
  Quintuple q;
  q.sid = static_cast<uint32_t>(w_->GetInt(row, kWSid));
  q.tid = static_cast<uint32_t>(w_->GetInt(row, kWTid));
  q.left = static_cast<uint32_t>(w_->GetInt(row, kWLeft));
  q.right = static_cast<uint32_t>(w_->GetInt(row, kWRight));
  q.depth = static_cast<uint32_t>(w_->GetInt(row, kWDepth));
  return q;
}

uint32_t KokoIndex::RowSid(uint32_t row) const {
  return static_cast<uint32_t>(w_->GetInt(row, kWSid));
}

void KokoIndex::AppendRows(const std::vector<uint32_t>& rows,
                           const SidList* sid_filter, PostingList* out) const {
  if (sid_filter == nullptr) {
    for (uint32_t row : rows) out->push_back(RowToQuintuple(row));
    return;
  }
  const size_t n = rows.size();
  const size_t m = sid_filter->size();
  size_t r = 0;
  size_t f = 0;
  while (r < n) {
    const uint32_t sid = RowSid(rows[r]);
    f = GallopTo(sid_filter->data(), m, f, sid);
    if (f == m) return;
    const uint32_t want = (*sid_filter)[f];
    if (want == sid) {
      out->push_back(RowToQuintuple(rows[r]));
      ++r;
      continue;
    }
    // Gallop the rows to the first one at or past the filter's next sid.
    size_t lo = r;
    size_t step = 1;
    while (lo + step < n && RowSid(rows[lo + step]) < want) {
      lo += step;
      step *= 2;
    }
    const auto first = rows.begin() + static_cast<std::ptrdiff_t>(lo + 1);
    const auto last =
        rows.begin() + static_cast<std::ptrdiff_t>(std::min(n, lo + step));
    r = static_cast<size_t>(
        std::partition_point(first, last,
                             [&](uint32_t row) { return RowSid(row) < want; }) -
        rows.begin());
  }
}

PostingList KokoIndex::LookupWord(std::string_view token,
                                  const SidList* sid_filter) const {
  auto rows = w_->IndexLookup("w_word", {std::string(token)});
  KOKO_CHECK(rows.ok());
  PostingList out;
  out.reserve(sid_filter == nullptr ? rows->size() : 0);
  AppendRows(*rows, sid_filter, &out);
  std::sort(out.begin(), out.end());
  return out;
}

std::vector<EntityPosting> KokoIndex::LookupEntityText(std::string_view text) const {
  auto rows = e_->IndexLookup("e_entity", {std::string(text)});
  KOKO_CHECK(rows.ok());
  std::vector<EntityPosting> out;
  out.reserve(rows->size());
  for (uint32_t row : *rows) out.push_back(all_entities_[row]);
  return out;
}

const BlockList* KokoIndex::WordSids(std::string_view token) const {
  auto it = word_sids_.find(std::string(token));
  return it == word_sids_.end() ? nullptr : &it->second;
}

size_t KokoIndex::CountWordSids(std::string_view token) const {
  const BlockList* sids = WordSids(token);
  return sids == nullptr ? 0 : sids->CountSids();
}

void KokoIndex::AppendTrieRows(const Trie& trie,
                               const std::vector<uint32_t>& nodes,
                               const SidList* sid_filter,
                               PostingList* out) const {
  for (uint32_t node : nodes) {
    AppendRows(trie.nodes[node].rows, sid_filter, out);
  }
}

PostingList KokoIndex::LookupParseLabelPath(const PathQuery& path,
                                            const SidList* sid_filter) const {
  PostingList out;
  AppendTrieRows(pl_trie_, pl_trie_.Match(path, /*use_pos=*/false), sid_filter,
                 &out);
  std::sort(out.begin(), out.end());
  return out;
}

PostingList KokoIndex::LookupPosPath(const PathQuery& path,
                                     const SidList* sid_filter) const {
  PostingList out;
  AppendTrieRows(pos_trie_, pos_trie_.Match(path, /*use_pos=*/true), sid_filter,
                 &out);
  std::sort(out.begin(), out.end());
  return out;
}

SidList KokoIndex::TriePathSids(const Trie& trie, const PathQuery& path,
                                bool use_pos, const SidList* sid_filter) const {
  const std::vector<uint32_t> nodes = trie.Match(path, use_pos);
  if (sid_filter == nullptr) {
    std::vector<const BlockList*> lists;
    lists.reserve(nodes.size());
    for (uint32_t node : nodes) lists.push_back(&trie.nodes[node].sids);
    return UnionAllBlocks(lists);
  }
  // Intersect each node's stored list with the filter in place and merge
  // only the hits. A node whose sid span holds no filter sid is skipped
  // after one gallop, without touching its blocks.
  const SidList& filter = *sid_filter;
  std::vector<uint32_t> hits;
  for (uint32_t node : nodes) {
    const BlockList& sids = trie.nodes[node].sids;
    if (sids.empty()) continue;
    const size_t lo =
        GallopTo(filter.data(), filter.size(), 0, sids.skip_first()[0]);
    if (lo == filter.size() || filter[lo] > sids.last_sid()) continue;
    const SidList part = Intersect(filter, sids);
    hits.insert(hits.end(), part.begin(), part.end());
  }
  return SidList::FromUnsorted(std::move(hits));
}

SidList KokoIndex::PlPathSids(const PathQuery& path,
                              const SidList* sid_filter) const {
  return TriePathSids(pl_trie_, path, /*use_pos=*/false, sid_filter);
}

SidList KokoIndex::PosPathSids(const PathQuery& path,
                               const SidList* sid_filter) const {
  return TriePathSids(pos_trie_, path, /*use_pos=*/true, sid_filter);
}

size_t KokoIndex::EstimatePlPathSids(const PathQuery& path) const {
  size_t total = 0;
  for (uint32_t node : pl_trie_.Match(path, /*use_pos=*/false)) {
    total += pl_trie_.nodes[node].sids.size();
  }
  return total;
}

size_t KokoIndex::EstimatePosPathSids(const PathQuery& path) const {
  size_t total = 0;
  for (uint32_t node : pos_trie_.Match(path, /*use_pos=*/true)) {
    total += pos_trie_.nodes[node].sids.size();
  }
  return total;
}

size_t KokoIndex::CountPlPathNodes(const PathQuery& path) const {
  return pl_trie_.Match(path, /*use_pos=*/false).size();
}

size_t KokoIndex::CountPosPathNodes(const PathQuery& path) const {
  return pos_trie_.Match(path, /*use_pos=*/true).size();
}

size_t KokoIndex::MemoryUsage() const {
  size_t bytes = catalog_.MemoryUsage() + pl_trie_.MemoryUsage() +
                 pos_trie_.MemoryUsage() +
                 all_entities_.capacity() * sizeof(EntityPosting);
  for (const auto& [word, sids] : word_sids_) {
    bytes += word.capacity() + sids.MemoryUsage() + sizeof(BlockList);
  }
  for (const auto& bucket : entities_by_type_) {
    bytes += bucket.capacity() * sizeof(EntityPosting);
  }
  for (const auto& sids : entity_sids_by_type_) bytes += sids.MemoryUsage();
  bytes += all_entity_sids_.MemoryUsage();
  if (image_ != nullptr && !image_->mmapped()) bytes += image_span_.size();
  return bytes;
}

template <typename Fn>
void KokoIndex::ForEachSidList(Fn&& fn) const {
  fn(all_entity_sids_);
  for (const auto& [word, sids] : word_sids_) fn(sids);
  for (const Trie* trie : {&pl_trie_, &pos_trie_}) {
    for (const TrieNode& node : trie->nodes) fn(node.sids);
  }
  for (const auto& sids : entity_sids_by_type_) fn(sids);
}

size_t KokoIndex::SidCacheMemoryUsage() const {
  // A view into an owned (kCopy) image buffer occupies its encoded bytes
  // of that heap buffer; a view into an mmap occupies no heap at all.
  const bool owned_image = image_ != nullptr && !image_->mmapped();
  size_t bytes = 0;
  ForEachSidList([&](const BlockList& list) {
    bytes += owned_image && list.is_view()
                 ? list.bytes().size() + list.skip_first().raw_size() +
                       list.skip_offset().raw_size() +
                       list.skip_width().raw_size()
                 : list.MemoryUsage();
  });
  return bytes;
}

Status KokoIndex::CheckSidRange(uint32_t begin, uint32_t end) const {
  bool inside = true;
  ForEachSidList([&](const BlockList& list) {
    inside = inside && (list.empty() || (list.skip_first()[0] >= begin &&
                                         list.last_sid() < end));
  });
  if (inside) return Status::OK();
  return Status::ParseError("sid list outside the index's sid range [" +
                            std::to_string(begin) + ", " +
                            std::to_string(end) + ")");
}

size_t KokoIndex::SidCacheDecodedEquivalentBytes() const {
  size_t sids = 0;
  ForEachSidList([&](const BlockList& list) { sids += list.CountSids(); });
  return sids * sizeof(uint32_t);
}

// ---- Persistence ----------------------------------------------------------------
//
// File layout (version 4, the one supported version):
//   u32 magic "KIDX" | u32 version | catalog (tables W, E, PL, POS) |
//   word sid lists   | PL-trie node sid lists | POS-trie node sid lists
// Every sid list is stored in its packed block form — u32 count, the
// skip-first / skip-offset / skip-width tables, then the bit-packed block
// payloads behind an explicit alignment pad that puts them at a 4-byte
// file offset (mmap is page-aligned and the kCopy buffer is heap-aligned,
// so file alignment is memory alignment for the SIMD decode kernels).
// Load validates each list's structure and aliases it in place. See
// docs/INDEX_FORMAT.md.

namespace {
constexpr uint32_t kIndexMagic = 0x4b494458;  // "KIDX"
constexpr uint32_t kIndexVersion = 4;

void WriteU32Array(BinaryWriter* writer, const U32View& v) {
  writer->WriteU32(static_cast<uint32_t>(v.size()));
  writer->WriteBytes(v.raw(), v.raw_size());
}

// u32 count | skip_first | skip_offset | skip_width | u32 payload length |
// u8 pad count | pad zeros | payload. The pad puts the payload at a 4-byte
// absolute file offset (Position() is absolute even inside a sharded
// image — all shards stream through one writer). On a non-seekable sink
// the pad degrades to 0; the image stays valid, just unaligned (readers
// use unaligned-tolerant loads — alignment is a performance property).
// The lists are written through their borrowed views, so a loaded index
// re-saves byte-identically.
void WriteBlockList(BinaryWriter* writer, const BlockList& list) {
  writer->WriteU32(static_cast<uint32_t>(list.size()));
  WriteU32Array(writer, list.skip_first());
  WriteU32Array(writer, list.skip_offset());
  WriteU32Array(writer, list.skip_width());
  const MemorySpan payload = list.bytes();
  writer->WriteU32(static_cast<uint32_t>(payload.size()));
  const int64_t pos = writer->Position();
  const uint8_t pad =
      pos < 0 ? 0 : static_cast<uint8_t>((4 - ((pos + 1) % 4)) % 4);
  writer->WriteU8(pad);
  for (uint8_t i = 0; i < pad; ++i) writer->WriteU8(0);
  writer->WriteBytes(payload.data(), payload.size());
}

// Streams the catalog out of an image and releases the pages behind the
// read cursor as the parse moves on. The parsed tables own their data, so
// a mapped image's catalog bytes are never read again; releasing them
// keeps a load from holding the whole catalog resident next to its parsed
// copy (the catalog is most of an image).
class CatalogStreamBuf : public SpanStreamBuf {
 public:
  CatalogStreamBuf(const MappedFile* file, MemorySpan span)
      : SpanStreamBuf(span), file_(file), released_(eback()) {}

  void ReleaseConsumed() {
    if (gptr() <= released_) return;
    file_->Release(MemorySpan(reinterpret_cast<const uint8_t*>(released_),
                              static_cast<size_t>(gptr() - released_)));
    released_ = gptr();
  }

 protected:
  std::streamsize xsgetn(char* s, std::streamsize n) override {
    const std::streamsize got = SpanStreamBuf::xsgetn(s, n);
    if (gptr() - released_ >= kReleaseStride) ReleaseConsumed();
    return got;
  }

 private:
  static constexpr std::ptrdiff_t kReleaseStride = 64 << 10;
  const MappedFile* file_;
  char* released_;  // bytes before this are released
};

// Reads one list as views into the image (validated by FromMappedPacked,
// never copied).
Result<BlockList> ReadBlockList(SpanReader* reader) {
  KOKO_ASSIGN_OR_RETURN(uint32_t count, reader->ReadU32());
  KOKO_ASSIGN_OR_RETURN(U32View skip_first, reader->ReadU32Array());
  KOKO_ASSIGN_OR_RETURN(U32View skip_offset, reader->ReadU32Array());
  KOKO_ASSIGN_OR_RETURN(U32View skip_width, reader->ReadU32Array());
  KOKO_ASSIGN_OR_RETURN(uint32_t payload_len, reader->ReadU32());
  KOKO_ASSIGN_OR_RETURN(uint8_t pad, reader->ReadU8());
  if (pad > 3) {
    return Status::ParseError("packed block list: bad alignment pad length");
  }
  KOKO_ASSIGN_OR_RETURN(MemorySpan pad_bytes, reader->ReadRawSpan(pad));
  for (size_t i = 0; i < pad_bytes.size(); ++i) {
    if (pad_bytes.data()[i] != 0) {
      return Status::ParseError("packed block list: nonzero alignment pad");
    }
  }
  KOKO_ASSIGN_OR_RETURN(MemorySpan payload, reader->ReadRawSpan(payload_len));
  return BlockList::FromMappedPacked(count, skip_first, skip_offset, skip_width,
                                     payload);
}
}  // namespace

Status KokoIndex::Save(BinaryWriter* writer) const {
  writer->WriteU32(kIndexMagic);
  writer->WriteU32(kIndexVersion);
  KOKO_RETURN_IF_ERROR(catalog_.Serialize(writer));
  // Word sid lists, in sorted word order for deterministic images.
  std::vector<const std::pair<const std::string, BlockList>*> words;
  words.reserve(word_sids_.size());
  for (const auto& entry : word_sids_) words.push_back(&entry);
  std::sort(words.begin(), words.end(),
            [](const auto* a, const auto* b) { return a->first < b->first; });
  writer->WriteU32(static_cast<uint32_t>(words.size()));
  for (const auto* entry : words) {
    writer->WriteString(entry->first);
    WriteBlockList(writer, entry->second);
  }
  for (const Trie* trie : {&pl_trie_, &pos_trie_}) {
    writer->WriteU32(static_cast<uint32_t>(trie->nodes.size()));
    for (const TrieNode& node : trie->nodes) WriteBlockList(writer, node.sids);
  }
  if (!writer->ok()) return Status::IoError("index write failure");
  return Status::OK();
}

Status KokoIndex::Save(const std::string& path) const {
  std::ofstream out(path, std::ios::binary);
  if (!out) return Status::IoError("cannot open " + path + " for writing");
  BinaryWriter writer(&out);
  return Save(&writer);
}

Status KokoIndex::RebuildTrieFromClosure(const std::string& table_name, Trie* trie,
                                         int w_node_col) {
  const Table* t = catalog_.GetTable(table_name);
  if (t == nullptr) return Status::NotFound("closure table " + table_name);
  // Catalog values may come from a corrupt image: every id consumed below
  // is validated before it indexes anything (a bad image must fail load
  // cleanly, not read out of bounds).
  // Pass 1: create nodes (max id) and record parent/label/depth. Every
  // node contributes at least its self-pair row, so a valid max id never
  // exceeds the row count.
  int64_t max_id = 0;
  for (uint32_t row = 0; row < t->NumRows(); ++row) {
    int64_t id = t->GetInt(row, 0);
    if (id < 0 || id > static_cast<int64_t>(t->NumRows())) {
      return Status::ParseError("closure table " + table_name +
                                ": node id out of range");
    }
    max_id = std::max(max_id, id);
  }
  trie->nodes.clear();
  trie->nodes.resize(static_cast<size_t>(max_id) + 1);
  trie->nodes[0].parent = -1;
  for (uint32_t row = 0; row < t->NumRows(); ++row) {
    int64_t id = t->GetInt(row, 0);
    int64_t depth = t->GetInt(row, 2);
    int64_t aid = t->GetInt(row, 3);
    int64_t adepth = t->GetInt(row, 5);
    if (aid < 0 || aid > max_id) {
      return Status::ParseError("closure table " + table_name +
                                ": ancestor id out of range");
    }
    TrieNode& node = trie->nodes[static_cast<size_t>(id)];
    node.label = trie->labels.Intern(t->GetString(row, 1));
    node.depth = static_cast<uint32_t>(depth);
    if (adepth == depth) {
      // self-pair; parent derived from the depth-1 ancestor row.
      if (depth == 1) node.parent = 0;
    } else if (adepth == depth - 1) {
      node.parent = static_cast<int32_t>(aid);
    }
  }
  // Pass 2: children links.
  for (uint32_t id = 1; id < trie->nodes.size(); ++id) {
    TrieNode& node = trie->nodes[id];
    if (node.parent < 0) node.parent = 0;
    auto& kids = trie->nodes[static_cast<uint32_t>(node.parent)].children;
    auto it = std::lower_bound(kids.begin(), kids.end(), node.label,
                               [](const std::pair<Symbol, uint32_t>& a, Symbol l) {
                                 return a.first < l;
                               });
    kids.insert(it, {node.label, id});
  }
  // Pass 3: posting rows from W.
  for (uint32_t row = 0; row < w_->NumRows(); ++row) {
    int64_t node = w_->GetInt(row, static_cast<uint32_t>(w_node_col));
    if (node < 0 || node > max_id) {
      return Status::ParseError("W table references " + table_name +
                                " node out of range");
    }
    trie->nodes[static_cast<size_t>(node)].rows.push_back(row);
  }
  return Status::OK();
}

Status KokoIndex::InitFromCatalog() {
  w_ = catalog_.GetTable("W");
  e_ = catalog_.GetTable("E");
  if (w_ == nullptr || e_ == nullptr) {
    return Status::ParseError("catalog missing W/E tables");
  }
  // The lookup paths KOKO_CHECK these indexes; a corrupt image that lost
  // them must fail load, not crash the first query.
  if (!w_->HasIndex("w_word") || !e_->HasIndex("e_entity")) {
    return Status::ParseError("catalog missing w_word/e_entity indexes");
  }
  KOKO_RETURN_IF_ERROR(RebuildTrieFromClosure("PL", &pl_trie_, kWPlid));
  KOKO_RETURN_IF_ERROR(RebuildTrieFromClosure("POS", &pos_trie_, kWPosid));
  KOKO_RETURN_IF_ERROR(RebuildEntityCache());
  stats_.num_tokens = w_->NumRows();
  stats_.num_entities = e_->NumRows();
  stats_.pl_trie_nodes = pl_trie_.nodes.size() - 1;
  stats_.pos_trie_nodes = pos_trie_.nodes.size() - 1;
  return Status::OK();
}

Status KokoIndex::LoadSidCacheSections(SpanReader* reader) {
  KOKO_ASSIGN_OR_RETURN(uint32_t num_words, reader->ReadU32());
  word_sids_.clear();
  // reserve() is an optimization, so cap it: a corrupt word count must
  // fail at the first (remaining-bytes-bounded) read below, not allocate
  // gigabytes of hash buckets first.
  word_sids_.reserve(std::min<uint32_t>(num_words, 1u << 20));
  for (uint32_t i = 0; i < num_words; ++i) {
    KOKO_ASSIGN_OR_RETURN(std::string word, reader->ReadString());
    KOKO_ASSIGN_OR_RETURN(BlockList sids, ReadBlockList(reader));
    word_sids_.emplace(std::move(word), std::move(sids));
  }
  for (Trie* trie : {&pl_trie_, &pos_trie_}) {
    KOKO_ASSIGN_OR_RETURN(uint32_t num_nodes, reader->ReadU32());
    if (num_nodes != trie->nodes.size()) {
      return Status::ParseError("trie sid-cache section has wrong node count");
    }
    for (TrieNode& node : trie->nodes) {
      KOKO_ASSIGN_OR_RETURN(node.sids, ReadBlockList(reader));
    }
  }
  RebuildEntitySidCaches();
  // The image stores no sentence count. Build counts the sentences with at
  // least one token, and each such sentence's root token sits on a depth-1
  // PL-trie node, so the union of those nodes' sid lists recovers it.
  std::vector<const BlockList*> roots;
  for (const auto& [label, child] : pl_trie_.nodes[0].children) {
    roots.push_back(&pl_trie_.nodes[child].sids);
  }
  stats_.num_sentences = UnionAllBlocks(roots).size();
  return Status::OK();
}

Result<std::unique_ptr<KokoIndex>> KokoIndex::LoadMapped(
    std::shared_ptr<MappedFile> file, MemorySpan span) {
  // The catalog (tables, B-tree definitions) is inherently owned data and
  // parses through the stream reader — directly over the image, no
  // intermediate buffer, releasing the parsed pages as it goes. Only the
  // posting sections are aliased.
  CatalogStreamBuf stream_buf(file.get(), span);
  std::istream in(&stream_buf);
  BinaryReader reader(&in);
  KOKO_ASSIGN_OR_RETURN(uint32_t magic, reader.ReadU32());
  if (magic != kIndexMagic) return Status::ParseError("bad index magic");
  KOKO_ASSIGN_OR_RETURN(uint32_t version, reader.ReadU32());
  if (version != kIndexVersion) {
    return Status::ParseError("unsupported index version " +
                              std::to_string(version) + " (only version " +
                              std::to_string(kIndexVersion) +
                              " is supported)");
  }
  auto index = std::unique_ptr<KokoIndex>(new KokoIndex());
  KOKO_RETURN_IF_ERROR(index->catalog_.Deserialize(&reader));
  KOKO_RETURN_IF_ERROR(index->InitFromCatalog());
  const std::streampos catalog_end = in.tellg();
  if (catalog_end == std::streampos(-1)) {
    return Status::IoError("cannot locate sid-cache section in image");
  }
  stream_buf.ReleaseConsumed();
  // Posting sections: validate structure, then alias skip tables and
  // block payloads straight into the image ("validate before alias" — a
  // corrupt image fails here, never at query time).
  SpanReader postings(span, static_cast<size_t>(catalog_end));
  KOKO_RETURN_IF_ERROR(index->LoadSidCacheSections(&postings));
  index->image_ = std::move(file);
  index->image_span_ = span;
  return index;
}

Result<std::shared_ptr<MappedFile>> OpenIndexFile(const std::string& path,
                                                  LoadMode mode) {
  if (mode == LoadMode::kMap) {
    auto mapped = MappedFile::Open(path);
    // An mmap that fails (unsupported platform/filesystem) falls back to
    // the kCopy buffer, so kMap never fails where kCopy would succeed.
    if (mapped.ok()) return mapped;
  }
  return MappedFile::Read(path);
}

Result<std::unique_ptr<KokoIndex>> KokoIndex::Load(const std::string& path,
                                                   LoadMode mode) {
  KOKO_ASSIGN_OR_RETURN(std::shared_ptr<MappedFile> file,
                        OpenIndexFile(path, mode));
  const MemorySpan span = file->span();
  return LoadMapped(std::move(file), span);
}

}  // namespace koko
