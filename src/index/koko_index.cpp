#include "index/koko_index.h"

#include <algorithm>
#include <cstring>
#include <map>
#include <optional>
#include <utility>

#include "util/logging.h"
#include "util/timer.h"

namespace koko {

namespace {

constexpr uint32_t kNoNode = static_cast<uint32_t>(-1);

// ---- Image layout -----------------------------------------------------------
//
// Format version 5, the one supported version (docs/INDEX_FORMAT.md):
//   u32 magic "KIDX" | u32 version | u32 num_sentences |
//   W columns: sid, tid, left, right, depth | E columns: sid, left, right,
//   type | word dictionary + one sid list per word | entity-text
//   dictionary | all-entity sid list + one sid list per entity type |
//   PL trie | POS trie
// Every item is a whole number of u32 words: arrays are u32-count-prefixed,
// byte blobs (dictionary keys, block payloads) are length-prefixed and
// zero-padded to 4 bytes. An image therefore starts every array at a 4-byte
// offset from its own start, and sharded files place images at 4-byte file
// offsets, so an mmap or owned buffer serves every array aligned. Load
// validates every section and then aliases it in place.

constexpr uint32_t kIndexMagic = 0x4b494458;  // "KIDX"
constexpr uint32_t kIndexVersion = 5;

// Assembles an image in memory, one u32 word at a time.
class ImageWriter {
 public:
  void U32(uint32_t v) { words_.push_back(v); }
  void Array(U32View v) {
    U32(static_cast<uint32_t>(v.size()));
    Raw(v.raw(), v.raw_size());
  }
  void Array(const std::vector<uint32_t>& v) { Array(U32View(v)); }
  void PaddedBytes(const void* data, size_t size) {
    U32(static_cast<uint32_t>(size));
    Raw(data, size);
  }
  // count | skip_first | skip_offset | skip_width | payload: a BlockList's
  // arrays verbatim, so loading aliases them.
  void List(const BlockList& list) {
    U32(static_cast<uint32_t>(list.size()));
    Array(list.skip_first());
    Array(list.skip_offset());
    Array(list.skip_width());
    PaddedBytes(list.bytes().data(), list.bytes().size());
  }
  std::vector<uint32_t> Take() { return std::move(words_); }

 private:
  void Raw(const void* data, size_t size) {
    const size_t at = words_.size();
    words_.resize(at + (size + 3) / 4, 0);
    if (size > 0) std::memcpy(words_.data() + at, data, size);
  }
  std::vector<uint32_t> words_;
};

// Key -> ascending row ids, in key order: a dictionary section in the
// making.
using RowsByKey = std::map<std::string, std::vector<uint32_t>>;

// key_offsets | keys | row_offsets | rows.
void WriteDictionary(const RowsByKey& entries, ImageWriter* out) {
  std::vector<uint32_t> key_offsets = {0};
  std::vector<uint32_t> row_offsets = {0};
  std::vector<uint32_t> rows;
  std::string keys;
  for (const auto& [key, key_rows] : entries) {
    keys += key;
    key_offsets.push_back(static_cast<uint32_t>(keys.size()));
    rows.insert(rows.end(), key_rows.begin(), key_rows.end());
    row_offsets.push_back(static_cast<uint32_t>(rows.size()));
  }
  out->Array(key_offsets);
  out->PaddedBytes(keys.data(), keys.size());
  out->Array(row_offsets);
  out->Array(rows);
}

// The sid list of ascending W rows.
BlockList SidsOfRows(const std::vector<uint32_t>& rows,
                     const std::vector<uint32_t>& w_sid) {
  BlockListBuilder builder;
  for (uint32_t row : rows) builder.Append(w_sid[row]);
  return builder.Finish();
}

// A hierarchy trie under construction: nodes in creation order, node 0 the
// dummy root.
struct TrieBuilder {
  std::vector<uint32_t> parent = {0};
  std::vector<uint32_t> label = {0};
  std::vector<uint32_t> depth = {0};
  std::vector<std::vector<uint32_t>> rows = {{}};
  std::map<std::pair<uint32_t, uint32_t>, uint32_t> child;  // (parent, label)

  uint32_t Child(uint32_t of, uint32_t with_label) {
    const auto [it, added] = child.try_emplace(
        {of, with_label}, static_cast<uint32_t>(parent.size()));
    if (added) {
      parent.push_back(of);
      label.push_back(with_label);
      depth.push_back(depth[of] + 1);
      rows.emplace_back();
    }
    return it->second;
  }

  // parent | label | depth | row_offsets | rows | one sid list per node.
  void Write(const std::vector<uint32_t>& w_sid, ImageWriter* out) const {
    std::vector<uint32_t> row_offsets = {0};
    std::vector<uint32_t> flat;
    for (const auto& node_rows : rows) {
      flat.insert(flat.end(), node_rows.begin(), node_rows.end());
      row_offsets.push_back(static_cast<uint32_t>(flat.size()));
    }
    out->Array(parent);
    out->Array(label);
    out->Array(depth);
    out->Array(row_offsets);
    out->Array(flat);
    for (const auto& node_rows : rows) out->List(SidsOfRows(node_rows, w_sid));
  }
};

// ---- Validation -------------------------------------------------------------

// Reads one list as views into the image (validated by FromMappedPacked,
// never copied).
Result<BlockList> ReadBlockList(SpanReader* reader) {
  KOKO_ASSIGN_OR_RETURN(uint32_t count, reader->ReadU32());
  KOKO_ASSIGN_OR_RETURN(U32View skip_first, reader->ReadU32Array());
  KOKO_ASSIGN_OR_RETURN(U32View skip_offset, reader->ReadU32Array());
  KOKO_ASSIGN_OR_RETURN(U32View skip_width, reader->ReadU32Array());
  KOKO_ASSIGN_OR_RETURN(MemorySpan payload, reader->ReadPaddedBytes());
  return BlockList::FromMappedPacked(count, skip_first, skip_offset, skip_width,
                                     payload);
}

Status Corrupt(const std::string& what) {
  return Status::ParseError("index image: " + what);
}

// Reads `columns.size()` arrays of one common length.
Status ReadColumns(SpanReader* reader, std::initializer_list<U32View*> columns,
                   const char* table) {
  for (U32View* column : columns) {
    KOKO_ASSIGN_OR_RETURN(*column, reader->ReadU32Array());
    if (column->size() != (*columns.begin())->size()) {
      return Corrupt(std::string(table) + " columns differ in length");
    }
  }
  return Status::OK();
}

Status CheckSidOrder(U32View sids, const char* table) {
  for (size_t i = 1; i < sids.size(); ++i) {
    if (sids[i] < sids[i - 1]) {
      return Corrupt(std::string(table) + " rows not in sid order");
    }
  }
  return Status::OK();
}

// A CSR offset array over a column of `column_size` entries: starts at 0,
// never decreases, ends at the column's end.
Status CheckOffsets(U32View offsets, size_t column_size, const char* what) {
  if (offsets.empty() || offsets[0] != 0) {
    return Corrupt(std::string(what) + " offsets do not start at 0");
  }
  for (size_t i = 1; i < offsets.size(); ++i) {
    if (offsets[i] < offsets[i - 1]) {
      return Corrupt(std::string(what) + " offsets decrease");
    }
  }
  if (offsets[offsets.size() - 1] != column_size) {
    return Corrupt(std::string(what) + " offsets do not end at the column end");
  }
  return Status::OK();
}

// Every CSR slice of `rows` strictly ascending and below `num_rows`.
Status CheckRowLists(U32View offsets, U32View rows, size_t num_rows,
                     const char* what) {
  for (size_t i = 0; i + 1 < offsets.size(); ++i) {
    for (size_t j = offsets[i]; j < offsets[i + 1]; ++j) {
      if (rows[j] >= num_rows) {
        return Corrupt(std::string(what) + " row id out of range");
      }
      if (j > offsets[i] && rows[j] <= rows[j - 1]) {
        return Corrupt(std::string(what) + " row list not ascending");
      }
    }
  }
  return Status::OK();
}

}  // namespace

// ---- Dictionary / Trie ------------------------------------------------------

std::string_view KokoIndex::Dictionary::Key(size_t i) const {
  return std::string_view(reinterpret_cast<const char*>(keys.data()) +
                              key_offsets[i],
                          key_offsets[i + 1] - key_offsets[i]);
}

size_t KokoIndex::Dictionary::Find(std::string_view key) const {
  size_t lo = 0;
  size_t hi = size();
  while (lo < hi) {
    const size_t mid = lo + (hi - lo) / 2;
    if (Key(mid) < key) {
      lo = mid + 1;
    } else {
      hi = mid;
    }
  }
  return lo < size() && Key(lo) == key ? lo : size();
}

uint32_t KokoIndex::Trie::FindChild(uint32_t node, uint32_t want) const {
  const std::span<const uint32_t> kids = Children(node);
  const auto it = std::lower_bound(
      kids.begin(), kids.end(), want,
      [&](uint32_t c, uint32_t l) { return label[c] < l; });
  return it != kids.end() && label[*it] == want ? *it : kNoNode;
}

std::vector<uint32_t> KokoIndex::Trie::Match(const PathQuery& path,
                                             bool use_pos) const {
  std::vector<uint32_t> current = {0};  // dummy root
  std::vector<char> seen;
  for (const PathStep& step : path.steps) {
    // The step's label id for this trie; unconstrained -> wildcard.
    std::optional<uint32_t> want;
    if (use_pos && step.constraint.pos.has_value()) {
      want = static_cast<uint32_t>(*step.constraint.pos);
    } else if (!use_pos && step.constraint.dep.has_value()) {
      want = static_cast<uint32_t>(*step.constraint.dep);
    }
    std::vector<uint32_t> next;
    seen.assign(size(), 0);
    auto add = [&](uint32_t id) {
      if (!seen[id]) {
        seen[id] = 1;
        next.push_back(id);
      }
    };
    for (uint32_t node : current) {
      if (step.axis == PathStep::Axis::kChild) {
        if (!want.has_value()) {
          for (uint32_t child : Children(node)) add(child);
        } else if (const uint32_t child = FindChild(node, *want);
                   child != kNoNode) {
          add(child);
        }
        continue;
      }
      // Descendant axis: DFS below `node`.
      const std::span<const uint32_t> kids = Children(node);
      std::vector<uint32_t> stack(kids.begin(), kids.end());
      while (!stack.empty()) {
        const uint32_t t = stack.back();
        stack.pop_back();
        if (!want.has_value() || label[t] == *want) add(t);
        const std::span<const uint32_t> below = Children(t);
        stack.insert(stack.end(), below.begin(), below.end());
      }
    }
    current = std::move(next);
    if (current.empty()) return {};
  }
  std::sort(current.begin(), current.end());
  return current;
}

size_t KokoIndex::Trie::MemoryUsage() const {
  return sids.capacity() * sizeof(BlockList) +
         (child_offsets.capacity() + children.capacity()) * sizeof(uint32_t);
}

// ---- Build ------------------------------------------------------------------

std::unique_ptr<KokoIndex> KokoIndex::Build(const AnnotatedCorpus& corpus) {
  return Build(corpus, 0, static_cast<uint32_t>(corpus.NumSentences()));
}

std::unique_ptr<KokoIndex> KokoIndex::Build(const AnnotatedCorpus& corpus,
                                            uint32_t sid_begin,
                                            uint32_t sid_end) {
  WallTimer timer;
  std::vector<uint32_t> w_sid, w_tid, w_left, w_right, w_depth;
  std::vector<uint32_t> e_sid, e_left, e_right, e_type;
  RowsByKey word_rows;
  RowsByKey text_rows;
  TrieBuilder pl;
  TrieBuilder pos;
  uint32_t num_sentences = 0;

  for (uint32_t sid = sid_begin; sid < sid_end; ++sid) {
    const Sentence& s = corpus.sentence(sid);
    const int n = s.size();
    if (n == 0) continue;
    ++num_sentences;

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
      const int head = s.tokens[t].head;
      pl_node[t] = pl.Child(head < 0 ? 0 : pl_node[head],
                            static_cast<uint32_t>(s.tokens[t].label));
      pos_node[t] = pos.Child(head < 0 ? 0 : pos_node[head],
                              static_cast<uint32_t>(s.tokens[t].pos));
    }

    for (int t = 0; t < n; ++t) {
      const auto row = static_cast<uint32_t>(w_sid.size());
      w_sid.push_back(sid);
      w_tid.push_back(static_cast<uint32_t>(t));
      w_left.push_back(static_cast<uint32_t>(s.subtree_left[t]));
      w_right.push_back(static_cast<uint32_t>(s.subtree_right[t]));
      w_depth.push_back(static_cast<uint32_t>(s.depth[t]));
      word_rows[s.tokens[t].text].push_back(row);
      pl.rows[pl_node[t]].push_back(row);
      pos.rows[pos_node[t]].push_back(row);
    }

    for (const Entity& ent : s.entities) {
      text_rows[s.SpanText(ent.begin, ent.end)].push_back(
          static_cast<uint32_t>(e_sid.size()));
      e_sid.push_back(sid);
      e_left.push_back(static_cast<uint32_t>(ent.begin));
      e_right.push_back(static_cast<uint32_t>(ent.end));
      e_type.push_back(static_cast<uint32_t>(ent.type));
    }
  }

  ImageWriter out;
  out.U32(kIndexMagic);
  out.U32(kIndexVersion);
  out.U32(num_sentences);
  for (const auto* column : {&w_sid, &w_tid, &w_left, &w_right, &w_depth}) {
    out.Array(*column);
  }
  for (const auto* column : {&e_sid, &e_left, &e_right, &e_type}) {
    out.Array(*column);
  }
  WriteDictionary(word_rows, &out);
  for (const auto& [word, rows] : word_rows) out.List(SidsOfRows(rows, w_sid));
  WriteDictionary(text_rows, &out);
  std::array<BlockListBuilder, kNumEntityTypes> by_type;
  BlockListBuilder all;
  for (size_t row = 0; row < e_sid.size(); ++row) {
    by_type[e_type[row]].Append(e_sid[row]);
    all.Append(e_sid[row]);
  }
  out.List(all.Finish());
  for (BlockListBuilder& builder : by_type) out.List(builder.Finish());
  pl.Write(w_sid, &out);
  pos.Write(w_sid, &out);

  // A built index is its image, exactly as a loaded one is.
  std::shared_ptr<MappedFile> image = MappedFile::FromWords(out.Take());
  const MemorySpan span = image->span();
  auto index = LoadMapped(std::move(image), span);
  KOKO_CHECK_OK(index.status());
  (*index)->stats_.build_seconds = timer.ElapsedSeconds();
  return std::move(*index);
}

// ---- Lookups ----------------------------------------------------------------

Quintuple KokoIndex::RowToQuintuple(uint32_t row) const {
  Quintuple q;
  q.sid = w_sid_[row];
  q.tid = w_tid_[row];
  q.left = w_left_[row];
  q.right = w_right_[row];
  q.depth = w_depth_[row];
  return q;
}

void KokoIndex::AppendRows(U32View rows, const SidList* sid_filter,
                           PostingList* out) const {
  const size_t n = rows.size();
  if (sid_filter == nullptr) {
    for (size_t r = 0; r < n; ++r) out->push_back(RowToQuintuple(rows[r]));
    return;
  }
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
    // Gallop the rows to the first one at or past the filter's next sid:
    // it lies in (lo, min(n, lo + step)].
    size_t lo = r;
    size_t step = 1;
    while (lo + step < n && RowSid(rows[lo + step]) < want) {
      lo += step;
      step *= 2;
    }
    size_t first = lo + 1;
    size_t last = std::min(n, lo + step);
    while (first < last) {
      const size_t mid = first + (last - first) / 2;
      if (RowSid(rows[mid]) < want) {
        first = mid + 1;
      } else {
        last = mid;
      }
    }
    r = first;
  }
}

PostingList KokoIndex::LookupWord(std::string_view token,
                                  const SidList* sid_filter) const {
  PostingList out;
  const size_t word = words_.Find(token);
  if (word == words_.size()) return out;
  const U32View rows = words_.Rows(word);
  out.reserve(sid_filter == nullptr ? rows.size() : 0);
  AppendRows(rows, sid_filter, &out);
  std::sort(out.begin(), out.end());
  return out;
}

std::vector<EntityPosting> KokoIndex::LookupEntityText(std::string_view text) const {
  std::vector<EntityPosting> out;
  const size_t entry = entity_texts_.Find(text);
  if (entry == entity_texts_.size()) return out;
  const U32View rows = entity_texts_.Rows(entry);
  out.reserve(rows.size());
  for (size_t i = 0; i < rows.size(); ++i) {
    const uint32_t row = rows[i];
    out.push_back({e_sid_[row], e_left_[row], e_right_[row],
                   static_cast<EntityType>(e_type_[row])});
  }
  return out;
}

std::vector<EntityPosting> KokoIndex::AllEntities() const {
  std::vector<EntityPosting> out;
  out.reserve(e_sid_.size());
  for (size_t row = 0; row < e_sid_.size(); ++row) {
    out.push_back({e_sid_[row], e_left_[row], e_right_[row],
                   static_cast<EntityType>(e_type_[row])});
  }
  return out;
}

const BlockList* KokoIndex::WordSids(std::string_view token) const {
  const size_t word = words_.Find(token);
  return word == words_.size() ? nullptr : &word_sids_[word];
}

size_t KokoIndex::CountWordSids(std::string_view token) const {
  const BlockList* sids = WordSids(token);
  return sids == nullptr ? 0 : sids->CountSids();
}

PostingList KokoIndex::TrieRows(const Trie& trie, const PathQuery& path,
                                bool use_pos, const SidList* sid_filter) const {
  PostingList out;
  for (uint32_t node : trie.Match(path, use_pos)) {
    AppendRows(trie.Rows(node), sid_filter, &out);
  }
  std::sort(out.begin(), out.end());
  return out;
}

PostingList KokoIndex::LookupParseLabelPath(const PathQuery& path,
                                            const SidList* sid_filter) const {
  return TrieRows(pl_trie_, path, /*use_pos=*/false, sid_filter);
}

PostingList KokoIndex::LookupPosPath(const PathQuery& path,
                                     const SidList* sid_filter) const {
  return TrieRows(pos_trie_, path, /*use_pos=*/true, sid_filter);
}

SidList KokoIndex::TriePathSids(const Trie& trie, const PathQuery& path,
                                bool use_pos, const SidList* sid_filter) const {
  const std::vector<uint32_t> nodes = trie.Match(path, use_pos);
  if (sid_filter == nullptr) {
    std::vector<const BlockList*> lists;
    lists.reserve(nodes.size());
    for (uint32_t node : nodes) lists.push_back(&trie.sids[node]);
    return UnionAllBlocks(lists);
  }
  // Intersect each node's stored list with the filter in place and merge
  // only the hits. A node whose sid span holds no filter sid is skipped
  // after one gallop, without touching its blocks.
  const SidList& filter = *sid_filter;
  std::vector<uint32_t> hits;
  for (uint32_t node : nodes) {
    const BlockList& sids = trie.sids[node];
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
    total += pl_trie_.sids[node].size();
  }
  return total;
}

size_t KokoIndex::EstimatePosPathSids(const PathQuery& path) const {
  size_t total = 0;
  for (uint32_t node : pos_trie_.Match(path, /*use_pos=*/true)) {
    total += pos_trie_.sids[node].size();
  }
  return total;
}

size_t KokoIndex::MemoryUsage() const {
  size_t bytes = word_sids_.capacity() * sizeof(BlockList) +
                 pl_trie_.MemoryUsage() + pos_trie_.MemoryUsage();
  if (image_ != nullptr && !image_->mmapped()) bytes += image_span_.size();
  return bytes;
}

template <typename Fn>
void KokoIndex::ForEachSidList(Fn&& fn) const {
  fn(all_entity_sids_);
  for (const BlockList& sids : word_sids_) fn(sids);
  for (const Trie* trie : {&pl_trie_, &pos_trie_}) {
    for (const BlockList& sids : trie->sids) fn(sids);
  }
  for (const BlockList& sids : entity_sids_by_type_) fn(sids);
}

size_t KokoIndex::SidCacheMemoryUsage() const {
  // A view into an owned image buffer occupies its encoded bytes of that
  // heap buffer; a view into an mmap occupies no heap at all.
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
  auto column_inside = [&](U32View sids) {
    return sids.empty() || (sids[0] >= begin && sids[sids.size() - 1] < end);
  };
  bool inside = column_inside(w_sid_) && column_inside(e_sid_);
  ForEachSidList([&](const BlockList& list) {
    inside = inside && (list.empty() || (list.skip_first()[0] >= begin &&
                                         list.last_sid() < end));
  });
  if (inside) return Status::OK();
  return Status::ParseError("sid outside the index's sid range [" +
                            std::to_string(begin) + ", " +
                            std::to_string(end) + ")");
}

size_t KokoIndex::SidCacheDecodedEquivalentBytes() const {
  size_t sids = 0;
  ForEachSidList([&](const BlockList& list) { sids += list.CountSids(); });
  return sids * sizeof(uint32_t);
}

// ---- Persistence ------------------------------------------------------------

Status KokoIndex::Dictionary::Read(SpanReader* reader, size_t num_rows,
                                   const char* what) {
  KOKO_ASSIGN_OR_RETURN(key_offsets, reader->ReadU32Array());
  KOKO_ASSIGN_OR_RETURN(keys, reader->ReadPaddedBytes());
  KOKO_ASSIGN_OR_RETURN(row_offsets, reader->ReadU32Array());
  KOKO_ASSIGN_OR_RETURN(rows, reader->ReadU32Array());
  KOKO_RETURN_IF_ERROR(CheckOffsets(key_offsets, keys.size(), what));
  KOKO_RETURN_IF_ERROR(CheckOffsets(row_offsets, rows.size(), what));
  if (key_offsets.size() != row_offsets.size()) {
    return Corrupt(std::string(what) + " key and row offsets differ in length");
  }
  for (size_t i = 1; i < size(); ++i) {
    if (!(Key(i - 1) < Key(i))) {
      return Corrupt(std::string(what) + " keys not sorted");
    }
  }
  return CheckRowLists(row_offsets, rows, num_rows, what);
}

Status KokoIndex::Trie::Read(SpanReader* reader, size_t num_rows,
                             uint32_t num_labels) {
  KOKO_RETURN_IF_ERROR(ReadColumns(reader, {&parent, &label, &depth}, "trie"));
  KOKO_ASSIGN_OR_RETURN(row_offsets, reader->ReadU32Array());
  KOKO_ASSIGN_OR_RETURN(rows, reader->ReadU32Array());
  const size_t n = size();
  if (n == 0 || parent[0] != 0 || depth[0] != 0) {
    return Corrupt("trie without its root");
  }
  if (row_offsets.size() != n + 1) {
    return Corrupt("trie row offsets differ in length from its nodes");
  }
  KOKO_RETURN_IF_ERROR(CheckOffsets(row_offsets, rows.size(), "trie"));
  KOKO_RETURN_IF_ERROR(CheckRowLists(row_offsets, rows, num_rows, "trie"));
  // Children of each node, counted and placed by parent, then sorted by
  // label. A parent must precede its node, so the nodes form one tree.
  child_offsets.assign(n + 1, 0);
  for (uint32_t node = 1; node < n; ++node) {
    if (parent[node] >= node) return Corrupt("trie parent not below its node");
    if (label[node] >= num_labels) return Corrupt("trie label out of range");
    if (depth[node] != depth[parent[node]] + 1) {
      return Corrupt("trie depth not one below its parent's");
    }
    ++child_offsets[parent[node] + 1];
  }
  for (size_t node = 0; node < n; ++node) {
    child_offsets[node + 1] += child_offsets[node];
  }
  children.resize(n - 1);
  std::vector<uint32_t> fill(child_offsets.begin(), child_offsets.end() - 1);
  for (uint32_t node = 1; node < n; ++node) {
    children[fill[parent[node]]++] = node;
  }
  for (uint32_t node = 0; node < n; ++node) {
    const auto first = children.begin() + child_offsets[node];
    const auto last = children.begin() + child_offsets[node + 1];
    std::sort(first, last,
              [&](uint32_t a, uint32_t b) { return label[a] < label[b]; });
    if (std::adjacent_find(first, last, [&](uint32_t a, uint32_t b) {
          return label[a] == label[b];
        }) != last) {
      return Corrupt("trie node has two children with one label");
    }
  }
  sids.reserve(n);
  for (size_t node = 0; node < n; ++node) {
    KOKO_ASSIGN_OR_RETURN(BlockList list, ReadBlockList(reader));
    sids.push_back(std::move(list));
  }
  return Status::OK();
}

Result<std::unique_ptr<KokoIndex>> KokoIndex::LoadMapped(
    std::shared_ptr<MappedFile> file, MemorySpan span) {
  // Every section is validated before the index keeps a view of it
  // ("validate before alias"): a corrupt image fails here, never at query
  // time.
  SpanReader reader(span);
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
  KokoIndex& x = *index;
  KOKO_ASSIGN_OR_RETURN(uint32_t num_sentences, reader.ReadU32());

  KOKO_RETURN_IF_ERROR(ReadColumns(
      &reader, {&x.w_sid_, &x.w_tid_, &x.w_left_, &x.w_right_, &x.w_depth_},
      "W"));
  KOKO_RETURN_IF_ERROR(CheckSidOrder(x.w_sid_, "W"));
  const size_t num_w = x.w_sid_.size();
  // Every counted sentence has at least one token.
  if (num_sentences > num_w) return Corrupt("more sentences than W rows");
  KOKO_RETURN_IF_ERROR(ReadColumns(
      &reader, {&x.e_sid_, &x.e_left_, &x.e_right_, &x.e_type_}, "E"));
  KOKO_RETURN_IF_ERROR(CheckSidOrder(x.e_sid_, "E"));
  for (size_t row = 0; row < x.e_type_.size(); ++row) {
    if (x.e_type_[row] >= kNumEntityTypes) {
      return Corrupt("E entity type out of range");
    }
  }

  KOKO_RETURN_IF_ERROR(x.words_.Read(&reader, num_w, "word dictionary"));
  x.word_sids_.reserve(x.words_.size());
  for (size_t i = 0; i < x.words_.size(); ++i) {
    KOKO_ASSIGN_OR_RETURN(BlockList sids, ReadBlockList(&reader));
    x.word_sids_.push_back(std::move(sids));
  }
  KOKO_RETURN_IF_ERROR(
      x.entity_texts_.Read(&reader, x.e_sid_.size(), "entity-text dictionary"));
  KOKO_ASSIGN_OR_RETURN(x.all_entity_sids_, ReadBlockList(&reader));
  for (BlockList& sids : x.entity_sids_by_type_) {
    KOKO_ASSIGN_OR_RETURN(sids, ReadBlockList(&reader));
  }
  KOKO_RETURN_IF_ERROR(x.pl_trie_.Read(&reader, num_w, kNumDepLabels));
  KOKO_RETURN_IF_ERROR(x.pos_trie_.Read(&reader, num_w, kNumPosTags));
  if (reader.remaining() != 0) {
    return Corrupt("trailing bytes after the last section");
  }

  x.stats_.num_sentences = num_sentences;
  x.stats_.num_tokens = num_w;
  x.stats_.num_entities = x.e_sid_.size();
  x.stats_.pl_trie_nodes = x.pl_trie_.size() - 1;
  x.stats_.pos_trie_nodes = x.pos_trie_.size() - 1;
  x.image_ = std::move(file);
  x.image_span_ = span;
  return index;
}

}  // namespace koko
