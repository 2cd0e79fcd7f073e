#include "storage/doc_store.h"

#include <string_view>

#include "storage/serde.h"
#include "util/logging.h"

namespace koko {

std::string DocumentStore::SerializeDocument(const Document& doc) {
  std::string out;
  ByteWriter w(&out);
  w.WriteU32(doc.id);
  w.WriteString(doc.title);
  w.WriteU32(static_cast<uint32_t>(doc.sentences.size()));
  for (const Sentence& s : doc.sentences) {
    w.WriteU32(static_cast<uint32_t>(s.tokens.size()));
    for (const Token& t : s.tokens) {
      w.WriteString(t.text);
      w.WriteU8(static_cast<uint8_t>(t.pos));
      w.WriteU8(static_cast<uint8_t>(t.label));
      w.WriteI64(t.head);
      w.WriteU8(static_cast<uint8_t>(t.etype));
      w.WriteI64(t.entity_id);
    }
    w.WriteU32(static_cast<uint32_t>(s.entities.size()));
    for (const Entity& e : s.entities) {
      w.WriteI64(e.begin);
      w.WriteI64(e.end);
      w.WriteU8(static_cast<uint8_t>(e.type));
    }
  }
  return out;
}

namespace {

// The fixed-width bytes of a sentence (its token and entity counts), a
// token (text length, pos, label, head, etype, entity id) and an entity
// (begin, end, type): a count larger than the bytes left can hold is
// corrupt, so no resize ever trusts one.
constexpr size_t kSentenceBytes = 4 + 4;
constexpr size_t kTokenBytes = 4 + 1 + 1 + 8 + 1 + 8;
constexpr size_t kEntityBytes = 8 + 8 + 1;

Status Corrupt(const std::string& what) {
  return Status::ParseError("document blob: " + what);
}

// Reads an i64 that must lie in [lo, hi).
Result<int> ReadIndex(SpanReader* r, int64_t lo, int64_t hi, const char* what) {
  KOKO_ASSIGN_OR_RETURN(uint64_t bits, r->ReadU64());
  const auto v = static_cast<int64_t>(bits);
  if (v < lo || v >= hi) return Corrupt(std::string(what) + " out of range");
  return static_cast<int>(v);
}

// Reads a u8 enum value that must lie below `count`.
template <typename Enum>
Status ReadEnum(SpanReader* r, int count, const char* what, Enum* out) {
  KOKO_ASSIGN_OR_RETURN(uint8_t v, r->ReadU8());
  if (v >= count) return Corrupt(std::string(what) + " out of range");
  *out = static_cast<Enum>(v);
  return Status::OK();
}

// One root, every head in range, every token reachable from the root.
Status CheckTree(Sentence* s) {
  const int n = s->size();
  int roots = 0;
  for (const Token& t : s->tokens) roots += t.head < 0 ? 1 : 0;
  if (n > 0 && roots != 1) return Corrupt("sentence without exactly one root");
  s->ComputeTreeInfo();
  if (n == 0) return Status::OK();
  std::vector<int> reached = {s->root};
  for (size_t k = 0; k < reached.size(); ++k) {
    for (int child : s->children[reached[k]]) reached.push_back(child);
  }
  if (static_cast<int>(reached.size()) != n) {
    return Corrupt("dependency heads form a cycle");
  }
  return Status::OK();
}

}  // namespace

Result<Document> DocumentStore::DeserializeDocument(const std::string& blob) {
  SpanReader r(MemorySpan(reinterpret_cast<const uint8_t*>(blob.data()),
                          blob.size()));
  Document doc;
  KOKO_ASSIGN_OR_RETURN(doc.id, r.ReadU32());
  KOKO_ASSIGN_OR_RETURN(doc.title, r.ReadString());
  KOKO_ASSIGN_OR_RETURN(uint32_t num_sentences, r.ReadU32());
  if (num_sentences > r.remaining() / kSentenceBytes) {
    return Corrupt("sentence count exceeds the blob");
  }
  doc.sentences.resize(num_sentences);
  for (Sentence& s : doc.sentences) {
    KOKO_ASSIGN_OR_RETURN(uint32_t num_tokens, r.ReadU32());
    if (num_tokens > r.remaining() / kTokenBytes) {
      return Corrupt("token count exceeds the blob");
    }
    const int n = static_cast<int>(num_tokens);
    s.tokens.resize(num_tokens);
    std::vector<int64_t> entity_ids(num_tokens);
    for (size_t i = 0; i < s.tokens.size(); ++i) {
      Token& t = s.tokens[i];
      KOKO_ASSIGN_OR_RETURN(t.text, r.ReadString());
      KOKO_RETURN_IF_ERROR(ReadEnum(&r, kNumPosTags, "pos tag", &t.pos));
      KOKO_RETURN_IF_ERROR(ReadEnum(&r, kNumDepLabels, "dep label", &t.label));
      KOKO_ASSIGN_OR_RETURN(t.head, ReadIndex(&r, -1, n, "head"));
      KOKO_RETURN_IF_ERROR(
          ReadEnum(&r, kNumEntityTypes, "entity type", &t.etype));
      KOKO_ASSIGN_OR_RETURN(uint64_t eid, r.ReadU64());
      entity_ids[i] = static_cast<int64_t>(eid);
    }
    KOKO_ASSIGN_OR_RETURN(uint32_t num_entities, r.ReadU32());
    if (num_entities > r.remaining() / kEntityBytes) {
      return Corrupt("entity count exceeds the blob");
    }
    s.entities.resize(num_entities);
    for (Entity& e : s.entities) {
      KOKO_ASSIGN_OR_RETURN(e.begin, ReadIndex(&r, 0, n, "entity begin"));
      KOKO_ASSIGN_OR_RETURN(e.end, ReadIndex(&r, e.begin, n, "entity end"));
      KOKO_RETURN_IF_ERROR(
          ReadEnum(&r, kNumEntityTypes, "entity type", &e.type));
    }
    for (size_t i = 0; i < s.tokens.size(); ++i) {
      if (entity_ids[i] < -1 ||
          entity_ids[i] >= static_cast<int64_t>(num_entities)) {
        return Corrupt("token entity id out of range");
      }
      s.tokens[i].entity_id = static_cast<int>(entity_ids[i]);
    }
    KOKO_RETURN_IF_ERROR(CheckTree(&s));
  }
  if (r.remaining() != 0) {
    return Corrupt("trailing bytes after the last sentence");
  }
  return doc;
}

DocumentStore DocumentStore::FromCorpus(const AnnotatedCorpus& corpus) {
  DocumentStore store;
  store.blobs_.reserve(corpus.docs.size());
  for (const Document& doc : corpus.docs) {
    store.blobs_.push_back(SerializeDocument(doc));
  }
  return store;
}

Document DocumentStore::LoadDocument(uint32_t doc_id) const {
  KOKO_CHECK(doc_id < blobs_.size());
  auto doc = DeserializeDocument(blobs_[doc_id]);
  KOKO_CHECK(doc.ok());
  return std::move(*doc);
}

}  // namespace koko
