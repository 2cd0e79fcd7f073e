#ifndef KOKO_STORAGE_DOC_STORE_H_
#define KOKO_STORAGE_DOC_STORE_H_

#include <string>
#include <vector>

#include "text/document.h"
#include "util/status.h"

namespace koko {

/// \brief Serialized store of parsed documents.
///
/// Plays the role of the paper's "parsed text stored in PostgreSQL": the
/// engine's LoadArticle phase fetches candidate articles from here, paying
/// a real deserialisation cost per article (Table 2 attributes >50% of
/// end-to-end time to this phase). Each document is one binary blob.
class DocumentStore {
 public:
  /// Serialises every document of a corpus.
  static DocumentStore FromCorpus(const AnnotatedCorpus& corpus);

  /// Deserialises document `doc_id`. Every blob was produced by
  /// FromCorpus, so this cannot fail.
  Document LoadDocument(uint32_t doc_id) const;

  size_t NumDocs() const { return blobs_.size(); }

  /// Standalone (de)serialisation helpers, also used in tests.
  /// DeserializeDocument fails with ParseError on a count beyond the
  /// blob, an out-of-range enum, head, entity span or entity id, heads
  /// that do not form one tree, or bytes after the last sentence.
  static std::string SerializeDocument(const Document& doc);
  static Result<Document> DeserializeDocument(const std::string& blob);

 private:
  std::vector<std::string> blobs_;
};

}  // namespace koko

#endif  // KOKO_STORAGE_DOC_STORE_H_
