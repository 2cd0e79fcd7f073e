#ifndef KOKO_STORAGE_TABLE_H_
#define KOKO_STORAGE_TABLE_H_

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <variant>
#include <vector>

#include "storage/btree.h"
#include "util/status.h"

namespace koko {

enum class ColumnType : uint8_t { kInt64 = 0, kString = 1 };

struct ColumnSpec {
  std::string name;
  ColumnType type;
};

/// A single cell value.
using Cell = std::variant<int64_t, std::string>;

/// \brief Columnar relational table with secondary B-tree indexes.
///
/// Plays the role of a PostgreSQL table for the baseline index schemes of
/// src/baseline/ (their P tables): lookups go through B+tree indexes over
/// order-preserving composite key encodings. KokoIndex keeps its W, E,
/// PL and POS tables as columns of its image instead (index/koko_index.h).
class Table {
 public:
  Table(std::string name, std::vector<ColumnSpec> schema);

  const std::string& name() const { return name_; }
  const std::vector<ColumnSpec>& schema() const { return schema_; }
  size_t NumRows() const { return num_rows_; }

  /// Appends a row; cells must match the schema arity and types.
  Status AppendRow(const std::vector<Cell>& cells);

  int64_t GetInt(uint32_t row, uint32_t col) const;
  const std::string& GetString(uint32_t row, uint32_t col) const;

  /// Column index by name, -1 if absent.
  int ColumnIndex(std::string_view column_name) const;

  /// Builds a B-tree index named `index_name` over `columns` (existing rows
  /// are indexed; subsequent appends maintain it).
  Status CreateIndex(const std::string& index_name,
                     const std::vector<std::string>& columns);

  /// Row ids whose indexed columns equal `key_cells`, via index
  /// `index_name`. Empty when no rows match.
  Result<std::vector<uint32_t>> IndexLookup(const std::string& index_name,
                                            const std::vector<Cell>& key_cells) const;

  /// Row ids whose composite key starts with `prefix_cells` (prefix scan).
  Result<std::vector<uint32_t>> IndexPrefixLookup(
      const std::string& index_name, const std::vector<Cell>& prefix_cells) const;

  /// Heap footprint of data plus all indexes, in bytes.
  size_t MemoryUsage() const;

  /// Order-preserving composite key encoding: int64 as big-endian with the
  /// sign bit flipped; strings terminated by 0x00 (values must not contain
  /// NUL, which holds for all text in this system).
  static std::string EncodeKey(const std::vector<Cell>& cells);

 private:
  struct Index {
    std::vector<uint32_t> columns;
    BPlusTree<std::string, uint32_t> tree;
  };

  void IndexRow(Index* index, uint32_t row);
  std::string KeyForRow(const Index& index, uint32_t row) const;

  std::string name_;
  std::vector<ColumnSpec> schema_;
  size_t num_rows_ = 0;
  // Column storage: parallel vectors, one entry per column position; the
  // unused representation stays empty.
  std::vector<std::vector<int64_t>> int_cols_;
  std::vector<std::vector<std::string>> str_cols_;
  std::map<std::string, std::unique_ptr<Index>> indexes_;
};

/// \brief Named-table catalog (the baselines' in-memory database).
class Catalog {
 public:
  /// Creates (replacing any existing) a table.
  Table* CreateTable(std::string name, std::vector<ColumnSpec> schema);

  size_t MemoryUsage() const;

 private:
  std::map<std::string, std::unique_ptr<Table>> tables_;
};

}  // namespace koko

#endif  // KOKO_STORAGE_TABLE_H_
