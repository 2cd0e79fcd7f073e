#include "storage/table.h"

#include "util/logging.h"

namespace koko {

Table::Table(std::string name, std::vector<ColumnSpec> schema)
    : name_(std::move(name)), schema_(std::move(schema)) {
  int_cols_.resize(schema_.size());
  str_cols_.resize(schema_.size());
}

Status Table::AppendRow(const std::vector<Cell>& cells) {
  if (cells.size() != schema_.size()) {
    return Status::InvalidArgument("row arity " + std::to_string(cells.size()) +
                                   " != schema arity " +
                                   std::to_string(schema_.size()) + " for table " +
                                   name_);
  }
  for (size_t i = 0; i < cells.size(); ++i) {
    bool is_int = std::holds_alternative<int64_t>(cells[i]);
    if (is_int != (schema_[i].type == ColumnType::kInt64)) {
      return Status::InvalidArgument("type mismatch in column " + schema_[i].name);
    }
  }
  for (size_t i = 0; i < cells.size(); ++i) {
    if (schema_[i].type == ColumnType::kInt64) {
      int_cols_[i].push_back(std::get<int64_t>(cells[i]));
    } else {
      str_cols_[i].push_back(std::get<std::string>(cells[i]));
    }
  }
  uint32_t row = static_cast<uint32_t>(num_rows_);
  ++num_rows_;
  for (auto& [_, index] : indexes_) IndexRow(index.get(), row);
  return Status::OK();
}

int64_t Table::GetInt(uint32_t row, uint32_t col) const {
  KOKO_CHECK(schema_[col].type == ColumnType::kInt64);
  return int_cols_[col][row];
}

const std::string& Table::GetString(uint32_t row, uint32_t col) const {
  KOKO_CHECK(schema_[col].type == ColumnType::kString);
  return str_cols_[col][row];
}

int Table::ColumnIndex(std::string_view column_name) const {
  for (size_t i = 0; i < schema_.size(); ++i) {
    if (schema_[i].name == column_name) return static_cast<int>(i);
  }
  return -1;
}

std::string Table::EncodeKey(const std::vector<Cell>& cells) {
  std::string key;
  for (const Cell& cell : cells) {
    if (std::holds_alternative<int64_t>(cell)) {
      // Big-endian with flipped sign bit: preserves numeric order under
      // lexicographic byte comparison.
      uint64_t bits = static_cast<uint64_t>(std::get<int64_t>(cell)) ^
                      (1ULL << 63);
      for (int shift = 56; shift >= 0; shift -= 8) {
        key.push_back(static_cast<char>((bits >> shift) & 0xff));
      }
    } else {
      key += std::get<std::string>(cell);
      key.push_back('\0');
    }
  }
  return key;
}

std::string Table::KeyForRow(const Index& index, uint32_t row) const {
  std::vector<Cell> cells;
  cells.reserve(index.columns.size());
  for (uint32_t col : index.columns) {
    if (schema_[col].type == ColumnType::kInt64) {
      cells.emplace_back(int_cols_[col][row]);
    } else {
      cells.emplace_back(str_cols_[col][row]);
    }
  }
  return EncodeKey(cells);
}

void Table::IndexRow(Index* index, uint32_t row) {
  index->tree.Insert(KeyForRow(*index, row), row);
}

Status Table::CreateIndex(const std::string& index_name,
                          const std::vector<std::string>& columns) {
  if (indexes_.count(index_name) > 0) {
    return Status::AlreadyExists("index " + index_name);
  }
  auto index = std::make_unique<Index>();
  for (const auto& c : columns) {
    int col = ColumnIndex(c);
    if (col < 0) return Status::NotFound("column " + c + " in table " + name_);
    index->columns.push_back(static_cast<uint32_t>(col));
  }
  for (uint32_t row = 0; row < num_rows_; ++row) IndexRow(index.get(), row);
  indexes_.emplace(index_name, std::move(index));
  return Status::OK();
}

Result<std::vector<uint32_t>> Table::IndexLookup(
    const std::string& index_name, const std::vector<Cell>& key_cells) const {
  auto it = indexes_.find(index_name);
  if (it == indexes_.end()) return Status::NotFound("index " + index_name);
  const std::vector<uint32_t>* rows = it->second->tree.Find(EncodeKey(key_cells));
  return rows == nullptr ? std::vector<uint32_t>{} : *rows;
}

Result<std::vector<uint32_t>> Table::IndexPrefixLookup(
    const std::string& index_name, const std::vector<Cell>& prefix_cells) const {
  auto it = indexes_.find(index_name);
  if (it == indexes_.end()) return Status::NotFound("index " + index_name);
  std::string lo = EncodeKey(prefix_cells);
  std::string hi = lo;
  hi.push_back('\xff');  // all keys extending lo sort within (lo, lo+0xff...)
  std::vector<uint32_t> out;
  it->second->tree.Scan(lo, hi,
                        [&](const std::string& key, const std::vector<uint32_t>& rows) {
                          if (key.compare(0, lo.size(), lo) != 0) return true;
                          out.insert(out.end(), rows.begin(), rows.end());
                          return true;
                        });
  return out;
}

size_t Table::MemoryUsage() const {
  size_t bytes = sizeof(Table);
  for (const auto& col : int_cols_) bytes += col.capacity() * sizeof(int64_t);
  for (const auto& col : str_cols_) {
    bytes += col.capacity() * sizeof(std::string);
    for (const auto& s : col) bytes += s.capacity();
  }
  for (const auto& [name, index] : indexes_) {
    bytes += name.size() + sizeof(Index);
    bytes += index->tree.MemoryUsage();
  }
  return bytes;
}

Table* Catalog::CreateTable(std::string name, std::vector<ColumnSpec> schema) {
  auto table = std::make_unique<Table>(name, std::move(schema));
  Table* ptr = table.get();
  tables_[name] = std::move(table);
  return ptr;
}

size_t Catalog::MemoryUsage() const {
  size_t bytes = 0;
  for (const auto& [_, table] : tables_) bytes += table->MemoryUsage();
  return bytes;
}

}  // namespace koko
