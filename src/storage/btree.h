#ifndef KOKO_STORAGE_BTREE_H_
#define KOKO_STORAGE_BTREE_H_

#include <algorithm>
#include <functional>
#include <memory>
#include <vector>


namespace koko {

/// \brief In-memory B+tree multimap.
///
/// The physical index structure behind every index scheme in this
/// repository (the paper creates B-tree indexes in PostgreSQL for each
/// scheme). Keys are kept sorted in fixed-fanout nodes; duplicate keys
/// share one leaf entry whose value list grows. Leaves are chained for
/// range scans.
///
/// Not thread-safe for concurrent mutation; concurrent reads are fine.
template <typename Key, typename Value>
class BPlusTree {
 public:
  static constexpr size_t kMaxKeys = 64;

  BPlusTree() : root_(std::make_unique<Node>(/*leaf=*/true)) {}

  BPlusTree(const BPlusTree&) = delete;
  BPlusTree& operator=(const BPlusTree&) = delete;
  BPlusTree(BPlusTree&&) = default;
  BPlusTree& operator=(BPlusTree&&) = default;

  /// Inserts (key, value); duplicate keys accumulate values in insertion
  /// order.
  void Insert(const Key& key, Value value) {
    InsertResult split = InsertInto(root_.get(), key, std::move(value));
    if (split.happened) {
      auto new_root = std::make_unique<Node>(/*leaf=*/false);
      new_root->keys.push_back(split.pivot);
      new_root->children.push_back(std::move(root_));
      new_root->children.push_back(std::move(split.right));
      root_ = std::move(new_root);
      ++depth_;
    }
    ++num_values_;
  }

  /// Values stored under `key` (nullptr when absent).
  const std::vector<Value>* Find(const Key& key) const {
    const Node* node = root_.get();
    while (!node->leaf) {
      size_t i = UpperBound(node->keys, key);
      node = node->children[i].get();
    }
    size_t i = LowerBound(node->keys, key);
    if (i < node->keys.size() && !(key < node->keys[i])) return &node->values[i];
    return nullptr;
  }

  bool Contains(const Key& key) const { return Find(key) != nullptr; }

  /// Visits all entries in key order.
  void ScanAll(
      const std::function<bool(const Key&, const std::vector<Value>&)>& fn) const {
    const Node* node = root_.get();
    while (!node->leaf) node = node->children[0].get();
    while (node != nullptr) {
      for (size_t i = 0; i < node->keys.size(); ++i) {
        if (!fn(node->keys[i], node->values[i])) return;
      }
      node = node->next;
    }
  }

  size_t NumValues() const { return num_values_; }
  size_t NumKeys() const { return CountKeys(root_.get()); }
  int depth() const { return depth_; }

  /// Approximate heap footprint in bytes (index-size accounting).
  size_t MemoryUsage() const { return MemoryOf(root_.get()); }

 private:
  struct Node {
    explicit Node(bool is_leaf) : leaf(is_leaf) {}
    bool leaf;
    std::vector<Key> keys;
    std::vector<std::unique_ptr<Node>> children;  // internal only
    std::vector<std::vector<Value>> values;       // leaf only
    Node* next = nullptr;                         // leaf chain
  };

  struct InsertResult {
    bool happened = false;
    Key pivot{};
    std::unique_ptr<Node> right;
  };

  static size_t LowerBound(const std::vector<Key>& keys, const Key& key) {
    return static_cast<size_t>(
        std::lower_bound(keys.begin(), keys.end(), key) - keys.begin());
  }
  static size_t UpperBound(const std::vector<Key>& keys, const Key& key) {
    return static_cast<size_t>(
        std::upper_bound(keys.begin(), keys.end(), key) - keys.begin());
  }

  InsertResult InsertInto(Node* node, const Key& key, Value value) {
    if (node->leaf) {
      size_t i = LowerBound(node->keys, key);
      if (i < node->keys.size() && !(key < node->keys[i])) {
        node->values[i].push_back(std::move(value));
        return {};
      }
      node->keys.insert(node->keys.begin() + static_cast<long>(i), key);
      node->values.insert(node->values.begin() + static_cast<long>(i),
                          std::vector<Value>{});
      node->values[i].push_back(std::move(value));
      if (node->keys.size() > kMaxKeys) return SplitLeaf(node);
      return {};
    }
    size_t i = UpperBound(node->keys, key);
    InsertResult child_split = InsertInto(node->children[i].get(), key,
                                          std::move(value));
    if (!child_split.happened) return {};
    node->keys.insert(node->keys.begin() + static_cast<long>(i), child_split.pivot);
    node->children.insert(node->children.begin() + static_cast<long>(i) + 1,
                          std::move(child_split.right));
    if (node->keys.size() > kMaxKeys) return SplitInternal(node);
    return {};
  }

  InsertResult SplitLeaf(Node* node) {
    auto right = std::make_unique<Node>(/*leaf=*/true);
    size_t mid = node->keys.size() / 2;
    right->keys.assign(node->keys.begin() + static_cast<long>(mid), node->keys.end());
    right->values.assign(std::make_move_iterator(node->values.begin() +
                                                 static_cast<long>(mid)),
                         std::make_move_iterator(node->values.end()));
    node->keys.resize(mid);
    node->values.resize(mid);
    right->next = node->next;
    node->next = right.get();
    InsertResult result;
    result.happened = true;
    result.pivot = right->keys.front();
    result.right = std::move(right);
    return result;
  }

  InsertResult SplitInternal(Node* node) {
    auto right = std::make_unique<Node>(/*leaf=*/false);
    size_t mid = node->keys.size() / 2;
    Key pivot = node->keys[mid];
    right->keys.assign(node->keys.begin() + static_cast<long>(mid) + 1,
                       node->keys.end());
    right->children.assign(
        std::make_move_iterator(node->children.begin() + static_cast<long>(mid) + 1),
        std::make_move_iterator(node->children.end()));
    node->keys.resize(mid);
    node->children.resize(mid + 1);
    InsertResult result;
    result.happened = true;
    result.pivot = pivot;
    result.right = std::move(right);
    return result;
  }

  size_t CountKeys(const Node* node) const {
    if (node->leaf) return node->keys.size();
    size_t total = 0;
    for (const auto& c : node->children) total += CountKeys(c.get());
    return total;
  }

  size_t MemoryOf(const Node* node) const {
    size_t bytes = sizeof(Node);
    bytes += node->keys.capacity() * sizeof(Key);
    if constexpr (std::is_same_v<Key, std::string>) {
      for (const auto& k : node->keys) bytes += k.capacity();
    }
    bytes += node->children.capacity() * sizeof(void*);
    bytes += node->values.capacity() * sizeof(std::vector<Value>);
    for (const auto& v : node->values) bytes += v.capacity() * sizeof(Value);
    for (const auto& c : node->children) bytes += MemoryOf(c.get());
    return bytes;
  }

  std::unique_ptr<Node> root_;
  size_t num_values_ = 0;
  int depth_ = 1;
};

}  // namespace koko

#endif  // KOKO_STORAGE_BTREE_H_
