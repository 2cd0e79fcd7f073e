#include "index/sharded_index.h"

#include <algorithm>
#include <atomic>
#include <exception>
#include <fstream>
#include <thread>
#include <vector>

#include "storage/serde.h"
#include "util/logging.h"
#include "util/timer.h"

namespace koko {

namespace {

// The manifest (version 2) records each shard image's byte length next to
// its sid range, so Load can hand every shard its extent of the file and
// load the shards in parallel.
constexpr uint32_t kShardedMagic = 0x4b534844;  // "KSHD"
constexpr uint32_t kShardedVersion = 2;

std::vector<ShardedKokoIndex::ShardRange> MakeRanges(
    const ShardedKokoIndex::Options& options, uint32_t num_sentences) {
  std::vector<ShardedKokoIndex::ShardRange> ranges;
  if (!options.boundaries.empty()) {
    KOKO_CHECK(options.boundaries.size() >= 2);
    KOKO_CHECK(options.boundaries.front() == 0);
    KOKO_CHECK(options.boundaries.back() == num_sentences);
    for (size_t i = 0; i + 1 < options.boundaries.size(); ++i) {
      KOKO_CHECK(options.boundaries[i] <= options.boundaries[i + 1]);
      ranges.push_back({options.boundaries[i], options.boundaries[i + 1]});
    }
    return ranges;
  }
  const size_t k = std::max<size_t>(options.num_shards, 1);
  for (size_t i = 0; i < k; ++i) {
    ranges.push_back(
        {static_cast<uint32_t>(i * num_sentences / k),
         static_cast<uint32_t>((i + 1) * num_sentences / k)});
  }
  return ranges;
}

// Runs `fn(i)` once for every shard i in [0, k) and returns when all have
// finished. `requested` threads draw shard ids from an atomic cursor, the
// caller among them; 0 means one per shard up to the hardware's threads,
// and never more than k. One thread is a plain loop on the caller. Each
// call writes only its own shard's slot, so results do not depend on
// which thread ran which shard. An exception from `fn` is rethrown on the
// caller after every thread has been joined.
template <typename Fn>
void ForEachShard(size_t k, size_t requested, const Fn& fn) {
  const size_t automatic =
      std::max<size_t>(std::thread::hardware_concurrency(), 1);
  const size_t workers = std::min(requested == 0 ? automatic : requested, k);
  std::atomic<size_t> cursor{0};
  std::vector<std::exception_ptr> errors(workers);
  auto drain = [&](size_t slot) {
    try {
      for (;;) {
        const size_t i = cursor.fetch_add(1, std::memory_order_relaxed);
        if (i >= k) return;
        fn(i);
      }
    } catch (...) {
      errors[slot] = std::current_exception();
    }
  };
  {
    std::vector<std::jthread> threads;  // joined on scope exit
    threads.reserve(workers);
    for (size_t t = 1; t < workers; ++t) threads.emplace_back(drain, t);
    drain(0);
  }
  for (const std::exception_ptr& error : errors) {
    if (error) std::rethrow_exception(error);
  }
}

// The bytes of an index file for `mode`: a read-only mapping (kMap, or
// an owned copy where mmap fails) or an owned copy (kCopy).
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

}  // namespace

std::unique_ptr<ShardedKokoIndex> ShardedKokoIndex::Build(
    const AnnotatedCorpus& corpus, const Options& options) {
  WallTimer timer;
  auto index = std::unique_ptr<ShardedKokoIndex>(new ShardedKokoIndex());
  index->ranges_ =
      MakeRanges(options, static_cast<uint32_t>(corpus.NumSentences()));
  const size_t k = index->ranges_.size();
  index->shards_.resize(k);

  ForEachShard(k, options.build_threads, [&](size_t i) {
    index->shards_[i] = KokoIndex::Build(corpus, index->ranges_[i].begin,
                                         index->ranges_[i].end);
  });
  index->build_seconds_ = timer.ElapsedSeconds();
  return index;
}

// ---- Introspection / persistence ---------------------------------------------

KokoIndex::Stats ShardedKokoIndex::stats() const {
  KokoIndex::Stats total;
  for (const auto& shard : shards_) {
    const KokoIndex::Stats& s = shard->stats();
    total.num_sentences += s.num_sentences;
    total.num_tokens += s.num_tokens;
    total.num_entities += s.num_entities;
    total.pl_trie_nodes += s.pl_trie_nodes;
    total.pos_trie_nodes += s.pos_trie_nodes;
  }
  total.build_seconds = build_seconds_;
  return total;
}

size_t ShardedKokoIndex::MemoryUsage() const {
  size_t bytes = ranges_.capacity() * sizeof(ShardRange);
  for (const auto& shard : shards_) bytes += shard->MemoryUsage();
  return bytes;
}

size_t ShardedKokoIndex::SidCacheMemoryUsage() const {
  size_t bytes = 0;
  for (const auto& shard : shards_) bytes += shard->SidCacheMemoryUsage();
  return bytes;
}

bool ShardedKokoIndex::mapped() const {
  if (shards_.empty()) return false;
  for (const auto& shard : shards_) {
    if (!shard->mapped()) return false;
  }
  return true;
}

Status ShardedKokoIndex::Save(const std::string& path) const {
  // The manifest (ranges + byte extents) precedes all images so Load can
  // fan out without a second pass over the file. Each extent is its
  // shard's image size, known before writing, so the images then go to
  // disk verbatim, never copied in memory.
  std::vector<uint8_t> manifest;
  ByteWriter writer(&manifest);
  writer.WriteU32(kShardedMagic);
  writer.WriteU32(kShardedVersion);
  writer.WriteU32(static_cast<uint32_t>(shards_.size()));
  for (size_t i = 0; i < shards_.size(); ++i) {
    writer.WriteU32(ranges_[i].begin);
    writer.WriteU32(ranges_[i].end);
    writer.WriteU64(shards_[i]->image().size());
  }
  std::ofstream out(path, std::ios::binary);
  if (!out) return Status::IoError("cannot open " + path + " for writing");
  auto write = [&out](MemorySpan bytes) {
    out.write(reinterpret_cast<const char*>(bytes.data()),
              static_cast<std::streamsize>(bytes.size()));
  };
  write(MemorySpan(manifest.data(), manifest.size()));
  for (const auto& shard : shards_) write(shard->image());
  out.close();
  if (!out) return Status::IoError("write failure on " + path);
  return Status::OK();
}

Result<std::unique_ptr<ShardedKokoIndex>> ShardedKokoIndex::Load(
    const std::string& path, const LoadOptions& options) {
  // One image for all shards; each shard validates and aliases its own
  // extent of it.
  KOKO_ASSIGN_OR_RETURN(std::shared_ptr<MappedFile> image,
                        OpenIndexFile(path, options.mode));

  SpanReader reader(image->span());
  KOKO_ASSIGN_OR_RETURN(uint32_t magic, reader.ReadU32());
  if (magic != kShardedMagic) return Status::ParseError("bad shard manifest magic");
  KOKO_ASSIGN_OR_RETURN(uint32_t version, reader.ReadU32());
  if (version != kShardedVersion) {
    return Status::ParseError("unsupported shard manifest version " +
                              std::to_string(version) + " (only version " +
                              std::to_string(kShardedVersion) +
                              " is supported)");
  }
  KOKO_ASSIGN_OR_RETURN(uint32_t k, reader.ReadU32());
  if (k == 0) return Status::ParseError("shard manifest holds no shard");
  auto index = std::unique_ptr<ShardedKokoIndex>(new ShardedKokoIndex());
  std::vector<uint64_t> extents;
  for (uint32_t i = 0; i < k; ++i) {
    KOKO_ASSIGN_OR_RETURN(uint32_t begin, reader.ReadU32());
    KOKO_ASSIGN_OR_RETURN(uint32_t end, reader.ReadU32());
    const uint32_t expected_begin = i == 0 ? 0 : index->ranges_.back().end;
    if (begin > end || begin != expected_begin) {
      return Status::ParseError(
          "shard manifest ranges not contiguous from sid 0");
    }
    index->ranges_.push_back({begin, end});
    KOKO_ASSIGN_OR_RETURN(uint64_t extent, reader.ReadU64());
    extents.push_back(extent);
  }

  // Each shard's extent, bounds-checked against the image.
  std::vector<MemorySpan> spans(k);
  size_t cursor = reader.offset();
  for (uint32_t i = 0; i < k; ++i) {
    if (extents[i] > image->size() - cursor) {
      return Status::ParseError("shard extent past end of file");
    }
    spans[i] = *image->span().Slice(cursor, static_cast<size_t>(extents[i]));
    cursor += static_cast<size_t>(extents[i]);
  }
  if (cursor != image->size()) {
    return Status::ParseError("bytes after the last shard image");
  }
  index->shards_.resize(k);

  // Shards load independently, each into its own slot, so the loaded
  // index is identical for any thread count. The file's shard count never
  // starts more threads than the hardware has.
  std::vector<Status> statuses(k, Status::OK());
  ForEachShard(k, options.num_threads, [&](size_t i) {
    auto shard = KokoIndex::LoadMapped(image, spans[i]);
    if (!shard.ok()) {
      statuses[i] = shard.status();
      return;
    }
    // A sid outside its shard's range would break the invariant that
    // per-shard answers concatenate into the global answer.
    statuses[i] = (*shard)->CheckSidRange(index->ranges_[i].begin,
                                          index->ranges_[i].end);
    index->shards_[i] = std::move(*shard);
  });
  for (uint32_t i = 0; i < k; ++i) {
    if (!statuses[i].ok()) return statuses[i];
  }
  return index;
}

}  // namespace koko
