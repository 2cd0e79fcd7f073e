// Seeded randomized suites for the serving front end and the bytes it
// reads from disk (KOKO_FUZZ_SEED=<n> replays a specific seed, default 7 —
// the repo-wide fuzz convention):
//
//  1. Byte-level fuzz of every decoder on the shared SpanReader: the wire
//     request, header, rows, done and error payloads, the document blob
//     and the shard manifest. Random garbage and seeded flips,
//     truncations and extensions of valid encodings must decode to a clean
//     error or to a value whose re-encoding is byte-identical to the input
//     (the codecs are canonical — accepting a non-canonical byte string
//     would let two encodings of one value diverge later). Sanitizer jobs
//     turn any OOB into a failure here.
//  2. Batch-admission property: under randomized concurrent schedules with
//     duplicated fingerprints, every response served through the
//     BatchExecutor — leader or follower, coalesced or not — must be
//     byte-identical (RowDigest) to the unbatched execution of the same
//     request, across row caps (capped and uncapped runs must never
//     coalesce with each other; their fingerprints differ).
//  3. Deterministic coalescing: a leader held mid-execution accumulates
//     followers that share its exact result object; the group dissolves on
//     completion.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iterator>
#include <memory>
#include <optional>
#include <random>
#include <string>
#include <thread>
#include <vector>

#include "corpus/generators.h"
#include "index/sharded_index.h"
#include "koko/parser.h"
#include "net/frame.h"
#include "replay/fuzz.h"
#include "replay/workloads.h"
#include "serve/batcher.h"
#include "serve/query_service.h"
#include "storage/doc_store.h"

namespace koko {
namespace {

uint64_t FuzzSeed() {
  const char* env = std::getenv("KOKO_FUZZ_SEED");
  if (env != nullptr && *env != '\0') {
    return std::strtoull(env, nullptr, 10);
  }
  return 7;
}

// ---- 1. Decoder fuzz -------------------------------------------------------

// One seeded mutation of a valid encoding: flip 1-4 bytes, truncate, or
// append 1-8 garbage bytes.
template <typename Bytes>
void Mutate(std::mt19937_64& rng, Bytes* bytes) {
  using Byte = typename Bytes::value_type;
  switch (bytes->empty() ? 2 : rng() % 3) {
    case 0:  // flip 1-4 bytes
      for (uint64_t flips = 1 + rng() % 4; flips > 0; --flips) {
        (*bytes)[rng() % bytes->size()] ^= static_cast<Byte>(1 + rng() % 255);
      }
      break;
    case 1:  // truncate
      bytes->resize(rng() % bytes->size());
      break;
    case 2:  // append trailing garbage
      for (uint64_t extra = 1 + rng() % 8; extra > 0; --extra) {
        bytes->push_back(static_cast<Byte>(rng()));
      }
      break;
  }
}

TEST(NetFuzzTest, RequestDecoderSurvivesGarbageAndStaysCanonical) {
  const uint64_t seed = FuzzSeed();
  std::mt19937_64 rng(seed);
  const std::string trace = "seed=" + std::to_string(seed);

  for (int iter = 0; iter < 2000; ++iter) {
    std::vector<uint8_t> bytes;
    if (iter % 2 == 0) {
      // Pure garbage of random length.
      bytes.resize(rng() % 96);
      for (uint8_t& b : bytes) b = static_cast<uint8_t>(rng());
    } else {
      // A valid encoding, then mutated: flip bytes, truncate, or extend.
      net::NetRequest request;
      const size_t text_len = 1 + rng() % 40;
      request.query_text.reserve(text_len);
      for (size_t i = 0; i < text_len; ++i) {
        request.query_text.push_back(
            static_cast<char>('a' + static_cast<char>(rng() % 26)));
      }
      request.max_rows = rng() % 3 == 0 ? 0 : rng();
      request.streaming = rng() % 2 == 0;
      request.allow_batch = rng() % 2 == 0;
      bytes = EncodeRequest(request);
      Mutate(rng, &bytes);
    }
    auto decoded = net::DecodeRequest(bytes.data(), bytes.size());
    if (decoded.ok()) {
      EXPECT_EQ(net::EncodeRequest(*decoded), bytes)
          << trace << " iter=" << iter
          << ": decoder accepted a non-canonical request encoding";
    }
  }
}

TEST(NetFuzzTest, AllDecodersSurviveMutatedFrames) {
  const uint64_t seed = FuzzSeed();
  std::mt19937_64 rng(seed ^ 0xabcdef0123456789ull);

  // Seed corpus of valid payloads, one per frame kind.
  std::vector<ResultRow> rows(3);
  rows[0].doc = 1;
  rows[0].sid = 2;
  rows[0].values = {"v", "w"};
  rows[0].scores = {0.5};
  rows[2].values = {""};
  net::NetDone done;
  done.rows = 3;
  done.early_terminated = true;
  const std::vector<std::vector<uint8_t>> corpus = {
      net::EncodeHeaderPayload({"a", "b", "c"}),
      net::EncodeRowsPayload(rows, 0, rows.size()),
      net::EncodeDonePayload(done),
      net::EncodeErrorPayload(StatusCode::kUnavailable, "busy"),
  };
  for (int iter = 0; iter < 2000; ++iter) {
    std::vector<uint8_t> bytes = corpus[iter % corpus.size()];
    Mutate(rng, &bytes);
    // Decoded-or-rejected, never a crash; canonical when accepted.
    auto header = net::DecodeHeaderPayload(bytes.data(), bytes.size());
    if (header.ok()) {
      EXPECT_EQ(net::EncodeHeaderPayload(*header), bytes);
    }
    auto decoded_rows = net::DecodeRowsPayload(bytes.data(), bytes.size());
    if (decoded_rows.ok()) {
      EXPECT_EQ(net::EncodeRowsPayload(*decoded_rows, 0, decoded_rows->size()),
                bytes);
    }
    auto decoded_done = net::DecodeDonePayload(bytes.data(), bytes.size());
    if (decoded_done.ok()) {
      EXPECT_EQ(net::EncodeDonePayload(*decoded_done), bytes);
    }
    auto error = net::DecodeErrorPayload(bytes.data(), bytes.size());
    if (error.ok()) {
      EXPECT_EQ(net::EncodeErrorPayload(error->code, error->message), bytes);
    }
  }
}

AnnotatedCorpus SmallCorpus(uint64_t seed) {
  Pipeline pipeline;
  return pipeline.AnnotateCorpus(
      GenerateHappyMoments({.num_moments = 12, .seed = seed}));
}

TEST(NetFuzzTest, DocumentDecoderSurvivesMutatedBlobs) {
  const uint64_t seed = FuzzSeed();
  std::mt19937_64 rng(seed ^ 0x0dd5eed5ull);
  const AnnotatedCorpus corpus = SmallCorpus(seed);
  size_t rejected = 0;
  for (int iter = 0; iter < 2000; ++iter) {
    std::string blob = DocumentStore::SerializeDocument(
        corpus.docs[static_cast<size_t>(iter) % corpus.docs.size()]);
    Mutate(rng, &blob);
    // A value or a ParseError (truncations included), never a crash;
    // canonical when accepted.
    auto doc = DocumentStore::DeserializeDocument(blob);
    if (!doc.ok()) {
      EXPECT_EQ(doc.status().code(), StatusCode::kParseError)
          << "seed=" << seed << " iter=" << iter << ": "
          << doc.status().ToString();
      ++rejected;
      continue;
    }
    EXPECT_EQ(DocumentStore::SerializeDocument(*doc), blob)
        << "seed=" << seed << " iter=" << iter;
  }
  EXPECT_GT(rejected, 0u);
}

TEST(NetFuzzTest, ShardManifestSurvivesMutation) {
  // Mutates only the manifest (magic | version | count | per shard
  // begin, end, u64 extent) of a saved 3-shard file; the shard images
  // follow it unchanged, so a truncated or extended manifest shifts them.
  const uint64_t seed = FuzzSeed();
  std::mt19937_64 rng(seed ^ 0x3a41f357ull);
  const AnnotatedCorpus corpus = SmallCorpus(seed);
  const std::string path = ::testing::TempDir() + "/net_fuzz_manifest.idx";
  const std::string resaved = path + ".resaved";
  ASSERT_TRUE(ShardedKokoIndex::Build(corpus, 3)->Save(path).ok());
  auto read_file = [](const std::string& file) {
    std::ifstream in(file, std::ios::binary);
    return std::string(std::istreambuf_iterator<char>(in),
                       std::istreambuf_iterator<char>());
  };
  const std::string saved = read_file(path);
  const size_t manifest_bytes = 12 + 16 * 3;
  ASSERT_GT(saved.size(), manifest_bytes);
  size_t rejected = 0;
  for (int iter = 0; iter < 300; ++iter) {
    std::string manifest = saved.substr(0, manifest_bytes);
    Mutate(rng, &manifest);
    const std::string bytes = manifest + saved.substr(manifest_bytes);
    {
      std::ofstream out(path, std::ios::binary | std::ios::trunc);
      out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
    }
    for (LoadMode mode : {LoadMode::kCopy, LoadMode::kMap}) {
      ShardedKokoIndex::LoadOptions options;
      options.mode = mode;
      options.num_threads = 1;
      auto loaded = ShardedKokoIndex::Load(path, options);
      if (!loaded.ok()) {
        EXPECT_EQ(loaded.status().code(), StatusCode::kParseError)
            << "seed=" << seed << " iter=" << iter << ": "
            << loaded.status().ToString();
        ++rejected;
        continue;
      }
      // Re-saving reads every byte of every image the load aliased.
      ASSERT_TRUE((*loaded)->Save(resaved).ok());
      EXPECT_EQ(read_file(resaved), bytes)
          << "seed=" << seed << " iter=" << iter;
    }
  }
  EXPECT_GT(rejected, 0u);
  std::remove(path.c_str());
  std::remove(resaved.c_str());
}

// ---- 2. Batch-admission property -------------------------------------------

struct BatchWorld {
  Pipeline pipeline;
  EmbeddingModel embeddings;
  AnnotatedCorpus corpus;
  std::unique_ptr<ShardedKokoIndex> index;
  std::unique_ptr<Engine> engine;
  std::unique_ptr<QueryService> service;
  std::vector<replay::WorkloadQuery> queries;
};

std::unique_ptr<BatchWorld> MakeBatchWorld(uint64_t seed) {
  auto w = std::make_unique<BatchWorld>();
  auto docs = GenerateHappyMoments({.num_moments = 120, .seed = seed ^ 0x9e37});
  w->corpus = w->pipeline.AnnotateCorpus(docs);
  w->index = ShardedKokoIndex::Build(w->corpus, 3);
  w->engine = std::make_unique<Engine>(&w->corpus, w->index.get(),
                                       &w->embeddings, w->pipeline.recognizer());
  QueryService::Options options;
  options.max_inflight = 2;  // small, so concurrent leaders overlap
  w->service = std::make_unique<QueryService>(w->engine.get(), options, 3);
  replay::FuzzOptions fuzz;
  fuzz.count = 6;
  fuzz.seed = seed;
  w->queries = replay::GenerateFuzzQueries(w->corpus, fuzz);
  return w;
}

QueryService::RunOverrides OverridesForCap(uint64_t cap) {
  QueryService::RunOverrides overrides;
  if (cap > 0) overrides.max_rows = static_cast<size_t>(cap);
  return overrides;
}

TEST(NetFuzzTest, BatchedExecutionIsByteIdenticalToUnbatched) {
  const uint64_t seed = FuzzSeed();
  std::mt19937_64 rng(seed ^ 0x5bd1e995u);
  auto world = MakeBatchWorld(seed);
  ASSERT_EQ(world->queries.size(), 6u);
  const std::vector<uint64_t> caps = {0, 5};

  // Unbatched reference digests: the same service, the same overrides,
  // executed serially with no coalescing in the path.
  std::vector<std::vector<uint64_t>> reference(world->queries.size());
  for (size_t qi = 0; qi < world->queries.size(); ++qi) {
    for (uint64_t cap : caps) {
      auto result = world->service->Run(world->queries[qi].query,
                                        OverridesForCap(cap), RowSink());
      ASSERT_TRUE(result.ok())
          << "seed=" << seed << " " << world->queries[qi].name << ": "
          << result.status().ToString();
      reference[qi].push_back(replay::RowDigest(*result));
    }
  }

  // Randomized concurrent schedules: each round picks three (query, cap)
  // combos and launches two requests for each through one shared
  // BatchExecutor — duplicated fingerprints guaranteed, whether any pair
  // actually coalesces is up to the scheduler. Either way every outcome
  // must digest to the unbatched reference.
  BatchExecutor batcher;
  uint64_t total_runs = 0;
  for (int round = 0; round < 6; ++round) {
    struct Task {
      size_t qi;
      size_t ci;
    };
    std::vector<Task> tasks;
    for (int combo = 0; combo < 3; ++combo) {
      const Task task = {rng() % world->queries.size(), rng() % caps.size()};
      tasks.push_back(task);
      tasks.push_back(task);
    }
    std::vector<std::string> failures(tasks.size());
    std::vector<std::thread> threads;
    for (size_t t = 0; t < tasks.size(); ++t) {
      threads.emplace_back([&, t]() {
        const Task& task = tasks[t];
        const Query& query = world->queries[task.qi].query;
        const uint64_t cap = caps[task.ci];
        const uint64_t fp =
            RequestFingerprint(world->queries[task.qi].text, cap);
        BatchExecutor::Outcome outcome = batcher.Run(fp, [&]() {
          return world->service->Run(query, OverridesForCap(cap), RowSink());
        });
        const Result<QueryResult>& result = *outcome.result;
        if (!result.ok()) {
          failures[t] = result.status().ToString();
        } else if (replay::RowDigest(*result) != reference[task.qi][task.ci]) {
          failures[t] = world->queries[task.qi].name + " cap=" +
                        std::to_string(cap) +
                        (outcome.follower ? " (follower)" : " (leader)") +
                        ": batched rows diverged from unbatched";
        }
      });
    }
    for (std::thread& thread : threads) thread.join();
    total_runs += tasks.size();
    for (size_t t = 0; t < tasks.size(); ++t) {
      EXPECT_TRUE(failures[t].empty())
          << "seed=" << seed << " round=" << round << " task=" << t << ": "
          << failures[t];
    }
  }
  const BatchExecutor::Stats stats = batcher.stats();
  // Every run was either a leader or a follower; coalescing never loses
  // or invents a request.
  EXPECT_EQ(stats.leaders + stats.followers, total_runs);
}

// Requests whose texts execute differently never share a fingerprint, even
// when they differ only past a weight's or threshold's third decimal, or
// in a word holding `"/"` that reads like two path steps.
TEST(NetFuzzTest, FingerprintSeparatesRequestsThatPrintAlike) {
  const std::vector<std::pair<std::string, std::string>> pairs = {
      {R"(extract x:Entity from "t" if ()
          satisfying x (str(x) contains "a" {1}) with threshold 0.9)",
       R"(extract x:Entity from "t" if ()
          satisfying x (str(x) contains "a" {1}) with threshold 0.9004)"},
      {R"(extract x:Entity from "t" if ()
          satisfying x (str(x) contains "a" {0.5}) with threshold 0.1)",
       R"(extract x:Entity from "t" if ()
          satisfying x (str(x) contains "a" {0.5004}) with threshold 0.1)"},
      {R"(extract b:Str from "t" if ( /ROOT:{ b = //"ate\"/\"pie" }))",
       R"(extract b:Str from "t" if ( /ROOT:{ b = //"ate"/"pie" }))"},
  };
  for (const auto& [a, b] : pairs) {
    ASSERT_TRUE(ParseQuery(a).ok()) << a;
    ASSERT_TRUE(ParseQuery(b).ok()) << b;
    EXPECT_NE(RequestFingerprint(a, 0), RequestFingerprint(b, 0))
        << a << "\nvs\n" << b;
  }
}

// ---- 3. Deterministic coalescing -------------------------------------------

TEST(NetFuzzTest, FollowersShareTheLeadersExactResult) {
  BatchExecutor batcher;
  constexpr uint64_t kFingerprint = 0xfeedfacecafebeefull;
  constexpr uint64_t kFollowers = 3;
  std::atomic<bool> exec_entered{false};

  // The leader's execution blocks until all followers have joined the
  // group (join increments the follower counter before waiting), making
  // the coalescing outcome deterministic rather than scheduler-dependent.
  auto exec = [&]() -> Result<QueryResult> {
    exec_entered.store(true);
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(20);
    while (batcher.stats().followers < kFollowers &&
           std::chrono::steady_clock::now() < deadline) {
      std::this_thread::yield();
    }
    QueryResult result;
    ResultRow row;
    row.doc = 42;
    row.values = {"leader"};
    result.rows.push_back(row);
    return result;
  };

  BatchExecutor::Outcome leader_outcome;
  std::thread leader([&]() { leader_outcome = batcher.Run(kFingerprint, exec); });
  while (!exec_entered.load()) std::this_thread::yield();

  std::vector<BatchExecutor::Outcome> follower_outcomes(kFollowers);
  std::vector<std::thread> followers;
  for (uint64_t f = 0; f < kFollowers; ++f) {
    followers.emplace_back([&, f]() {
      follower_outcomes[f] = batcher.Run(kFingerprint, [&]() -> Result<QueryResult> {
        ADD_FAILURE() << "a follower must never execute";
        return Status::Internal("follower executed");
      });
    });
  }
  for (std::thread& t : followers) t.join();
  leader.join();

  ASSERT_TRUE(leader_outcome.result != nullptr);
  EXPECT_FALSE(leader_outcome.follower);
  for (uint64_t f = 0; f < kFollowers; ++f) {
    EXPECT_TRUE(follower_outcomes[f].follower) << "follower " << f;
    // The same result object, not a copy: coalescing is sharing.
    EXPECT_EQ(follower_outcomes[f].result.get(), leader_outcome.result.get());
  }
  const BatchExecutor::Stats stats = batcher.stats();
  EXPECT_EQ(stats.leaders, 1u);
  EXPECT_EQ(stats.followers, kFollowers);
  EXPECT_EQ(stats.peak_group, kFollowers + 1);

  // The group dissolved at completion: a later identical fingerprint
  // executes fresh (a second leader, not a stale shared result).
  auto outcome = batcher.Run(kFingerprint, [&]() -> Result<QueryResult> {
    QueryResult result;
    return result;
  });
  EXPECT_FALSE(outcome.follower);
  EXPECT_EQ(batcher.stats().leaders, 2u);
}

}  // namespace
}  // namespace koko
