// Dynamic mirror of the static thread-safety annotations (the "tsan"
// ctest label): every invariant KOKO_GUARDED_BY claims the compiler proves
// is also exercised here under real interleavings, so CI's TSan job checks
// the same discipline at runtime that -Werror=thread-safety checks at
// compile time. Covers the ISSUE-8 satellite suites — AdmissionQueue
// shutdown/reject races and ScoreCache::Clear vs concurrent hit paths —
// plus a regression test for the torn stats-snapshot bug the annotation
// pass surfaced (QueryService::stats() used to read each admission counter
// under its own lock acquisition), and a regression test for the
// EmbeddingModel cache that concurrent queries fill through a const Embed.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <string>
#include <thread>
#include <vector>

#include "embed/embedding.h"
#include "koko/score_cache.h"
#include "serve/query_service.h"
#include "util/thread_annotations.h"

namespace koko {
namespace {

// ---- AdmissionQueue shutdown/reject -----------------------------------------

TEST(AdmissionShutdownTest, ShutdownRejectsSubsequentEnters) {
  AdmissionQueue admission(2, SIZE_MAX);
  ASSERT_TRUE(admission.Enter());
  admission.Shutdown();
  EXPECT_TRUE(admission.is_shutdown());
  EXPECT_FALSE(admission.Enter());
  EXPECT_EQ(admission.rejected(), 1u);
  // The already-admitted caller drains normally.
  admission.Exit();
  EXPECT_EQ(admission.inflight(), 0u);
  EXPECT_EQ(admission.admitted(), 1u);
}

TEST(AdmissionShutdownTest, ShutdownIsIdempotent) {
  AdmissionQueue admission(1, SIZE_MAX);
  admission.Shutdown();
  admission.Shutdown();
  EXPECT_FALSE(admission.Enter());
  EXPECT_FALSE(admission.Enter());
  EXPECT_EQ(admission.rejected(), 2u);
}

TEST(AdmissionShutdownTest, ShutdownWakesEveryBlockedWaiter) {
  // One slot held, many waiters blocked in FIFO order; Shutdown must wake
  // all of them with a rejection (no waiter may hang, none may be
  // admitted) while the slot holder's Exit still works.
  AdmissionQueue admission(1, SIZE_MAX);
  ASSERT_TRUE(admission.Enter());

  constexpr int kWaiters = 8;
  std::atomic<int> started{0};
  std::atomic<int> admitted{0};
  std::atomic<int> rejected{0};
  std::vector<std::thread> waiters;
  waiters.reserve(kWaiters);
  for (int i = 0; i < kWaiters; ++i) {
    waiters.emplace_back([&] {
      started.fetch_add(1);
      if (admission.Enter()) {
        admitted.fetch_add(1);
        admission.Exit();
      } else {
        rejected.fetch_add(1);
      }
    });
  }
  // Wait until every waiter is blocked inside Enter() (waiting() counts
  // exactly the callers parked on the condition variable).
  while (admission.waiting() < static_cast<size_t>(kWaiters)) {
    std::this_thread::yield();
  }

  admission.Shutdown();
  for (std::thread& t : waiters) t.join();

  EXPECT_EQ(started.load(), kWaiters);
  EXPECT_EQ(admitted.load(), 0);
  EXPECT_EQ(rejected.load(), kWaiters);
  admission.Exit();
  const AdmissionQueue::Counters counters = admission.counters();
  EXPECT_EQ(counters.inflight, 0u);
  EXPECT_EQ(counters.waiting, 0u);
  EXPECT_EQ(counters.admitted, 1u);
  EXPECT_EQ(counters.rejected, static_cast<uint64_t>(kWaiters));
}

TEST(AdmissionShutdownTest, ShutdownRacesEnterExitWithoutLossOrDeadlock) {
  // Clients hammer Enter/Exit while an uncoordinated thread shuts the
  // queue down mid-traffic. With an unbounded queue the *only* possible
  // rejection is the shutdown itself, so each client loops until its first
  // rejection: every client must terminate (no waiter left hanging), and
  // the final counters must agree exactly with the per-thread tallies.
  constexpr int kClients = 4;
  AdmissionQueue admission(2, SIZE_MAX);
  std::atomic<int> total_admitted{0};

  std::vector<std::thread> clients;
  clients.reserve(kClients);
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&] {
      while (admission.Enter()) {
        total_admitted.fetch_add(1);
        admission.Exit();
      }
    });
  }
  std::thread killer([&] {
    // Let some traffic through first so both phases are exercised.
    while (admission.admitted() < kClients) std::this_thread::yield();
    admission.Shutdown();
  });
  for (std::thread& t : clients) t.join();
  killer.join();

  const AdmissionQueue::Counters counters = admission.counters();
  EXPECT_EQ(counters.admitted, static_cast<uint64_t>(total_admitted.load()));
  EXPECT_EQ(counters.rejected, static_cast<uint64_t>(kClients));
  EXPECT_EQ(counters.inflight, 0u);
  EXPECT_EQ(counters.waiting, 0u);
  EXPECT_GE(total_admitted.load(), kClients);
}

TEST(AdmissionShutdownTest, RejectRacesStayBoundedWithZeroQueue) {
  // max_queue=0: under contention every attempt either gets the slot or is
  // rejected immediately — nobody waits, inflight never exceeds the bound.
  constexpr int kClients = 4;
  constexpr int kAttemptsPerClient = 300;
  AdmissionQueue admission(1, 0);
  std::atomic<int> admitted{0};
  std::atomic<int> rejected{0};
  std::vector<std::thread> clients;
  clients.reserve(kClients);
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&] {
      for (int i = 0; i < kAttemptsPerClient; ++i) {
        if (admission.Enter()) {
          admitted.fetch_add(1);
          admission.Exit();
        } else {
          rejected.fetch_add(1);
        }
      }
    });
  }
  for (std::thread& t : clients) t.join();
  EXPECT_EQ(admitted.load() + rejected.load(), kClients * kAttemptsPerClient);
  EXPECT_GT(admitted.load(), 0);
  const AdmissionQueue::Counters counters = admission.counters();
  EXPECT_LE(counters.peak_inflight, 1u);
  EXPECT_EQ(counters.inflight, 0u);
}

// ---- Coherent counter snapshots ---------------------------------------------

TEST(AdmissionSnapshotTest, SnapshotInvariantsHoldUnderConcurrentTraffic) {
  // Regression for the torn-stats bug the annotation pass surfaced:
  // reading admitted/peak_inflight via separate lock acquisitions can
  // observe a peak from a *newer* state than the admitted count next to it
  // (peak_inflight > admitted), which counters() makes impossible. Sample
  // aggressively while traffic runs and assert the single-acquisition
  // invariants on every sample.
  AdmissionQueue admission(3, SIZE_MAX);
  std::atomic<bool> stop{false};
  constexpr int kClients = 4;
  std::vector<std::thread> clients;
  clients.reserve(kClients);
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&] {
      while (!stop.load(std::memory_order_relaxed)) {
        if (admission.Enter()) admission.Exit();
      }
    });
  }
  for (int sample = 0; sample < 2000; ++sample) {
    const AdmissionQueue::Counters c = admission.counters();
    ASSERT_LE(c.peak_inflight, c.admitted);
    ASSERT_LE(c.inflight, 3u);
    ASSERT_LE(c.peak_waiting, c.admitted + c.rejected);
  }
  stop.store(true);
  for (std::thread& t : clients) t.join();
}

// ---- ScoreCache::Clear vs concurrent hit paths ------------------------------

TEST(ScoreCacheClearRaceTest, ClearRacesLookupInsertWithoutTornScores) {
  // Readers hammer Lookup/Insert over a fixed key population while a
  // clearer repeatedly wipes the cache. Scores are a pure function of the
  // key, so any hit must return exactly the key's score — a torn or stale
  // value would surface here (and as a TSan race in the CI job).
  ScoreCache cache(ScoreCache::Options{.num_shards = 4});
  constexpr uint32_t kDocs = 64;
  constexpr uint64_t kClause = 0x1234'5678'9abc'def0ull;
  auto score_of = [](uint32_t doc) { return 1.0 + doc * 0.25; };

  std::atomic<bool> stop{false};
  std::atomic<int> started{0};
  std::atomic<uint64_t> verified_hits{0};
  constexpr int kReaders = 3;
  std::vector<std::thread> readers;
  readers.reserve(kReaders);
  for (int r = 0; r < kReaders; ++r) {
    readers.emplace_back([&] {
      started.fetch_add(1);
      const std::string value = "cafe";
      uint32_t doc = 0;
      while (!stop.load(std::memory_order_relaxed)) {
        doc = (doc + 1) % kDocs;
        if (auto hit = cache.Lookup(kClause, doc, value)) {
          ASSERT_EQ(*hit, score_of(doc));
          verified_hits.fetch_add(1, std::memory_order_relaxed);
        } else {
          cache.Insert(kClause, doc, value, score_of(doc));
        }
      }
    });
  }
  // Wipe only once every reader is running — otherwise the wipes can all
  // finish before any reader starts — and keep wiping until the warm
  // phases between wipes have verified a hit, bounded by a deadline.
  while (started.load() < kReaders) std::this_thread::yield();
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(30);
  for (int wipe = 0; (wipe < 50 || verified_hits.load() == 0) &&
                     std::chrono::steady_clock::now() < deadline;
       ++wipe) {
    cache.Clear();
    std::this_thread::yield();
  }
  stop.store(true);
  for (std::thread& t : readers) t.join();

  // The warm phases between wipes must have produced real hits, and the
  // post-race structure must still be coherent.
  EXPECT_GT(verified_hits.load(), 0u);
  cache.Clear();
  EXPECT_EQ(cache.size(), 0u);
  EXPECT_EQ(cache.stats().hits, 0u);
  EXPECT_EQ(cache.stats().misses, 0u);
}

TEST(ScoreCacheClearRaceTest, InvalidateDocRacesHitsOnOtherDocs) {
  // Per-doc invalidation touches exactly one stripe; hits on other docs
  // must proceed concurrently and stay correct.
  ScoreCache cache(ScoreCache::Options{.num_shards = 8});
  constexpr uint64_t kClause = 42;
  const std::string value = "v";
  for (uint32_t doc = 0; doc < 32; ++doc) {
    cache.Insert(kClause, doc, value, static_cast<double>(doc));
  }
  std::atomic<bool> stop{false};
  std::thread invalidator([&] {
    while (!stop.load(std::memory_order_relaxed)) {
      cache.InvalidateDoc(7);
      cache.Insert(kClause, 7, value, 7.0);
    }
  });
  for (int i = 0; i < 5000; ++i) {
    const uint32_t doc = static_cast<uint32_t>(i) % 32;
    auto hit = cache.Lookup(kClause, doc, value);
    if (doc != 7) {
      ASSERT_TRUE(hit.has_value());
      ASSERT_EQ(*hit, static_cast<double>(doc));
    } else if (hit) {
      ASSERT_EQ(*hit, 7.0);
    }
  }
  stop.store(true);
  invalidator.join();
}

// ---- EmbeddingModel cache ---------------------------------------------------

TEST(EmbeddingCacheRaceTest, ConcurrentPhraseSimilarityOnUnseenWords) {
  // Concurrent queries share one model, and similarity scoring over words
  // no earlier query embedded inserts into its cache. Every thread walks
  // the same unseen words, so inserts and lookups of one key race; scores
  // must equal a single-threaded model's.
  constexpr int kThreads = 4;
  constexpr int kWords = 200;
  std::vector<std::string> phrases;
  for (int i = 0; i < kWords; ++i) {
    phrases.push_back("unseen" + std::to_string(i) + " coffee");
  }
  EmbeddingModel reference;
  std::vector<double> expected;
  for (const std::string& phrase : phrases) {
    expected.push_back(reference.PhraseSimilarity(phrase, "espresso city"));
  }
  EmbeddingModel shared;
  std::vector<std::vector<double>> got(kThreads);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (const std::string& phrase : phrases) {
        got[t].push_back(shared.PhraseSimilarity(phrase, "espresso city"));
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  for (int t = 0; t < kThreads; ++t) EXPECT_EQ(got[t], expected) << t;
}

}  // namespace
}  // namespace koko
