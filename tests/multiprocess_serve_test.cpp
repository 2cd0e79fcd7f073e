// Multi-process serving off one shared mmap'd index image — the
// page-cache-sharing story end to end. The parent builds a workload,
// saves its sharded index once, then forks two child processes; each
// child zero-copy loads (kMap) the same file, serves the full query list
// through its own QueryService, and reports per-query row digests plus
// its resident posting bytes. The parent asserts both children produced
// rows byte-identical to an in-process reference, and that neither child
// privately materialised the postings: each child's resident posting
// bytes must be a small fraction of a kCopy load's, because kMap postings
// live in the (shared, counted-once) page cache, not per-process heap.
//
// Not registered under the tsan label: fork() from a TSan runtime is
// unsupported. The ASan job runs it via -L workloads (children _exit(),
// so no leak-check noise from skipped teardown).

#include <sys/wait.h>
#include <unistd.h>

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "index/sharded_index.h"
#include "replay/workloads.h"
#include "serve/query_service.h"

namespace koko {
namespace {

constexpr size_t kIndexShards = 3;

struct ChildReport {
  std::vector<std::string> digests;
  std::vector<size_t> rows;
  size_t resident_posting_bytes = 0;
  bool parsed = false;
};

// Serves the whole query list from a fresh kMap load of `index_path` and
// writes digests + resident bytes to `report_path`. Runs in the forked
// child; returns the child's exit code.
int ServeAndReport(const replay::Workload& workload,
                   const EmbeddingModel& embeddings,
                   const EntityRecognizer* recognizer,
                   const std::string& index_path,
                   const std::string& report_path) {
  ShardedKokoIndex::LoadOptions load;
  load.mode = LoadMode::kMap;
  auto index = ShardedKokoIndex::Load(index_path, load);
  if (!index.ok() || !(*index)->mapped()) return 2;

  Engine engine(&workload.corpus, index->get(), &embeddings, recognizer);
  QueryService::Options options;
  options.max_inflight = 2;
  QueryService service(&engine, options, kIndexShards);

  std::ofstream out(report_path);
  for (const replay::WorkloadQuery& query : workload.queries) {
    auto result = service.Run(query.query);
    if (!result.ok()) return 3;
    out << replay::DigestHex(replay::RowDigest(*result)) << " "
        << result->rows.size() << "\n";
  }
  out << "resident " << (*index)->SidCacheMemoryUsage() << "\n";
  out.flush();
  return out.good() ? 0 : 4;
}

ChildReport ReadReport(const std::string& path) {
  ChildReport report;
  std::ifstream in(path);
  std::string line;
  while (std::getline(in, line)) {
    std::istringstream fields(line);
    std::string first;
    fields >> first;
    if (first == "resident") {
      fields >> report.resident_posting_bytes;
      report.parsed = true;
    } else if (!first.empty()) {
      size_t rows = 0;
      fields >> rows;
      report.digests.push_back(first);
      report.rows.push_back(rows);
    }
  }
  return report;
}

TEST(MultiProcessServeTest, TwoProcessesOneImageIdenticalRowsSharedPostings) {
  Pipeline pipeline;
  const Pipeline& const_pipeline = pipeline;
  EmbeddingModel embeddings;

  replay::WorkloadOptions options;
  options.scale = 1;
  options.queries_per_class = 3;
  auto built = replay::BuildWorkload(replay::WorkloadClass::kFig7HappyDb,
                                     pipeline, options);
  ASSERT_TRUE(built.ok()) << built.status().ToString();
  const replay::Workload& workload = *built;
  ASSERT_FALSE(workload.queries.empty());

  auto index = ShardedKokoIndex::Build(workload.corpus, kIndexShards);
  const std::string index_path = "multiprocess_serve_test.idx";
  ASSERT_TRUE(index->Save(index_path).ok());

  // In-process reference rows (seed semantics) and the copy-load resident
  // baseline the children's mapped loads are compared against.
  Engine reference_engine(&workload.corpus, index.get(), &embeddings,
                          &const_pipeline.recognizer());
  EngineOptions reference_options;
  reference_options.use_planner = false;
  reference_options.early_terminate = false;
  std::vector<std::string> expected_digests;
  std::vector<size_t> expected_rows;
  for (const replay::WorkloadQuery& query : workload.queries) {
    auto result = reference_engine.Execute(query.query, reference_options);
    ASSERT_TRUE(result.ok())
        << query.name << ": " << result.status().ToString();
    expected_digests.push_back(replay::DigestHex(replay::RowDigest(*result)));
    expected_rows.push_back(result->rows.size());
  }
  ShardedKokoIndex::LoadOptions copy_load;
  copy_load.mode = LoadMode::kCopy;
  auto copied = ShardedKokoIndex::Load(index_path, copy_load);
  ASSERT_TRUE(copied.ok());
  const size_t copy_resident = (*copied)->SidCacheMemoryUsage();
  ASSERT_GT(copy_resident, 0u);

  constexpr int kChildren = 2;
  std::vector<std::string> report_paths;
  std::vector<pid_t> children;
  for (int c = 0; c < kChildren; ++c) {
    report_paths.push_back("multiprocess_serve_report_" + std::to_string(c) +
                           ".txt");
    std::remove(report_paths.back().c_str());
    pid_t pid = fork();
    ASSERT_GE(pid, 0) << "fork failed";
    if (pid == 0) {
      // Child: serve off its own mapping of the shared image, report,
      // and _exit without running parent-owned teardown.
      int code = ServeAndReport(workload, embeddings,
                                &const_pipeline.recognizer(), index_path,
                                report_paths.back());
      _exit(code);
    }
    children.push_back(pid);
  }

  for (pid_t pid : children) {
    int status = 0;
    ASSERT_EQ(waitpid(pid, &status, 0), pid);
    ASSERT_TRUE(WIFEXITED(status)) << "child did not exit cleanly";
    EXPECT_EQ(WEXITSTATUS(status), 0) << "child serving failed";
  }
  std::remove(index_path.c_str());

  for (int c = 0; c < kChildren; ++c) {
    const ChildReport report = ReadReport(report_paths[c]);
    std::remove(report_paths[c].c_str());
    ASSERT_TRUE(report.parsed) << "child " << c << " report incomplete";
    ASSERT_EQ(report.digests.size(), expected_digests.size()) << "child " << c;
    for (size_t q = 0; q < expected_digests.size(); ++q) {
      EXPECT_EQ(report.digests[q], expected_digests[q])
          << "child " << c << " " << workload.queries[q].name
          << " rows diverged from in-process reference";
      EXPECT_EQ(report.rows[q], expected_rows[q])
          << "child " << c << " " << workload.queries[q].name;
    }
    // No double-count: the mapped child keeps essentially no private
    // posting bytes resident — the image pages are shared page cache,
    // counted once across all serving processes.
    EXPECT_LT(report.resident_posting_bytes, copy_resident / 4)
        << "child " << c
        << " materialised private postings despite the mapped load";
  }
}

}  // namespace
}  // namespace koko
