// §6.3 (in-text): Odin vs KOKO runtime on the three example queries.
//
// Paper shape: Odin 40x / 23x / 1.3x slower for Chocolate / Title /
// DateOfBirth. Odin re-scans every sentence per rule per iteration (no
// index); KOKO's advantage shrinks as query selectivity rises, because the
// index prunes less.
//
// Both systems are timed by bench::MedianOfWarmRuns, so KOKO's untimed
// first run absorbs its first SimilarTo scoring. The two return different
// result counts, so each time is also printed per row (KOKO) and per
// mention (Odin).
#include "bench_util.h"

#include "extract/odin.h"
#include "storage/doc_store.h"
#include "util/timer.h"

using namespace koko;

namespace {

PathQuery MakePath(std::initializer_list<std::pair<const char*, const char*>> steps) {
  PathQuery q;
  for (const auto& [axis, label] : steps) {
    PathStep step;
    step.axis = std::string(axis) == "/" ? PathStep::Axis::kChild
                                         : PathStep::Axis::kDescendant;
    std::string name = label;
    if (name != "*") {
      DepLabel dep;
      PosTag pos;
      if (ParseDepLabel(name, &dep)) {
        step.constraint.dep = dep;
      } else if (ParsePosTag(name, &pos)) {
        step.constraint.pos = pos;
      } else {
        step.constraint.word = name;
      }
    }
    q.steps.push_back(std::move(step));
  }
  return q;
}

}  // namespace

int main() {
  std::printf("Odin vs KOKO runtime (Section 6.3 in-text comparison)\n");
  std::printf("paper shape: Odin ~40x slower (Chocolate), ~23x (Title), ~1.3x "
              "(DateOfBirth)\n\n");
  Pipeline pipeline;
  auto docs = GenerateWikiArticles({.num_articles = 1500, .seed = 1001});
  AnnotatedCorpus corpus = pipeline.AnnotateCorpus(docs);
  auto index = ShardedKokoIndex::Build(corpus, 1);
  DocumentStore store = DocumentStore::FromCorpus(corpus);
  EmbeddingModel embeddings;
  Engine engine(&corpus, index.get(), &embeddings, pipeline.recognizer());
  engine.set_document_store(&store);

  struct Task {
    const char* name;
    const char* koko_query;
    std::vector<OdinRule> odin_rules;
  };
  std::vector<Task> tasks;
  {
    Task chocolate;
    chocolate.name = "Chocolate";
    chocolate.koko_query = bench::kChocolateQuery;
    OdinRule r1;
    r1.name = "chocolate-pobj";
    r1.kind = OdinRule::Kind::kDependency;
    r1.path = MakePath({{"//", "verb"}, {"//", "pobj"}});
    OdinRule r2;
    r2.name = "chocolate-subject";
    r2.kind = OdinRule::Kind::kDependency;
    r2.path = MakePath({{"//", "chocolate"}});
    chocolate.odin_rules = {r1, r2};
    tasks.push_back(std::move(chocolate));
  }
  {
    Task title;
    title.name = "Title";
    title.koko_query = bench::kTitleQuery;
    OdinRule r1;
    r1.name = "called-propn";
    r1.kind = OdinRule::Kind::kDependency;
    r1.path = MakePath({{"//", "called"}, {"/", "propn"}});
    OdinRule r2;
    r2.name = "called-surface";
    r2.kind = OdinRule::Kind::kSurface;
    r2.trigger = {"called"};
    r2.capture_left = true;
    title.odin_rules = {r1, r2};
    tasks.push_back(std::move(title));
  }
  {
    Task dob;
    dob.name = "DateOfBirth";
    dob.koko_query = bench::kDateOfBirthQuery;
    OdinRule r1;
    r1.name = "born";
    r1.kind = OdinRule::Kind::kDependency;
    r1.path = MakePath({{"//", "born"}});
    OdinRule r2;
    r2.name = "born-left";
    r2.kind = OdinRule::Kind::kSurface;
    r2.trigger = {"born", "in"};
    r2.capture_left = true;
    dob.odin_rules = {r1, r2};
    tasks.push_back(std::move(dob));
  }

  OdinExtractor odin;
  EngineOptions options;
  options.max_rows = 500000;
  bool ok = true;
  for (const Task& task : tasks) {
    size_t rows = 0;
    const double koko_ms = bench::MedianOfWarmRuns([&] {
      WallTimer timer;
      auto result = engine.ExecuteText(task.koko_query, options);
      if (!result.ok()) {
        std::printf("%s: KOKO failed: %s\n", task.name,
                    result.status().ToString().c_str());
        return -1.0;
      }
      rows = result->rows.size();
      return 1e3 * timer.ElapsedSeconds();
    });
    if (koko_ms < 0) {
      ok = false;
      continue;
    }
    size_t mentions = 0;
    OdinExtractor::RunStats stats;
    const double odin_ms = bench::MedianOfWarmRuns([&] {
      WallTimer timer;
      mentions = odin.Run(corpus, task.odin_rules, &stats).size();
      return 1e3 * timer.ElapsedSeconds();
    });
    std::printf("%-12s KOKO=%7.3f ms (%zu rows, %.4f ms/row)   Odin=%7.3f ms "
                "(%zu mentions, %.4f ms/mention, %d iters, %zu sentence "
                "visits)   Odin/KOKO=%.1fx\n",
                task.name, koko_ms, rows,
                koko_ms / static_cast<double>(std::max<size_t>(rows, 1)),
                odin_ms, mentions,
                odin_ms / static_cast<double>(std::max<size_t>(mentions, 1)),
                stats.iterations, stats.sentence_visits, odin_ms / koko_ms);
  }
  return ok ? 0 : 1;
}
