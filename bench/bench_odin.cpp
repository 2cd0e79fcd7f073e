// §6.3 (in-text): Odin vs KOKO runtime on the three example queries.
//
// Paper shape: Odin 40x / 23x / 1.3x slower for Chocolate / Title /
// DateOfBirth. Odin re-scans every sentence per rule per iteration (no
// index); KOKO's advantage shrinks as query selectivity rises, because the
// index prunes less.
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
    chocolate.koko_query = R"(
extract c:Entity from wiki.article if (
  /ROOT:{ v = //verb, o = v//pobj[text="chocolate"], s = v/nsubj } (s) in (c))
satisfying v (v SimilarTo "is" {1}) with threshold 0.9)";
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
    title.koko_query = R"(
extract a:Person, b:Str from wiki.article if (
  /ROOT:{ v = //"called", p = v/propn, b = p.subtree, c = a + ^ + v + ^ + b }))";
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
    dob.koko_query = R"(
extract a:Person, b:Date from wiki.article if ( /ROOT:{ v = verb })
satisfying v (v SimilarTo "born" {1}) with threshold 0.9)";
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
  for (const Task& task : tasks) {
    WallTimer koko_timer;
    EngineOptions options;
    options.max_rows = 500000;
    auto koko_result = engine.ExecuteText(task.koko_query, options);
    double koko_seconds = koko_timer.ElapsedSeconds();
    if (!koko_result.ok()) {
      std::printf("%s: KOKO failed: %s\n", task.name,
                  koko_result.status().ToString().c_str());
      continue;
    }
    WallTimer odin_timer;
    OdinExtractor::RunStats stats;
    auto mentions = odin.Run(corpus, task.odin_rules, &stats);
    double odin_seconds = odin_timer.ElapsedSeconds();
    std::printf("%-12s KOKO=%7.3fs (%zu rows)   Odin=%7.3fs (%zu mentions, %d "
                "iters, %zu sentence visits)   Odin/KOKO=%.1fx\n",
                task.name, koko_seconds, koko_result->rows.size(), odin_seconds,
                mentions.size(), stats.iterations, stats.sentence_visits,
                odin_seconds / koko_seconds);
  }
  return 0;
}
