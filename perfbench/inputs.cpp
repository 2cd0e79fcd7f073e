// Seeded inputs of the three workloads: corpus recipe, distinct queries and
// the closed-loop schedule. Why each workload exists is in README.md.
#include <algorithm>
#include <cmath>
#include <iterator>
#include <map>
#include <set>

#include "corpus/generators.h"
#include "corpus/query_gen.h"
#include "koko/parser.h"
#include "koko/printer.h"
#include "perfbench.h"
#include "util/hash.h"
#include "util/rng.h"

namespace perfbench {

using namespace koko;

namespace {

constexpr int kWikiArticles = 1000;
/// wiki_dpli keeps `pobj` literals found in at most this share of
/// sentences: there DPLI is most of a query's work.
constexpr double kSelectivePobjShare = 0.025;
/// wiki_extract keeps tree queries whose reference rows cover at least
/// this share of sentences: there DPLI prunes almost nothing.
constexpr double kLowSelectivityShare = 0.5;
/// ... and that return at most this many rows per sentence. The wildcard
/// paths that match almost every node return about four; kept, they are a
/// few percent of the requests and the p99 lands inside their own upper
/// tail, which swings with every change in machine load.
constexpr double kMaxRowsPerSentence = 2.0;
/// wiki_extract's share of tree queries. DateOfBirth-shaped queries form
/// one tight peak and the tree queries a broad shoulder above it; with the
/// peak at three quarters of the mix the median falls inside it, not
/// between the two.
constexpr double kTreeShare = 0.25;

constexpr int kReplayScale = 8;
constexpr size_t kReplayQueriesPerClass = 8;
/// Zipf exponent of replay_wire query popularity.
constexpr double kZipfExponent = 1.0;
/// Share of replay_wire requests that carry a row cap, and the cap.
constexpr double kCappedShare = 0.25;
constexpr uint64_t kRowCap = 10;

constexpr size_t kScheduleLength = size_t{1} << 16;

uint64_t SubSeed(uint64_t seed, uint64_t salt) {
  return Mix64(seed ^ Mix64(salt));
}

Status AddQuery(Inputs* inputs, std::string cls, std::string name,
                std::string text, size_t corpus, uint64_t max_rows) {
  auto parsed = ParseQuery(text);
  if (!parsed.ok()) {
    return Status::InvalidArgument("generated query '" + name +
                                   "' does not parse: " +
                                   parsed.status().ToString());
  }
  BenchQuery q;
  q.cls = std::move(cls);
  q.name = std::move(name);
  q.text = std::move(text);
  q.query = std::move(*parsed);
  q.corpus = corpus;
  q.max_rows = max_rows;
  inputs->queries.push_back(std::move(q));
  return Status::OK();
}

// The §6.3 Chocolate query with its literal and SimilarTo target varied.
std::string ChocolateShape(const std::string& literal,
                           const std::string& target) {
  return "extract c:Entity from wiki.article if (\n"
         "  /ROOT:{\n"
         "    v = //verb,\n"
         "    o = v//pobj[text=\"" + literal + "\"],\n"
         "    s = v/nsubj\n"
         "  } (s) in (c))\n"
         "satisfying v\n"
         "  (v SimilarTo \"" + target + "\" {1})\n"
         "with threshold 0.9\n";
}

// The §6.3 DateOfBirth query with its SimilarTo target varied.
std::string DateOfBirthShape(const std::string& target) {
  return "extract a:Person, b:Date from wiki.article if (\n"
         "  /ROOT:{ v = verb })\n"
         "satisfying v\n"
         "  (v SimilarTo \"" + target + "\" {1})\n"
         "with threshold 0.9\n";
}

Status MakeWikiInputs(Inputs* inputs) {
  WikiGenOptions gen;
  gen.num_articles = kWikiArticles;
  gen.seed = SubSeed(inputs->seed, 1);
  inputs->wiki_docs = GenerateWikiArticles(gen);

  // The vocabulary the query variants range over.
  Pipeline pipeline;
  const AnnotatedCorpus corpus = pipeline.AnnotateCorpus(inputs->wiki_docs);
  std::map<std::string, std::set<uint32_t>> pobj_sids;
  // The nearest verb above each pobj literal, wherever it occurs.
  std::map<std::string, std::set<std::string>> pobj_verbs;
  std::set<std::string> verbs;
  for (uint32_t sid = 0; sid < corpus.NumSentences(); ++sid) {
    const SentenceRef& ref = corpus.refs[sid];
    const Sentence& sentence = corpus.docs[ref.doc].sentences[ref.sent];
    for (const Token& token : sentence.tokens) {
      if (token.pos == PosTag::kVerb) verbs.insert(token.text);
      if (token.label != DepLabel::kPobj) continue;
      pobj_sids[token.text].insert(sid);
      for (int h = token.head; h >= 0; h = sentence.tokens[static_cast<size_t>(h)].head) {
        const Token& head = sentence.tokens[static_cast<size_t>(h)];
        if (head.pos == PosTag::kVerb) {
          pobj_verbs[token.text].insert(head.text);
          break;
        }
      }
    }
  }
  const std::vector<std::string> verb_list(verbs.begin(), verbs.end());
  if (verb_list.empty()) return Status::Internal("wiki corpus has no verbs");

  if (inputs->config.kind == WorkloadKind::kWikiDpli) {
    Rng rng(SubSeed(inputs->seed, 2));
    const double limit =
        kSelectivePobjShare * static_cast<double>(corpus.NumSentences());
    for (const auto& [literal, sids] : pobj_sids) {
      if (static_cast<double>(sids.size()) > limit) continue;
      // One SimilarTo target that governs the literal somewhere, so some
      // rows pass the filter, and one from the whole verb vocabulary.
      std::set<std::string> targets = {verb_list[rng.Uniform(verb_list.size())]};
      const std::set<std::string>& governing = pobj_verbs[literal];
      if (!governing.empty()) {
        auto it = governing.begin();
        std::advance(it, static_cast<long>(rng.Uniform(governing.size())));
        targets.insert(*it);
      }
      for (const std::string& target : targets) {
        KOKO_RETURN_IF_ERROR(AddQuery(inputs, "chocolate",
                                      "chocolate/" + literal + "/" + target,
                                      ChocolateShape(literal, target), 0, 0));
      }
    }
    return Status::OK();
  }

  for (const std::string& verb : verb_list) {
    KOKO_RETURN_IF_ERROR(AddQuery(inputs, "date_of_birth",
                                  "date_of_birth/" + verb,
                                  DateOfBirthShape(verb), 0, 0));
  }
  TreeBenchOptions bench;
  bench.queries_per_setting = 1;
  bench.seed = SubSeed(inputs->seed, 3);
  for (const TreeBenchQuery& tree : GenerateSyntheticTreeBenchmark(corpus, bench)) {
    KOKO_RETURN_IF_ERROR(AddQuery(
        inputs, "tree", "tree/" + tree.name,
        QueryToString(replay::QueryFromTreeBench(tree, "wiki.article")), 0, 0));
  }
  return Status::OK();
}

Status MakeReplayInputs(Inputs* inputs) {
  inputs->replay_options.scale = kReplayScale;
  inputs->replay_options.queries_per_class = kReplayQueriesPerClass;
  inputs->replay_options.seed = SubSeed(inputs->seed, 4);
  Pipeline pipeline;
  auto workloads = replay::BuildAllWorkloads(pipeline, inputs->replay_options);
  if (!workloads.ok()) return workloads.status();
  // Uncapped and capped variant of every class query, adjacent.
  for (size_t c = 0; c < workloads->size(); ++c) {
    const replay::Workload& workload = (*workloads)[c];
    for (const replay::WorkloadQuery& query : workload.queries) {
      const std::string name = workload.name + "/" + query.name;
      KOKO_RETURN_IF_ERROR(AddQuery(inputs, workload.name, name, query.text, c, 0));
      KOKO_RETURN_IF_ERROR(
          AddQuery(inputs, "capped", name + "/cap", query.text, c, kRowCap));
    }
  }
  return Status::OK();
}

// replay_wire: Zipf popularity over the class queries. Popularity ranks
// interleave the classes (first query of each class, then the second, ...)
// in a fixed order that does not depend on the seed. It starts with the
// tweet class, whose queries cost the middle of the range, so the hottest
// query's peak holds the median instead of a gap between two classes.
Status ZipfSchedule(Rng* rng, Inputs* inputs) {
  static const char* const kPopularityOrder[] = {
      "fig4_wnut", "fig3_cafe", "fig7_happydb",
      "fig8_wiki", "fig5_descriptors", "table1_gsp"};
  std::map<std::string, std::vector<uint32_t>> by_class;
  size_t uncapped = 0;
  for (uint32_t i = 0; i < inputs->queries.size(); ++i) {
    if (inputs->queries[i].max_rows == 0) {
      by_class[inputs->queries[i].cls].push_back(i);
      ++uncapped;
    }
  }
  std::vector<uint32_t> ranked;
  for (size_t j = 0, added = 1; added > 0; ++j) {
    added = 0;
    for (const char* cls : kPopularityOrder) {
      const std::vector<uint32_t>& indices = by_class[cls];
      if (j < indices.size()) {
        ranked.push_back(indices[j]);
        ++added;
      }
    }
  }
  if (ranked.size() != uncapped) {
    return Status::Internal("a replay class is missing from the popularity order");
  }
  std::vector<double> cumulative;
  double total = 0;
  for (size_t r = 0; r < ranked.size(); ++r) {
    total += 1.0 / std::pow(static_cast<double>(r + 1), kZipfExponent);
    cumulative.push_back(total);
  }
  for (size_t s = 0; s < kScheduleLength; ++s) {
    const double u = rng->UniformDouble() * total;
    const size_t r = static_cast<size_t>(
        std::upper_bound(cumulative.begin(), cumulative.end(), u) -
        cumulative.begin());
    uint32_t index = ranked[std::min(r, ranked.size() - 1)];
    // The capped variant directly follows its uncapped query.
    if (rng->Bernoulli(kCappedShare)) ++index;
    inputs->schedule.push_back(index);
  }
  return Status::OK();
}

}  // namespace

size_t Config::BusyThreadBudget() const {
  // In process, a client thread executes its own query and joins the
  // shared pool's fork/join sections. On the wire, each closed-loop
  // request is worked on by its client thread or its connection thread;
  // both are counted. A one-worker pool never runs a section (the section
  // width is max(pool workers, 1) = 1, so the caller runs it inline).
  if (!wire) return clients + pool_workers;
  return clients + clients + (pool_workers > 1 ? pool_workers : 0);
}

bool ConfigFor(const std::string& workload, Config* config) {
  config->name = workload;
  if (workload == "wiki_dpli" || workload == "wiki_extract") {
    config->kind = workload == "wiki_dpli" ? WorkloadKind::kWikiDpli
                                           : WorkloadKind::kWikiExtract;
    // Serial queries on three clients leave one CPU spare: a fork/join
    // section needs two CPUs at once, and on a shared machine waiting for
    // the second one swung throughput and p50 by half between runs.
    config->clients = 3;
    config->pool_workers = 1;
    config->max_inflight = 3;
    config->wire = false;
    return true;
  }
  if (workload == "replay_wire") {
    config->kind = WorkloadKind::kReplayWire;
    // More connections per server (one per client) than max_inflight, so
    // admission waits happen when two clients pick one class.
    config->clients = 2;
    config->pool_workers = 1;
    config->max_inflight = 1;
    config->wire = true;
    return true;
  }
  return false;
}

Status MakeInputs(const Config& config, uint64_t seed, Inputs* inputs) {
  inputs->config = config;
  inputs->seed = seed;
  if (config.kind == WorkloadKind::kReplayWire) return MakeReplayInputs(inputs);
  return MakeWikiInputs(inputs);
}

Status FinishInputs(const Stack& stack, Inputs* inputs) {
  if (inputs->config.kind == WorkloadKind::kWikiExtract) {
    const double sentences = static_cast<double>(stack.Sentences());
    std::erase_if(inputs->queries, [&](const BenchQuery& q) {
      return q.cls == "tree" &&
             (static_cast<double>(q.reference_sids) <
                  kLowSelectivityShare * sentences ||
              static_cast<double>(q.reference_rows) >
                  kMaxRowsPerSentence * sentences);
    });
  }
  Rng rng(SubSeed(inputs->seed, 5));
  inputs->schedule.clear();
  if (inputs->config.kind == WorkloadKind::kReplayWire) {
    return ZipfSchedule(&rng, inputs);
  }
  // The class is drawn first, with a fixed share, so the mix does not
  // depend on how many queries of a class a seed yields.
  std::map<std::string, std::vector<uint32_t>> by_class;
  for (uint32_t i = 0; i < inputs->queries.size(); ++i) {
    by_class[inputs->queries[i].cls].push_back(i);
  }
  for (size_t s = 0; s < kScheduleLength; ++s) {
    const char* cls = "chocolate";
    if (inputs->config.kind == WorkloadKind::kWikiExtract) {
      cls = rng.Bernoulli(kTreeShare) ? "tree" : "date_of_birth";
    }
    const std::vector<uint32_t>& pool = by_class[cls];
    if (pool.empty()) return Status::Internal(std::string("no ") + cls + " query");
    inputs->schedule.push_back(pool[rng.Uniform(pool.size())]);
  }
  return Status::OK();
}

}  // namespace perfbench
