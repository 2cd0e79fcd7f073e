#ifndef KOKO_BENCH_BENCH_UTIL_H_
#define KOKO_BENCH_BENCH_UTIL_H_

// Shared helpers for the reproduction benchmarks. Each bench binary
// regenerates one table/figure of the paper and prints (a) the paper's
// reported shape and (b) our measured numbers.

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "corpus/generators.h"
#include "embed/embedding.h"
#include "extract/metrics.h"
#include "index/sharded_index.h"
#include "koko/engine.h"
#include "nlp/pipeline.h"
#include "replay/workloads.h"

namespace koko {
namespace bench {

/// \brief Machine-readable bench output: one `BENCH_<name>.json` per bench
/// binary, so the perf trajectory is trackable across PRs (CI uploads the
/// files as artifacts).
///
/// Schema:
///   { "bench": "<name>",
///     "meta":    { "<key>": <number>, ... },
///     "entries": [ { "name": "<entry>", "values": { "<k>": <number> } } ] }
///
/// Names and keys are escaped (quotes, backslashes, control characters), so
/// any string — query text, generated labels — is safe to use; values print
/// with enough digits to round-trip doubles, and non-finite values emit as
/// `null` (JSON has no NaN/Inf), keeping the files parseable by the CI
/// artifact consumers no matter what a bench measures.
class JsonEmitter {
 public:
  explicit JsonEmitter(std::string bench_name)
      : bench_name_(std::move(bench_name)) {}

  void SetMeta(const std::string& key, double value) {
    meta_.emplace_back(key, value);
  }

  void AddEntry(const std::string& name,
                std::vector<std::pair<std::string, double>> values) {
    entries_.push_back({name, {}, std::move(values)});
  }

  /// Entry with string-valued fields (e.g. `load_mode: "map"`) alongside
  /// the numeric ones; strings are emitted first, escaped like names.
  void AddEntry(const std::string& name,
                std::vector<std::pair<std::string, std::string>> string_values,
                std::vector<std::pair<std::string, double>> values) {
    entries_.push_back({name, std::move(string_values), std::move(values)});
  }

  /// Writes the JSON file; default path is BENCH_<name>.json in the
  /// working directory. Returns false on I/O failure.
  bool WriteFile(const std::string& path = "") const {
    std::string target = path.empty() ? "BENCH_" + bench_name_ + ".json" : path;
    std::ofstream out(target);
    if (!out) return false;
    out << "{\n  \"bench\": " << Quoted(bench_name_) << ",\n  \"meta\": {";
    for (size_t i = 0; i < meta_.size(); ++i) {
      out << (i == 0 ? "" : ",") << "\n    " << Quoted(meta_[i].first)
          << ": " << Number(meta_[i].second);
    }
    out << (meta_.empty() ? "" : "\n  ") << "},\n  \"entries\": [";
    for (size_t i = 0; i < entries_.size(); ++i) {
      const Entry& e = entries_[i];
      out << (i == 0 ? "" : ",") << "\n    {\"name\": " << Quoted(e.name)
          << ", \"values\": {";
      size_t emitted = 0;
      for (const auto& [key, value] : e.strings) {
        out << (emitted++ == 0 ? "" : ", ") << Quoted(key) << ": "
            << Quoted(value);
      }
      for (const auto& [key, value] : e.values) {
        out << (emitted++ == 0 ? "" : ", ") << Quoted(key) << ": "
            << Number(value);
      }
      out << "}}";
    }
    out << (entries_.empty() ? "" : "\n  ") << "]\n}\n";
    return out.good();
  }

 private:
  struct Entry {
    std::string name;
    std::vector<std::pair<std::string, std::string>> strings;
    std::vector<std::pair<std::string, double>> values;
  };

  /// JSON string literal: quotes, backslashes, and control characters
  /// (RFC 8259 mandates escaping everything below 0x20) are escaped.
  static std::string Quoted(const std::string& s) {
    std::string out = "\"";
    for (char c : s) {
      switch (c) {
        case '"':  out += "\\\""; break;
        case '\\': out += "\\\\"; break;
        case '\b': out += "\\b"; break;
        case '\f': out += "\\f"; break;
        case '\n': out += "\\n"; break;
        case '\r': out += "\\r"; break;
        case '\t': out += "\\t"; break;
        default:
          if (static_cast<unsigned char>(c) < 0x20) {
            char buf[8];
            std::snprintf(buf, sizeof(buf), "\\u%04x", c);
            out += buf;
          } else {
            out += c;
          }
      }
    }
    out += '"';
    return out;
  }

  static std::string Number(double v) {
    // JSON has no NaN/Inf; emit null rather than an invalid token. The
    // range check precedes the cast (casting out-of-range doubles is UB).
    if (!std::isfinite(v)) return "null";
    char buf[64];
    // %.17g round-trips doubles; integral values print without exponent.
    if (v > -1e15 && v < 1e15 &&
        v == static_cast<double>(static_cast<long long>(v))) {
      std::snprintf(buf, sizeof(buf), "%lld", static_cast<long long>(v));
    } else {
      std::snprintf(buf, sizeof(buf), "%.17g", v);
    }
    return buf;
  }

  std::string bench_name_;
  std::vector<std::pair<std::string, double>> meta_;
  std::vector<Entry> entries_;
};

/// The three §6.3 example queries over wiki articles, with paths phrased
/// in this parser's label conventions: Chocolate (low selectivity,
/// path-selective), Title (medium, span-heavy) and DateOfBirth (high).
/// bench_table2_scaleup and bench_odin run literally these texts.
inline constexpr const char* kChocolateQuery = R"(
extract c:Entity from wiki.article if (
  /ROOT:{
    v = //verb,
    o = v//pobj[text="chocolate"],
    s = v/nsubj
  } (s) in (c))
satisfying v
  (v SimilarTo "is" {1})
with threshold 0.9
)";

inline constexpr const char* kTitleQuery = R"(
extract a:Person, b:Str from wiki.article if (
  /ROOT:{
    v = //"called",
    p = v/propn,
    b = p.subtree,
    c = a + ^ + v + ^ + b
  })
)";

inline constexpr const char* kDateOfBirthQuery = R"(
extract a:Person, b:Date from wiki.article if (
  /ROOT:{ v = verb })
satisfying v
  (v SimilarTo "born" {1})
with threshold 0.9
)";

/// Timed runs per measurement in the paper-shaped benches.
inline constexpr int kTimedRuns = 5;

/// The paper-shaped benches' one timing rule: `sample` runs once untimed
/// (its first-run costs, such as a query's first SimilarTo scoring, are
/// not the steady state), then kTimedRuns times, and the median of the
/// timed samples is returned, so one noisy sample cannot move a ratio. `sample` returns a measurement,
/// or a negative value when its run failed; the first failure is
/// returned as is.
template <typename Sample>
double MedianOfWarmRuns(Sample&& sample) {
  const double warm_up = sample();
  if (warm_up < 0) return warm_up;
  std::vector<double> samples;
  for (int i = 0; i < kTimedRuns; ++i) {
    const double value = sample();
    if (value < 0) return value;
    samples.push_back(value);
  }
  const auto middle = samples.begin() + kTimedRuns / 2;
  std::nth_element(samples.begin(), middle, samples.end());
  return *middle;
}

/// Number of index shards the refit fig benches build — the shipped
/// serving configuration (matches bench_workloads' fleet).
inline constexpr size_t kBenchIndexShards = 3;

/// Runs one KOKO query through `engine` under `options` and returns the
/// distinct extracted names (first output column, first-seen order).
inline std::vector<std::string> RunKokoExtraction(Engine& engine,
                                                  const EngineOptions& options,
                                                  const std::string& query_text) {
  auto result = engine.ExecuteText(query_text, options);
  if (!result.ok()) {
    std::fprintf(stderr, "query failed: %s\n", result.status().ToString().c_str());
    return {};
  }
  std::set<std::string> seen;
  std::vector<std::string> values;
  for (const auto& row : result->rows) {
    if (!row.values.empty() && seen.insert(row.values[0]).second) {
      values.push_back(row.values[0]);
    }
  }
  return values;
}

inline void PrintPrfRow(const char* method, double threshold, const PRF& prf) {
  if (threshold >= 0) {
    std::printf("  %-10s t=%.1f  P=%.3f  R=%.3f  F1=%.3f  (tp=%zu fp=%zu fn=%zu)\n",
                method, threshold, prf.precision, prf.recall, prf.f1, prf.tp,
                prf.fp, prf.fn);
  } else {
    std::printf("  %-10s        P=%.3f  R=%.3f  F1=%.3f  (tp=%zu fp=%zu fn=%zu)\n",
                method, prf.precision, prf.recall, prf.f1, prf.tp, prf.fp,
                prf.fn);
  }
}

/// Splits a labeled corpus into train/test halves by document parity.
struct TrainTestSplit {
  std::vector<RawDocument> train_docs;
  std::vector<RawDocument> test_docs;
  std::vector<std::string> train_gold;
  std::vector<std::string> test_gold;
};

inline TrainTestSplit SplitHalf(const LabeledCorpus& corpus) {
  TrainTestSplit split;
  for (size_t i = 0; i < corpus.docs.size(); ++i) {
    if (i % 2 == 0) {
      split.train_docs.push_back(corpus.docs[i]);
      split.train_gold.push_back(corpus.gold[i]);
    } else {
      split.test_docs.push_back(corpus.docs[i]);
      split.test_gold.push_back(corpus.gold[i]);
    }
  }
  return split;
}

}  // namespace bench
}  // namespace koko

#endif  // KOKO_BENCH_BENCH_UTIL_H_
