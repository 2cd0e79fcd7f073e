// Repository benchmark: one closed-loop workload of the shipped stack
// (annotate -> sharded build/save/map-load -> Engine -> QueryService ->
// KokoServer/KokoClient), with every reply checked against a serial
// planner-off reference. README.md in this directory documents the
// workloads, every metric and the traced run.
//
// Usage: koko_perfbench --workload NAME --seed N --seconds S --trace 0|1
//                       [--work-dir DIR]
// Prints a human summary, one `perfbench-report {...}` line (environment,
// fingerprints, per-class p50s) and, last, the result JSON object.
#include <sched.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <map>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "perfbench.h"
#include "util/hash.h"
#include "util/simd.h"

#ifndef KOKO_PERFBENCH_BUILD_TYPE
#define KOKO_PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace perfbench {
namespace {

using namespace koko;

/// Set-ups per run, half before the closed loop and half after it, so
/// their median (setup_s) spans the run rather than its first seconds.
constexpr size_t kSetupReps = 16;
/// Consecutive request blocks whose median p99 is latency_p99_ms.
constexpr size_t kTailBlocks = 3;
/// Probe request ids start here, above any closed-loop slot.
constexpr uint64_t kProbeRequestBase = uint64_t{1} << 40;

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string work_dir = ".";
};

bool ParseArgs(int argc, char** argv, Args* args) {
  bool have_workload = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const char* value = argv[i + 1];
    char* end = nullptr;
    if (key == "--workload") {
      args->workload = value;
      have_workload = true;
    } else if (key == "--seed") {
      args->seed = std::strtoull(value, &end, 10);
    } else if (key == "--seconds") {
      args->seconds = std::strtod(value, &end);
      if (!(args->seconds > 0)) return false;
    } else if (key == "--trace") {
      if (std::strcmp(value, "0") != 0 && std::strcmp(value, "1") != 0) {
        return false;
      }
      args->trace = value[0] == '1';
    } else if (key == "--work-dir") {
      args->work_dir = value;
    } else {
      return false;
    }
    if (end != nullptr && *end != '\0') return false;
  }
  return have_workload && argc % 2 == 1;
}

size_t OnlineCpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) != 0) {
    return std::thread::hardware_concurrency();
  }
  return static_cast<size_t>(CPU_COUNT(&set));
}

double PeakRssMb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
    }
  }
  return 0;
}

std::string Hex(uint64_t value) {
  char buf[24];
  std::snprintf(buf, sizeof(buf), "%016llx",
                static_cast<unsigned long long>(value));
  return buf;
}

/// Counters summed over every served corpus.
struct Counters {
  uint64_t plan_hits = 0, plan_misses = 0;
  uint64_t score_hits = 0, score_misses = 0;
  uint64_t peak_inflight = 0, peak_waiting = 0;
  uint64_t leaders = 0, followers = 0;
  uint64_t protocol_errors = 0;
};

Counters ReadCounters(const Stack& stack) {
  Counters c;
  for (const auto& served : stack.served) {
    const QueryService::Stats s = served->service->stats();
    c.plan_hits += s.plan_cache.hits;
    c.plan_misses += s.plan_cache.misses;
    c.score_hits += s.score_cache.hits;
    c.score_misses += s.score_cache.misses;
    c.peak_inflight = std::max(c.peak_inflight, s.peak_inflight);
    c.peak_waiting = std::max(c.peak_waiting, s.peak_waiting);
    if (served->server != nullptr) {
      const net::KokoServer::Stats n = served->server->stats();
      c.leaders += n.batch.leaders;
      c.followers += n.batch.followers;
      c.protocol_errors += n.protocol_errors;
    }
  }
  return c;
}

double Ratio(double num, double den) { return den > 0 ? num / den : 0; }

/// Nearest-rank percentile (q in [0, 1]); 0 for an empty sample.
double Percentile(std::vector<double> values, double q) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  const double rank = std::ceil(q * static_cast<double>(values.size()));
  const size_t index = rank < 1 ? 0 : static_cast<size_t>(rank) - 1;
  return values[std::min(index, values.size() - 1)];
}

double Median(std::vector<double> values) {
  return Percentile(std::move(values), 0.5);
}

/// Folds the bytes of `value` into an FNV-1a fingerprint.
template <typename T>
uint64_t Fold(uint64_t fingerprint, const T& value) {
  return Fnv1a64(std::string_view(reinterpret_cast<const char*>(&value),
                                  sizeof(value)),
                 fingerprint);
}

/// One successful request of the closed loop.
struct Sample {
  double done_ms = 0;  ///< Completion, since the loop started.
  double latency_ms = 0;
  uint32_t query = 0;
};

struct LoopResult {
  std::vector<Sample> samples;  ///< In completion order.
  uint64_t attempted = 0;
  uint64_t errors = 0;
  uint64_t refusals = 0;
  uint64_t protocol_errors = 0;
  uint64_t mismatches = 0;
  double wall_s = 0;
};

/// Closed loop: `clients` threads claim schedule slots off one cursor and
/// send the next request only when the previous reply is complete.
/// With `logs` non-null, every request is also a span in its client's log.
LoopResult RunLoop(const Stack& stack, const Inputs& inputs, double seconds,
                   std::vector<SpanLog>* logs) {
  const Config& config = inputs.config;
  std::vector<LoopResult> per_client(config.clients);
  std::atomic<uint64_t> cursor{0};
  const auto start = Clock::now();
  const auto deadline =
      start + std::chrono::duration_cast<Clock::duration>(
                  std::chrono::duration<double>(seconds));
  const char* span_name = config.wire ? "net.request" : "serve.run";
  std::vector<std::thread> threads;
  for (size_t t = 0; t < config.clients; ++t) {
    threads.emplace_back([&, t]() {
      LoopResult& out = per_client[t];
      auto client = Client::Connect(stack, config.wire);
      if (!client.ok()) {
        ++out.attempted;
        ++out.protocol_errors;
        return;
      }
      while (Clock::now() < deadline) {
        const uint64_t slot = cursor.fetch_add(1);
        const uint32_t qi = inputs.schedule[slot % inputs.schedule.size()];
        const BenchQuery& query = inputs.queries[qi];
        SpanLog* log = logs != nullptr ? &(*logs)[t] : nullptr;
        size_t span = 0;
        if (log != nullptr) span = log->Begin(span_name, slot + 1);
        const auto sent = Clock::now();
        const Reply reply = client->Send(query);
        const auto done = Clock::now();
        if (log != nullptr) {
          log->End(span);
          log->Attach(span, reply);
        }
        ++out.attempted;
        if (!reply.ok) {
          if (reply.refused) {
            ++out.refusals;
          } else if (reply.protocol_error) {
            ++out.protocol_errors;
          } else {
            ++out.errors;
          }
          continue;
        }
        if (reply.mismatch) ++out.mismatches;
        out.samples.push_back(
            {std::chrono::duration<double, std::milli>(done - start).count(),
             std::chrono::duration<double, std::milli>(done - sent).count(),
             qi});
      }
    });
  }
  for (std::thread& t : threads) t.join();
  LoopResult total;
  total.wall_s = std::chrono::duration<double>(Clock::now() - start).count();
  for (LoopResult& r : per_client) {
    total.samples.insert(total.samples.end(), r.samples.begin(),
                         r.samples.end());
    total.attempted += r.attempted;
    total.errors += r.errors;
    total.refusals += r.refusals;
    total.protocol_errors += r.protocol_errors;
    total.mismatches += r.mismatches;
  }
  std::sort(total.samples.begin(), total.samples.end(),
            [](const Sample& a, const Sample& b) { return a.done_ms < b.done_ms; });
  return total;
}

/// The loop's p99: the median of the 99th percentiles of kTailBlocks
/// consecutive blocks of requests, so a burst of interference from other
/// tenants of the machine moves one block's tail, not the metric.
double BlockedP99(const std::vector<Sample>& samples) {
  std::vector<double> block_p99;
  const size_t n = samples.size();
  for (size_t b = 0; b < kTailBlocks; ++b) {
    std::vector<double> block;
    for (size_t i = b * n / kTailBlocks; i < (b + 1) * n / kTailBlocks; ++i) {
      block.push_back(samples[i].latency_ms);
    }
    block_p99.push_back(Percentile(std::move(block), 0.99));
  }
  return Median(std::move(block_p99));
}

/// Ordered (name, value, unit) list printed as the result's metrics.
using Metrics = std::vector<std::tuple<std::string, double, std::string>>;

std::vector<const Span*> SpansNamed(const std::vector<Span>& spans,
                                    const char* name) {
  std::vector<const Span*> out;
  for (const Span& s : spans) {
    if (std::strcmp(s.name, name) == 0) out.push_back(&s);
  }
  return out;
}

template <typename Fn>
double P50(const std::vector<const Span*>& spans, Fn value) {
  std::vector<double> values;
  for (const Span* s : spans) values.push_back(value(*s));
  return Median(std::move(values));
}

double TopLevelPhaseMs(const Span& s) {
  // GSP is charged inside the extract phase; the other five do not nest.
  double total = 0;
  for (size_t p = 0; p < kPhaseNames.size(); ++p) {
    if (std::strcmp(kPhaseNames[p], "GSP") != 0) total += s.phase_ms[p];
  }
  return total;
}

size_t PhaseIndex(const char* name) {
  for (size_t p = 0; p < kPhaseNames.size(); ++p) {
    if (std::strcmp(kPhaseNames[p], name) == 0) return p;
  }
  std::abort();
}

Metrics LayerMetrics(const Stack& stack, const std::vector<SetupTimes>& reps,
                     const std::vector<Span>& spans, size_t loop_spans,
                     const Counters& before, const Counters& after,
                     double traced_qps) {
  auto median_of = [&](double SetupTimes::*field) {
    std::vector<double> values;
    for (const SetupTimes& r : reps) values.push_back(r.*field);
    return Median(values);
  };
  const auto run = SpansNamed(spans, "serve.run");
  const auto execute = SpansNamed(spans, "koko.execute");
  const auto candidates = SpansNamed(spans, "index.candidates");
  const auto requests = SpansNamed(spans, "net.request");
  const auto encode = SpansNamed(spans, "net.encode");
  const auto decode = SpansNamed(spans, "net.decode");
  auto duration = [](const Span& s) { return s.duration_ms(); };
  auto phase = [&](const char* name) {
    const size_t p = PhaseIndex(name);
    return P50(run, [p](const Span& s) { return s.phase_ms[p]; });
  };

  double dpli = 0, phased = 0;
  for (const Span* s : run) {
    dpli += s->phase_ms[PhaseIndex("DPLI")];
    phased += TopLevelPhaseMs(*s);
  }
  double rows = 0, scanned = 0, cands = 0;
  for (size_t i = 0; i < loop_spans; ++i) {
    rows += static_cast<double>(spans[i].rows);
    scanned += static_cast<double>(spans[i].scanned);
    cands += static_cast<double>(spans[i].candidates);
  }
  // Same probe request: wire round trip minus the in-process service call.
  std::map<uint64_t, double> served_ms;
  for (const Span* s : run) {
    if (s->request >= kProbeRequestBase) served_ms[s->request] = s->duration_ms();
  }
  std::vector<double> overhead;
  for (const Span* s : requests) {
    auto it = served_ms.find(s->request);
    if (it != served_ms.end()) overhead.push_back(s->duration_ms() - it->second);
  }
  double encode_ms = 0, decode_ms = 0, encoded_rows = 0, encoded_bytes = 0;
  for (const Span* s : encode) {
    encode_ms += s->duration_ms();
    encoded_rows += static_cast<double>(s->rows);
    encoded_bytes += static_cast<double>(s->bytes);
  }
  for (const Span* s : decode) decode_ms += s->duration_ms();
  const double plan_lookups = static_cast<double>(
      after.plan_hits + after.plan_misses - before.plan_hits - before.plan_misses);
  const double score_lookups =
      static_cast<double>(after.score_hits + after.score_misses -
                          before.score_hits - before.score_misses);
  const double batch_requests = static_cast<double>(
      after.leaders + after.followers - before.leaders - before.followers);

  return {
      {"nlp.annotate_s", median_of(&SetupTimes::annotate_s), "s"},
      {"index.build_s", median_of(&SetupTimes::build_s), "s"},
      {"index.save_s", median_of(&SetupTimes::save_s), "s"},
      {"index.load_s", median_of(&SetupTimes::load_s), "s"},
      {"index.image_bytes", static_cast<double>(stack.ImageBytes()), "bytes"},
      {"index.resident_posting_bytes",
       static_cast<double>(stack.ResidentPostingBytes()), "bytes"},
      {"index.candidates_ms", P50(candidates, duration), "ms"},
      {"index.candidates_per_query",
       P50(candidates,
           [](const Span& s) { return static_cast<double>(s.candidates); }),
       "count"},
      {"koko.parse_ms", P50(SpansNamed(spans, "koko.parse"), duration), "ms"},
      {"koko.compile_ms", P50(SpansNamed(spans, "koko.compile"), duration),
       "ms"},
      {"koko.plan_ms", P50(SpansNamed(spans, "koko.plan"), duration), "ms"},
      {"koko.plan_cache_hit_rate",
       Ratio(static_cast<double>(after.plan_hits - before.plan_hits),
             plan_lookups),
       "ratio"},
      {"koko.score_cache_hit_rate",
       Ratio(static_cast<double>(after.score_hits - before.score_hits),
             score_lookups),
       "ratio"},
      {"koko.dpli_ms", phase("DPLI"), "ms"},
      {"koko.load_article_ms", phase("LoadArticle"), "ms"},
      {"koko.gsp_ms", phase("GSP"), "ms"},
      {"koko.extract_ms", phase("extract"), "ms"},
      {"koko.satisfying_ms", phase("satisfying"), "ms"},
      {"koko.dpli_share", Ratio(dpli, phased), "ratio"},
      {"koko.unattributed_ms",
       P50(execute,
           [](const Span& s) { return s.duration_ms() - TopLevelPhaseMs(s); }),
       "ms"},
      {"koko.rows_per_candidate", Ratio(rows, cands), "ratio"},
      {"koko.scanned_per_candidate", Ratio(scanned, cands), "ratio"},
      {"serve.run_ms", P50(run, duration), "ms"},
      {"serve.peak_inflight", static_cast<double>(after.peak_inflight),
       "count"},
      {"serve.peak_waiting", static_cast<double>(after.peak_waiting), "count"},
      {"serve.batch_follower_share",
       Ratio(static_cast<double>(after.followers - before.followers),
             batch_requests),
       "ratio"},
      {"net.request_ms", P50(requests, duration), "ms"},
      {"net.overhead_ms", Median(overhead), "ms"},
      {"net.encode_us_per_row", Ratio(encode_ms * 1e3, encoded_rows), "us"},
      {"net.decode_us_per_row", Ratio(decode_ms * 1e3, encoded_rows), "us"},
      {"net.bytes_per_row", Ratio(encoded_bytes, encoded_rows), "bytes"},
      {"net.protocol_errors", static_cast<double>(after.protocol_errors),
       "count"},
      {"trace.throughput_qps", traced_qps, "1/s"},
  };
}

void PrintMetrics(const Metrics& metrics) {
  for (const auto& [name, value, unit] : metrics) {
    std::printf("  %-30s %16.6f %s\n", name.c_str(), value, unit.c_str());
  }
}

std::string MetricsJson(const Metrics& metrics) {
  std::string out = "{";
  char buf[128];
  for (size_t i = 0; i < metrics.size(); ++i) {
    const auto& [name, value, unit] = metrics[i];
    std::snprintf(buf, sizeof(buf), "%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                  i == 0 ? "" : ", ", name.c_str(), value, unit.c_str());
    out += buf;
  }
  return out + "}";
}

int Run(const Args& args) {
  Config config;
  if (!ConfigFor(args.workload, &config)) {
    std::fprintf(stderr, "unknown workload '%s' (wiki_dpli, wiki_extract, "
                 "replay_wire)\n", args.workload.c_str());
    return 2;
  }
#ifndef __OPTIMIZE__
  std::fprintf(stderr, "refusing to measure an unoptimised build (%s)\n",
               KOKO_PERFBENCH_BUILD_TYPE);
  return 2;
#endif
  const size_t nproc = OnlineCpus();
  if (config.BusyThreadBudget() > nproc) {
    std::fprintf(stderr,
                 "refusing: %s may keep %zu threads busy but nproc is %zu\n",
                 config.name.c_str(), config.BusyThreadBudget(), nproc);
    return 2;
  }

  Inputs inputs;
  Status status = MakeInputs(config, args.seed, &inputs);
  if (!status.ok()) {
    std::fprintf(stderr, "input generation failed: %s\n",
                 status.ToString().c_str());
    return 1;
  }

  Stack stack;
  std::vector<SetupTimes> reps(kSetupReps);
  auto set_up = [&](size_t begin, size_t end) {
    for (size_t r = begin; r < end; ++r) {
      const Status s = SetUp(inputs, args.work_dir, config.wire, &stack, &reps[r]);
      if (!s.ok()) {
        std::fprintf(stderr, "set-up failed: %s\n", s.ToString().c_str());
        return false;
      }
    }
    return true;
  };
  if (!set_up(0, kSetupReps / 2)) return 1;
  status = ComputeReferences(stack, &inputs);
  if (status.ok()) status = FinishInputs(stack, &inputs);
  if (!status.ok()) {
    std::fprintf(stderr, "%s\n", status.ToString().c_str());
    return 1;
  }

  // Warm-up: every distinct request once through the measured path, so
  // the plan and score caches and the mapped pages are filled.
  {
    auto client = Client::Connect(stack, config.wire);
    if (!client.ok()) {
      std::fprintf(stderr, "warm-up connect failed: %s\n",
                   client.status().ToString().c_str());
      return 1;
    }
    for (const BenchQuery& q : inputs.queries) {
      const Reply reply = client->Send(q);
      if (!reply.ok || reply.mismatch) {
        std::fprintf(stderr, "warm-up request %s %s\n", q.name.c_str(),
                     reply.ok ? "returned rows that differ from the reference"
                              : "failed");
        return 1;
      }
    }
  }

  const Clock::time_point epoch = Clock::now();
  const Counters before = ReadCounters(stack);
  std::vector<SpanLog> logs;
  if (args.trace) logs.assign(config.clients, SpanLog(epoch));
  const LoopResult loop =
      RunLoop(stack, inputs, args.seconds, args.trace ? &logs : nullptr);
  const Counters after = ReadCounters(stack);

  std::vector<double> latencies;
  for (const Sample& sample : loop.samples) latencies.push_back(sample.latency_ms);
  const uint64_t ok_requests = latencies.size();
  const uint64_t server_protocol_errors =
      after.protocol_errors - before.protocol_errors;
  const uint64_t failed = loop.errors + loop.refusals + loop.protocol_errors +
                          loop.mismatches + server_protocol_errors;
  const double throughput = static_cast<double>(ok_requests) / loop.wall_s;
  const double p50 = Percentile(latencies, 0.50);
  const double p99 = BlockedP99(loop.samples);

  // Median-density guard and per-class p50.
  size_t near_p50 = 0;
  for (double ms : latencies) {
    if (ms >= 0.9 * p50 && ms <= 1.1 * p50) ++near_p50;
  }
  std::map<std::string, std::vector<double>> by_class;
  for (const Sample& sample : loop.samples) {
    by_class[inputs.queries[sample.query].cls].push_back(sample.latency_ms);
  }

  uint64_t schedule_fp = Fnv1a64("");
  for (uint32_t qi : inputs.schedule) schedule_fp = Fold(schedule_fp, qi);
  uint64_t queries_fp = Fnv1a64("");
  uint64_t digests_fp = Fnv1a64("");
  for (const BenchQuery& q : inputs.queries) {
    queries_fp = Fnv1a64(q.text, queries_fp);
    queries_fp = Fold(Fold(queries_fp, q.max_rows), q.corpus);
    digests_fp = Fold(digests_fp, q.digest);
  }

  size_t probe_mismatches = 0;
  std::vector<Span> spans;
  size_t loop_spans = 0;
  if (args.trace) {
    for (const SpanLog& log : logs) loop_spans += log.spans().size();
    logs.emplace_back(epoch);
    status = RunLayerProbe(&stack, inputs, kProbeRequestBase, &logs.back(),
                           &probe_mismatches);
    if (!status.ok()) {
      std::fprintf(stderr, "layer probe failed: %s\n", status.ToString().c_str());
      return 1;
    }
    spans = MergeLogs(logs);
  }

  if (!set_up(kSetupReps / 2, kSetupReps)) return 1;
  std::vector<double> setup_totals;
  for (const SetupTimes& rep : reps) setup_totals.push_back(rep.Total());

  Metrics metrics;
  if (!args.trace) {
    metrics = {
        {"throughput_qps", throughput, "1/s"},
        {"latency_p50_ms", p50, "ms"},
        {"latency_p99_ms", p99, "ms"},
        {"setup_s", Median(setup_totals), "s"},
        {"index_bytes_per_text_byte",
         Ratio(static_cast<double>(stack.ImageBytes()),
               static_cast<double>(stack.TextBytes())),
         "ratio"},
        {"peak_rss_mb", PeakRssMb(), "MB"},
    };
  } else {
    metrics = LayerMetrics(stack, reps, spans, loop_spans, before, after,
                           throughput);
    std::printf("self time by span (ms, summed):\n");
    for (const auto& [name, ms] : SelfTimesMs(spans)) {
      std::printf("  %-20s %12.3f\n", name.c_str(), ms);
    }
    const std::string trace_path = args.work_dir + "/trace-" + config.name +
                                   "-" + std::to_string(args.seed) + ".json";
    if (!WriteTrace(trace_path, spans)) {
      std::fprintf(stderr, "cannot write %s\n", trace_path.c_str());
      return 1;
    }
    std::printf("spans written to %s\n", trace_path.c_str());
  }

  const double error_rate = Ratio(static_cast<double>(failed),
                                  static_cast<double>(loop.attempted));
  std::printf("%s seed=%llu trace=%d: %llu requests in %.2fs, %zu distinct, "
              "%zu classes\n",
              config.name.c_str(), static_cast<unsigned long long>(args.seed),
              args.trace ? 1 : 0,
              static_cast<unsigned long long>(loop.attempted), loop.wall_s,
              inputs.queries.size(), by_class.size());
  PrintMetrics(metrics);
  std::printf("  %-30s %16.6f %s\n", "error_rate", error_rate, "ratio");
  for (const auto& [cls, values] : by_class) {
    std::printf("  p50[%s] = %.3f ms over %zu\n", cls.c_str(),
                Median(values), values.size());
  }

  // One-line machine-readable record of the run's environment and inputs.
  std::string classes;
  for (const auto& [cls, values] : by_class) {
    char buf[160];
    std::snprintf(buf, sizeof(buf), "%s\"%s\": {\"p50_ms\": %.6f, \"samples\": %zu}",
                  classes.empty() ? "" : ", ", cls.c_str(), Median(values),
                  values.size());
    classes += buf;
  }
  std::string setup_list;
  for (double total : setup_totals) {
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%s%.6f", setup_list.empty() ? "" : ", ",
                  total);
    setup_list += buf;
  }
  std::printf(
      "perfbench-report {\"workload\": \"%s\", \"seed\": %llu, \"trace\": %d, "
      "\"env\": {\"nproc\": %zu, \"isa\": \"%s\", \"build_type\": \"%s\", "
      "\"clients\": %zu, \"pool_workers\": %zu, \"max_inflight\": %zu, "
      "\"busy_thread_budget\": %zu, \"index_shards\": %zu, "
      "\"setup_reps\": %zu}, "
      "\"corpus\": {\"documents\": %zu, \"sentences\": %zu, "
      "\"text_bytes\": %llu, \"served_corpora\": %zu}, "
      "\"inputs\": {\"distinct_queries\": %zu, \"schedule_length\": %zu, "
      "\"schedule_fp\": \"%s\", \"queries_fp\": \"%s\", \"digests_fp\": \"%s\"}, "
      "\"samples\": %llu, \"attempted\": %llu, \"errors\": %llu, "
      "\"refusals\": %llu, \"protocol_errors\": %llu, \"mismatches\": %llu, "
      "\"probe_mismatches\": %zu, \"error_rate\": %.17g, "
      "\"p50_density\": %.6f, \"setup_reps_s\": [%s], \"classes\": {%s}}\n",
      config.name.c_str(), static_cast<unsigned long long>(args.seed),
      args.trace ? 1 : 0, nproc, simd::ActiveIsaName(),
      KOKO_PERFBENCH_BUILD_TYPE, config.clients, config.pool_workers,
      config.max_inflight, config.BusyThreadBudget(), kIndexShards,
      kSetupReps, stack.Documents(), stack.Sentences(),
      static_cast<unsigned long long>(stack.TextBytes()), stack.served.size(),
      inputs.queries.size(), inputs.schedule.size(), Hex(schedule_fp).c_str(),
      Hex(queries_fp).c_str(), Hex(digests_fp).c_str(),
      static_cast<unsigned long long>(ok_requests),
      static_cast<unsigned long long>(loop.attempted),
      static_cast<unsigned long long>(loop.errors),
      static_cast<unsigned long long>(loop.refusals),
      static_cast<unsigned long long>(loop.protocol_errors + server_protocol_errors),
      static_cast<unsigned long long>(loop.mismatches), probe_mismatches,
      error_rate,
      Ratio(static_cast<double>(near_p50),
            static_cast<double>(latencies.size())),
      setup_list.c_str(), classes.c_str());

  for (auto& served : stack.served) {
    if (served->server != nullptr) served->server->Stop();
  }
  const bool correct = loop.mismatches == 0 && probe_mismatches == 0;
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": %s}\n",
              correct ? "true" : "false",
              static_cast<unsigned long long>(loop.attempted),
              static_cast<unsigned long long>(failed),
              MetricsJson(metrics).c_str());
  std::fflush(stdout);
  return correct && failed == 0 && ok_requests > 0 ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  perfbench::Args args;
  if (!perfbench::ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: %s --workload wiki_dpli|wiki_extract|replay_wire "
                 "--seed N --seconds S --trace 0|1 [--work-dir DIR]\n",
                 argv[0]);
    return 2;
  }
  return perfbench::Run(args);
}
