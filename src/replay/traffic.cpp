#include "replay/traffic.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <thread>

#include "net/client.h"
#include "net/server.h"
#include "util/rng.h"

namespace koko {
namespace replay {

namespace {

using Clock = std::chrono::steady_clock;

/// One slot of the deterministic schedule.
struct Slot {
  size_t target = 0;
  size_t query = 0;
  /// Scheduled arrival offset from phase start (closed loop ignores it).
  double arrival_seconds = 0;
};

/// What one executed slot produced. Each record is written by exactly one
/// worker (slots are claimed off an atomic cursor), so the vector needs no
/// locking.
struct SlotRecord {
  bool error = false;
  bool digest_mismatch = false;
  bool early_terminated = false;
  size_t rows = 0;
  uint64_t scanned_candidates = 0;
  uint64_t candidate_sentences = 0;
  bool planned = false;
  uint64_t filtered_paths = 0;
  double latency_ms = 0;
};

std::vector<Slot> BuildSchedule(const std::vector<ReplayTarget>& targets,
                                const TrafficOptions& options) {
  Rng rng(options.seed);
  std::vector<Slot> schedule;
  schedule.reserve(options.queries);
  double arrival = 0;
  for (size_t i = 0; i < options.queries; ++i) {
    Slot slot;
    slot.target = rng.Uniform(targets.size());
    const Workload& workload = *targets[slot.target].workload;
    if (workload.queries.empty()) continue;
    slot.query = rng.Uniform(workload.queries.size());
    // Exponential inter-arrival gap (Poisson process), drawn in both modes
    // so closed and open loop replay the same slots. Clamp the uniform
    // away from 0 so the log stays finite.
    double u = rng.UniformDouble();
    if (u < 1e-12) u = 1e-12;
    arrival += -std::log(u) / options.open_rate_qps;
    slot.arrival_seconds = arrival;
    schedule.push_back(slot);
  }
  return schedule;
}

/// Runs one slot in process, or over `client` when the target is served.
/// An unconnected client (its Connect failed) fails every slot it gets.
void RunSlot(const ReplayTarget& target, size_t query_index,
             net::KokoClient* client, SlotRecord* record) {
  const WorkloadQuery& query = target.workload->queries[query_index];
  uint64_t digest = 0;
  if (target.server != nullptr) {
    if (!client->valid()) {
      record->error = true;
      return;
    }
    net::NetRequest request;
    request.query_text = query.text;
    auto wire = client->Query(request);
    if (!wire.ok() || !wire->status.ok()) {
      record->error = true;
      return;
    }
    record->rows = wire->rows.size();
    record->early_terminated = wire->done.early_terminated;
    record->scanned_candidates = wire->done.scanned_candidates;
    record->candidate_sentences = wire->done.candidate_sentences;
    digest = RowDigest(wire->rows);
  } else {
    auto result = target.service->Run(query.query);
    if (!result.ok()) {
      record->error = true;
      return;
    }
    record->rows = result->rows.size();
    record->early_terminated = result->early_terminated;
    record->scanned_candidates = result->scanned_candidates;
    record->candidate_sentences = result->candidate_sentences;
    if (result->plan != nullptr) {
      record->planned = true;
      const std::vector<PlannedAtom>& atoms = result->plan->atoms;
      for (size_t i = 1; i < result->plan_actuals.size(); ++i) {
        if (atoms[i].kind == PlannedAtom::Kind::kPath) ++record->filtered_paths;
      }
    }
    digest = RowDigest(*result);
  }
  if (!target.expected_digests.empty()) {
    record->digest_mismatch = digest != target.expected_digests[query_index];
  }
}

LatencyStats SummarizeLatencies(std::vector<double>* latencies_ms) {
  LatencyStats stats;
  if (latencies_ms->empty()) return stats;
  std::sort(latencies_ms->begin(), latencies_ms->end());
  const size_t n = latencies_ms->size();
  auto quantile = [&](double q) {
    size_t idx = static_cast<size_t>(q * static_cast<double>(n - 1));
    return (*latencies_ms)[idx];
  };
  stats.p50_ms = quantile(0.5);
  stats.p99_ms = quantile(0.99);
  stats.max_ms = latencies_ms->back();
  double sum = 0;
  for (double v : *latencies_ms) sum += v;
  stats.mean_ms = sum / static_cast<double>(n);
  return stats;
}

PhaseReport RunPhase(const std::string& phase_name,
                     const std::vector<ReplayTarget>& targets,
                     const std::vector<Slot>& schedule,
                     const TrafficOptions& options) {
  std::vector<QueryService::Stats> before;
  before.reserve(targets.size());
  for (const ReplayTarget& target : targets) {
    before.push_back(target.service->stats());
  }

  std::vector<SlotRecord> records(schedule.size());
  std::atomic<size_t> cursor{0};
  const Clock::time_point phase_start = Clock::now();
  const bool open_loop = options.arrival == ArrivalProcess::kOpen;

  auto worker = [&]() {
    // One persistent connection per served target, as a real client holds.
    std::vector<net::KokoClient> clients(targets.size());
    for (size_t t = 0; t < targets.size(); ++t) {
      if (targets[t].server == nullptr) continue;
      auto client = net::KokoClient::Connect(targets[t].server->port());
      if (client.ok()) clients[t] = std::move(*client);
    }
    for (;;) {
      const size_t i = cursor.fetch_add(1, std::memory_order_relaxed);
      if (i >= schedule.size()) return;
      const Slot& slot = schedule[i];
      Clock::time_point issue = phase_start;
      if (open_loop) {
        // Latency is measured from the *scheduled* arrival: if every
        // client is busy past the arrival time, the wait shows up as
        // latency instead of silently stretching the schedule
        // (coordinated omission).
        issue = phase_start + std::chrono::duration_cast<Clock::duration>(
                                  std::chrono::duration<double>(
                                      slot.arrival_seconds));
        std::this_thread::sleep_until(issue);
      } else {
        issue = Clock::now();
      }
      RunSlot(targets[slot.target], slot.query, &clients[slot.target],
              &records[i]);
      records[i].latency_ms =
          std::chrono::duration<double, std::milli>(Clock::now() - issue)
              .count();
    }
  };

  const size_t num_workers = std::max<size_t>(1, options.clients);
  std::vector<std::thread> workers;
  workers.reserve(num_workers);
  for (size_t i = 0; i < num_workers; ++i) workers.emplace_back(worker);
  for (std::thread& t : workers) t.join();

  PhaseReport report;
  report.phase = phase_name;
  report.wall_seconds =
      std::chrono::duration<double>(Clock::now() - phase_start).count();
  report.classes.resize(targets.size());
  std::vector<std::vector<double>> latencies(targets.size());
  for (size_t i = 0; i < schedule.size(); ++i) {
    const Slot& slot = schedule[i];
    const SlotRecord& record = records[i];
    ClassReport& cls = report.classes[slot.target];
    ++cls.queries;
    cls.rows += record.rows;
    if (record.error) ++cls.errors;
    if (record.digest_mismatch) ++cls.digest_mismatches;
    if (record.early_terminated) ++cls.early_terminated;
    cls.scanned_candidates += record.scanned_candidates;
    cls.candidate_sentences += record.candidate_sentences;
    if (record.planned) ++cls.planned_queries;
    cls.filtered_paths += record.filtered_paths;
    latencies[slot.target].push_back(record.latency_ms);
  }
  for (size_t t = 0; t < targets.size(); ++t) {
    report.classes[t].name = targets[t].workload->name;
    report.classes[t].latency = SummarizeLatencies(&latencies[t]);
    const QueryService::Stats after = targets[t].service->stats();
    report.classes[t].score_cache_hits =
        after.score_cache.hits - before[t].score_cache.hits;
    report.classes[t].score_cache_misses =
        after.score_cache.misses - before[t].score_cache.misses;
    report.classes[t].plan_cache_hits =
        after.plan_cache.hits - before[t].plan_cache.hits;
    report.classes[t].plan_cache_misses =
        after.plan_cache.misses - before[t].plan_cache.misses;
  }
  return report;
}

}  // namespace

ReplayReport ReplayTraffic(const std::vector<ReplayTarget>& targets,
                           const TrafficOptions& options) {
  ReplayReport report;
  if (targets.empty()) return report;
  const std::vector<Slot> schedule = BuildSchedule(targets, options);
  report.cold = RunPhase("cold", targets, schedule, options);
  report.warm = RunPhase("warm", targets, schedule, options);
  return report;
}

}  // namespace replay
}  // namespace koko
