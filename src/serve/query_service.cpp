#include "serve/query_service.h"

#include <algorithm>

#include "koko/parser.h"

namespace koko {

QueryService::QueryService(const Engine* engine, const Options& options,
                           size_t index_shards)
    : engine_(engine),
      options_(options),
      admission_(options.max_inflight, options.max_queue) {
  ScoreCache::Options cache_options;
  cache_options.num_shards = std::max<size_t>(16, index_shards);
  score_cache_ = std::make_unique<ScoreCache>(cache_options);
  plan_cache_ = std::make_unique<PlanCache>();
}

Result<QueryResult> QueryService::Run(const Query& query) {
  return Run(query, RowSink());
}

Result<QueryResult> QueryService::Run(const Query& query, const RowSink& sink) {
  return Run(query, RunOverrides(), sink);
}

Result<QueryResult> QueryService::Run(const Query& query,
                                      const RunOverrides& overrides,
                                      const RowSink& sink) {
  if (!admission_.Enter()) {
    return Status::Unavailable("admission queue full (max_queue waiters)");
  }
  EngineOptions options = options_.engine;
  options.score_cache = score_cache_.get();
  options.plan_cache = plan_cache_.get();
  if (overrides.max_rows.has_value()) options.max_rows = *overrides.max_rows;
  if (overrides.use_planner.has_value()) {
    options.use_planner = *overrides.use_planner;
  }
  if (sink) options.sink = &sink;
  Result<QueryResult> result = engine_->Execute(query, options);
  admission_.Exit();
  completed_.fetch_add(1, std::memory_order_relaxed);
  return result;
}

Result<QueryResult> QueryService::Run(std::string_view query_text) {
  // Parsing is cheap and per-caller; only execution passes admission.
  auto query = ParseQuery(query_text);
  if (!query.ok()) return query.status();
  return Run(*query);
}

Result<QueryResult> QueryService::Run(std::string_view query_text,
                                      const RowSink& sink) {
  auto query = ParseQuery(query_text);
  if (!query.ok()) return query.status();
  return Run(*query, sink);
}

QueryService::Stats QueryService::stats() const {
  Stats stats;
  // `completed` reads before the admission snapshot so completed <= admitted
  // holds in every observation (a query increments completed_ only after
  // its admission was counted); the admission counters themselves come from
  // one lock acquisition — per-accessor reads could tear (e.g. surface a
  // peak_inflight newer than the admitted count next to it).
  stats.completed = completed_.load(std::memory_order_relaxed);
  const AdmissionQueue::Counters admission = admission_.counters();
  stats.admitted = admission.admitted;
  stats.rejected = admission.rejected;
  stats.peak_inflight = admission.peak_inflight;
  stats.peak_waiting = admission.peak_waiting;
  stats.score_cache = score_cache_->stats();
  stats.plan_cache = plan_cache_->stats();
  return stats;
}

}  // namespace koko
