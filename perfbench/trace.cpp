// Traced run support: in-memory spans recorded around calls into the
// layers, the serial layer probe, and span self times.
#include <algorithm>
#include <cstdio>

#include "koko/compile.h"
#include "koko/parser.h"
#include "koko/planner.h"
#include "net/frame.h"
#include "perfbench.h"

namespace perfbench {

using namespace koko;

double SpanLog::NowMs() const {
  return std::chrono::duration<double, std::milli>(Clock::now() - epoch_)
      .count();
}

size_t SpanLog::Begin(const char* name, uint64_t request, int64_t parent) {
  Span span;
  span.name = name;
  span.request = request;
  span.parent = parent;
  span.start_ms = NowMs();
  spans_.push_back(span);
  return spans_.size() - 1;
}

void SpanLog::End(size_t span) { spans_[span].end_ms = NowMs(); }

void SpanLog::Attach(size_t span, const Reply& reply) {
  Span& s = spans_[span];
  s.has_counts = true;
  s.rows = reply.rows;
  s.candidates = reply.candidates;
  s.scanned = reply.scanned;
  if (reply.has_phases) {
    s.has_phases = true;
    for (size_t p = 0; p < kPhaseNames.size(); ++p) {
      s.phase_ms[p] = reply.phases.Get(kPhaseNames[p]) * 1e3;
    }
  }
}

std::vector<Span> MergeLogs(const std::vector<SpanLog>& logs) {
  std::vector<Span> merged;
  for (const SpanLog& log : logs) {
    const int64_t offset = static_cast<int64_t>(merged.size());
    for (Span span : log.spans()) {
      if (span.parent >= 0) span.parent += offset;
      merged.push_back(span);
    }
  }
  return merged;
}

Status RunLayerProbe(Stack* stack, const Inputs& inputs, uint64_t first_request,
                     SpanLog* log, size_t* mismatches) {
  KOKO_RETURN_IF_ERROR(StartServers(stack));
  auto in_process = Client::Connect(*stack, /*wire=*/false);
  if (!in_process.ok()) return in_process.status();
  auto wire = Client::Connect(*stack, /*wire=*/true);
  if (!wire.ok()) return wire.status();

  for (size_t i = 0; i < inputs.queries.size(); ++i) {
    const BenchQuery& q = inputs.queries[i];
    const Served& served = *stack->served[q.corpus];
    const uint64_t request = first_request + i;
    const auto root = static_cast<int64_t>(log->Begin("probe", request));

    size_t span = log->Begin("koko.parse", request, root);
    auto parsed = ParseQuery(q.text);
    log->End(span);
    if (!parsed.ok()) return parsed.status();

    span = log->Begin("koko.compile", request, root);
    auto compiled = CompileQuery(*parsed);
    log->End(span);
    if (!compiled.ok()) return compiled.status();

    // Per shard, as the engine does: the shard ordinal salts the plan key.
    const ShardedKokoIndex& index = *served.index;
    std::vector<std::shared_ptr<const QueryPlan>> plans;
    span = log->Begin("koko.plan", request, root);
    for (size_t s = 0; s < index.num_shards(); ++s) {
      plans.push_back(GetOrBuildPlan(index.shard(s), *compiled,
                                     PlannerOptions(),
                                     &served.service->plan_cache(), s));
    }
    log->End(span);

    span = log->Begin("index.candidates", request, root);
    uint64_t candidates = 0;
    for (size_t s = 0; s < index.num_shards(); ++s) {
      const PlannedCandidates planned =
          CollectPlannedCandidates(index.shard(s), *compiled, *plans[s]);
      candidates += planned.pruned ? planned.sids.size()
                                   : index.shard_range(s).end -
                                         index.shard_range(s).begin;
    }
    log->End(span);
    log->at(span).has_counts = true;
    log->at(span).candidates = candidates;

    EngineOptions options;
    options.plan_cache = &served.service->plan_cache();
    options.score_cache = &served.service->score_cache();
    if (q.max_rows != 0) options.max_rows = q.max_rows;
    span = log->Begin("koko.execute", request, root);
    auto executed = served.engine->Execute(*parsed, options);
    log->End(span);
    if (!executed.ok()) return executed.status();
    Reply direct;
    direct.ok = true;
    direct.rows = executed->rows.size();
    direct.candidates = executed->candidate_sentences;
    direct.scanned = executed->scanned_candidates;
    direct.has_phases = true;
    direct.phases = executed->phases;
    log->Attach(span, direct);
    if (replay::RowDigest(*executed) != q.digest) ++*mismatches;

    span = log->Begin("serve.run", request, root);
    Reply served_reply = in_process->Send(q, /*keep_rows=*/true);
    log->End(span);
    log->Attach(span, served_reply);
    if (!served_reply.ok || served_reply.mismatch) ++*mismatches;

    span = log->Begin("net.request", request, root);
    const Reply wire_reply = wire->Send(q);
    log->End(span);
    log->Attach(span, wire_reply);
    if (!wire_reply.ok || wire_reply.mismatch) ++*mismatches;

    const std::vector<ResultRow>& rows = served_reply.result_rows;
    span = log->Begin("net.encode", request, root);
    const std::vector<uint8_t> payload =
        net::EncodeRowsPayload(rows, 0, rows.size());
    log->End(span);
    log->at(span).has_counts = true;
    log->at(span).rows = rows.size();
    log->at(span).bytes = payload.size();

    span = log->Begin("net.decode", request, root);
    auto decoded = net::DecodeRowsPayload(payload.data(), payload.size());
    log->End(span);
    log->at(span).has_counts = true;
    log->at(span).rows = rows.size();
    if (!decoded.ok() || replay::RowDigest(*decoded) != q.digest) ++*mismatches;

    log->End(static_cast<size_t>(root));
  }
  return Status::OK();
}

std::map<std::string, double> SelfTimesMs(const std::vector<Span>& spans) {
  std::vector<std::vector<size_t>> children(spans.size());
  for (size_t i = 0; i < spans.size(); ++i) {
    if (spans[i].parent >= 0) {
      children[static_cast<size_t>(spans[i].parent)].push_back(i);
    }
  }
  std::map<std::string, double> self;
  for (size_t i = 0; i < spans.size(); ++i) {
    const Span& span = spans[i];
    // Union of the children's intervals, clipped to this span.
    std::vector<std::pair<double, double>> covered;
    for (size_t c : children[i]) {
      covered.emplace_back(std::max(spans[c].start_ms, span.start_ms),
                           std::min(spans[c].end_ms, span.end_ms));
    }
    std::sort(covered.begin(), covered.end());
    double covered_ms = 0;
    double reach = span.start_ms;
    for (const auto& [start, end] : covered) {
      const double from = std::max(start, reach);
      if (end > from) {
        covered_ms += end - from;
        reach = end;
      }
    }
    self[span.name] += span.duration_ms() - covered_ms;
  }
  return self;
}

bool WriteTrace(const std::string& path, const std::vector<Span>& spans) {
  FILE* out = std::fopen(path.c_str(), "w");
  if (out == nullptr) return false;
  std::fprintf(out, "{\"spans\": [\n");
  for (size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    std::fprintf(out,
                 "  {\"name\": \"%s\", \"request\": %llu, \"parent\": %lld, "
                 "\"start_ms\": %.6f, \"end_ms\": %.6f",
                 s.name, static_cast<unsigned long long>(s.request),
                 static_cast<long long>(s.parent), s.start_ms, s.end_ms);
    if (s.has_counts) {
      std::fprintf(out,
                   ", \"rows\": %llu, \"candidates\": %llu, \"scanned\": %llu, "
                   "\"bytes\": %llu",
                   static_cast<unsigned long long>(s.rows),
                   static_cast<unsigned long long>(s.candidates),
                   static_cast<unsigned long long>(s.scanned),
                   static_cast<unsigned long long>(s.bytes));
    }
    if (s.has_phases) {
      std::fprintf(out, ", \"phases_ms\": {");
      for (size_t p = 0; p < kPhaseNames.size(); ++p) {
        std::fprintf(out, "%s\"%s\": %.6f", p == 0 ? "" : ", ", kPhaseNames[p],
                     s.phase_ms[p]);
      }
      std::fprintf(out, "}");
    }
    std::fprintf(out, "}%s\n", i + 1 == spans.size() ? "" : ",");
  }
  std::fprintf(out, "]}\n");
  return std::fclose(out) == 0;
}

}  // namespace perfbench
