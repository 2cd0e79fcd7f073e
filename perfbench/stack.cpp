// Set-up of the stack under test, the serial reference, and the client
// that carries one request through the layer a workload measures.
#include <malloc.h>
#include <unistd.h>

#include <cstdio>
#include <filesystem>
#include <set>
#include <utility>

#include "perfbench.h"
#include "util/timer.h"

namespace perfbench {

using namespace koko;

namespace {

Status StartServer(Served* served) {
  auto server = std::make_unique<net::KokoServer>(served->service.get(),
                                                  net::KokoServer::Options());
  KOKO_RETURN_IF_ERROR(server->Start());
  served->server = std::move(server);
  return Status::OK();
}

}  // namespace

uint64_t Stack::ImageBytes() const {
  uint64_t total = 0;
  for (const auto& s : served) total += s->image_bytes;
  return total;
}

uint64_t Stack::TextBytes() const {
  uint64_t total = 0;
  for (const auto& s : served) {
    for (const Document& doc : s->corpus.docs) {
      for (const Sentence& sentence : doc.sentences) {
        total += sentence.Text().size() + 1;
      }
    }
  }
  return total;
}

size_t Stack::Documents() const {
  size_t total = 0;
  for (const auto& s : served) total += s->corpus.docs.size();
  return total;
}

size_t Stack::Sentences() const {
  size_t total = 0;
  for (const auto& s : served) total += s->corpus.NumSentences();
  return total;
}

size_t Stack::ResidentPostingBytes() const {
  size_t total = 0;
  for (const auto& s : served) total += s->index->SidCacheMemoryUsage();
  return total;
}

Status SetUp(const Inputs& inputs, const std::string& work_dir,
             bool start_servers, Stack* stack, SetupTimes* times) {
  // The previous repetition goes first, and its freed pages go back to the
  // system, so repetitions do not add up in memory.
  stack->served.clear();
  malloc_trim(0);
  *times = SetupTimes();
  const Config& config = inputs.config;

  WallTimer timer;
  std::vector<std::pair<std::string, AnnotatedCorpus>> corpora;
  if (config.kind == WorkloadKind::kReplayWire) {
    // The replay builder generates and annotates in one call; generating
    // these small corpora is string concatenation, so the time is
    // annotation's.
    auto workloads =
        replay::BuildAllWorkloads(stack->pipeline, inputs.replay_options);
    if (!workloads.ok()) return workloads.status();
    for (replay::Workload& w : *workloads) {
      corpora.emplace_back(w.name, std::move(w.corpus));
    }
  } else {
    corpora.emplace_back(config.name,
                         stack->pipeline.AnnotateCorpus(inputs.wiki_docs));
  }
  times->annotate_s = timer.ElapsedSeconds();

  const Pipeline& pipeline = stack->pipeline;
  for (auto& [name, corpus] : corpora) {
    auto served = std::make_unique<Served>();
    served->name = name;
    served->corpus = std::move(corpus);

    timer.Restart();
    std::unique_ptr<ShardedKokoIndex> built =
        ShardedKokoIndex::Build(served->corpus, kIndexShards);
    times->build_s += timer.ElapsedSeconds();

    const std::string path = work_dir + "/" + config.name + "-" + name + "-" +
                             std::to_string(getpid()) + ".idx";
    timer.Restart();
    const Status saved = built->Save(path);
    times->save_s += timer.ElapsedSeconds();
    built.reset();
    if (!saved.ok()) return saved;
    std::error_code error;
    served->image_bytes = std::filesystem::file_size(path, error);
    if (error) return Status::IoError("cannot stat " + path);

    ShardedKokoIndex::LoadOptions load;
    load.mode = LoadMode::kMap;
    timer.Restart();
    auto loaded = ShardedKokoIndex::Load(path, load);
    times->load_s += timer.ElapsedSeconds();
    // The mapping keeps the unlinked file alive for the index's lifetime.
    std::remove(path.c_str());
    if (!loaded.ok()) return loaded.status();
    served->index = std::move(*loaded);

    served->engine = std::make_unique<Engine>(
        &served->corpus, served->index.get(), &stack->embeddings,
        &pipeline.recognizer());
    QueryService::Options service;
    service.num_threads = config.pool_workers;
    service.max_inflight = config.max_inflight;
    served->service = std::make_unique<QueryService>(
        served->engine.get(), service, served->index->num_shards());
    if (start_servers) {
      timer.Restart();
      KOKO_RETURN_IF_ERROR(StartServer(served.get()));
      times->server_s += timer.ElapsedSeconds();
    }
    stack->served.push_back(std::move(served));
  }
  return Status::OK();
}

Status StartServers(Stack* stack) {
  for (auto& served : stack->served) {
    if (served->server == nullptr) KOKO_RETURN_IF_ERROR(StartServer(served.get()));
  }
  return Status::OK();
}

Status ComputeReferences(const Stack& stack, Inputs* inputs) {
  for (BenchQuery& q : inputs->queries) {
    EngineOptions reference;
    reference.use_planner = false;
    reference.early_terminate = false;
    reference.num_threads = 1;
    if (q.max_rows != 0) reference.max_rows = q.max_rows;
    auto result = stack.served[q.corpus]->engine->Execute(q.query, reference);
    if (!result.ok()) {
      return Status::Internal("reference run of " + q.name +
                              " failed: " + result.status().ToString());
    }
    q.digest = replay::RowDigest(*result);
    q.reference_rows = result->rows.size();
    std::set<uint32_t> sids;
    for (const ResultRow& row : result->rows) sids.insert(row.sid);
    q.reference_sids = sids.size();
  }
  return Status::OK();
}

Result<Client> Client::Connect(const Stack& stack, bool wire) {
  Client client;
  client.stack_ = &stack;
  client.wire_ = wire;
  if (wire) {
    for (const auto& served : stack.served) {
      auto conn = net::KokoClient::Connect(served->server->port());
      if (!conn.ok()) return conn.status();
      client.conns_.push_back(std::move(*conn));
    }
  }
  return client;
}

Reply Client::Send(const BenchQuery& query, bool keep_rows) {
  Reply reply;
  if (wire_) {
    net::NetRequest request;
    request.query_text = query.text;
    request.max_rows = query.max_rows;
    request.streaming = query.max_rows != 0;
    auto wire = conns_[query.corpus].Query(request);
    if (!wire.ok()) {
      reply.protocol_error = true;
      return reply;
    }
    if (!wire->status.ok()) {
      reply.refused = wire->status.code() == StatusCode::kUnavailable;
      return reply;
    }
    reply.ok = true;
    reply.rows = wire->rows.size();
    reply.candidates = wire->done.candidate_sentences;
    reply.scanned = wire->done.scanned_candidates;
    reply.mismatch = replay::RowDigest(wire->rows) != query.digest;
    if (keep_rows) reply.result_rows = std::move(wire->rows);
    return reply;
  }
  QueryService& service = *stack_->served[query.corpus]->service;
  Result<QueryResult> result =
      query.max_rows == 0
          ? service.Run(query.text)
          : service.Run(query.query,
                        QueryService::RunOverrides{query.max_rows, std::nullopt},
                        RowSink());
  if (!result.ok()) {
    reply.refused = result.status().code() == StatusCode::kUnavailable;
    return reply;
  }
  reply.ok = true;
  reply.rows = result->rows.size();
  reply.candidates = result->candidate_sentences;
  reply.scanned = result->scanned_candidates;
  reply.has_phases = true;
  reply.phases = result->phases;
  reply.mismatch = replay::RowDigest(result->rows) != query.digest;
  if (keep_rows) reply.result_rows = std::move(result->rows);
  return reply;
}

}  // namespace perfbench
