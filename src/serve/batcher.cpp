#include "serve/batcher.h"

#include <algorithm>
#include <utility>

#include "util/hash.h"

namespace koko {

BatchExecutor::Outcome BatchExecutor::Run(uint64_t fingerprint,
                                          const ExecFn& exec) {
  std::shared_ptr<Group> group;
  {
    MutexLock lock(mu_);
    auto it = groups_.find(fingerprint);
    if (it != groups_.end()) {
      // Follower: the leader is mid-execution; join and wait for its
      // published result.
      group = it->second;
      ++group->members;
      ++followers_;
      peak_group_ = std::max(peak_group_, group->members);
      while (!group->done) cv_.Wait(mu_);
      Outcome outcome;
      outcome.result = group->result;
      outcome.follower = true;
      return outcome;
    }
    group = std::make_shared<Group>();
    groups_.emplace(fingerprint, group);
    ++leaders_;
    peak_group_ = std::max(peak_group_, group->members);
  }

  // Leader: execute outside the lock (followers accumulate meanwhile).
  auto result =
      std::make_shared<const Result<QueryResult>>(exec());

  {
    MutexLock lock(mu_);
    group->result = result;
    group->done = true;
    // Dissolve the group: later arrivals of this fingerprint execute
    // fresh rather than receiving a stale result.
    groups_.erase(fingerprint);
  }
  cv_.NotifyAll();
  Outcome outcome;
  outcome.result = std::move(result);
  outcome.follower = false;
  return outcome;
}

BatchExecutor::Stats BatchExecutor::stats() const {
  MutexLock lock(mu_);
  Stats stats;
  stats.leaders = leaders_;
  stats.followers = followers_;
  stats.peak_group = peak_group_;
  return stats;
}

uint64_t RequestFingerprint(std::string_view query_text, uint64_t max_rows) {
  return HashCombine(Fnv1a64(query_text), Mix64(max_rows + 1));
}

}  // namespace koko
