#ifndef KOKO_UTIL_TIMER_H_
#define KOKO_UTIL_TIMER_H_

#include <array>
#include <chrono>
#include <cstddef>
#include <string_view>

namespace koko {

/// Monotonic wall-clock timer.
class WallTimer {
 public:
  WallTimer() : start_(Clock::now()) {}

  void Restart() { start_ = Clock::now(); }

  /// Seconds elapsed since construction or the last Restart().
  double ElapsedSeconds() const {
    return std::chrono::duration<double>(Clock::now() - start_).count();
  }

 private:
  using Clock = std::chrono::steady_clock;
  Clock::time_point start_;
};

/// The phases of one query — the Table 2 breakdown. GSP is a sub-phase:
/// skip plans are generated per sentence inside the extract scan, so its
/// time already lies inside extract's.
enum class Phase { kNormalize, kDpli, kLoadArticle, kGsp, kExtract, kSatisfying };

inline constexpr size_t kNumPhases = static_cast<size_t>(Phase::kSatisfying) + 1;

/// The phase's report name: "Normalize", "DPLI", "LoadArticle", "GSP",
/// "extract" or "satisfying".
constexpr std::string_view PhaseName(Phase phase) {
  constexpr std::array<std::string_view, kNumPhases> kNames = {
      "Normalize", "DPLI", "LoadArticle", "GSP", "extract", "satisfying"};
  return kNames[static_cast<size_t>(phase)];
}

/// \brief Accumulates wall time per phase; each phase charges its elapsed
/// time here via ScopedPhase.
class PhaseStats {
 public:
  void Add(Phase phase, double seconds) {
    seconds_[static_cast<size_t>(phase)] += seconds;
  }
  double Get(Phase phase) const { return seconds_[static_cast<size_t>(phase)]; }
  /// The phase named `name` (see PhaseName); 0 for an unknown name.
  double Get(std::string_view name) const {
    for (size_t i = 0; i < kNumPhases; ++i) {
      if (PhaseName(static_cast<Phase>(i)) == name) return seconds_[i];
    }
    return 0.0;
  }

  /// Sum of the top-level phases: GSP is not counted twice.
  double Total() const {
    double total = 0;
    for (size_t i = 0; i < kNumPhases; ++i) {
      if (static_cast<Phase>(i) != Phase::kGsp) total += seconds_[i];
    }
    return total;
  }

 private:
  std::array<double, kNumPhases> seconds_{};
};

/// Charges the lifetime of the object to one phase of a PhaseStats.
class ScopedPhase {
 public:
  ScopedPhase(PhaseStats* stats, Phase phase) : stats_(stats), phase_(phase) {}
  ~ScopedPhase() { stats_->Add(phase_, timer_.ElapsedSeconds()); }

  ScopedPhase(const ScopedPhase&) = delete;
  ScopedPhase& operator=(const ScopedPhase&) = delete;

 private:
  PhaseStats* stats_;
  Phase phase_;
  WallTimer timer_;
};

}  // namespace koko

#endif  // KOKO_UTIL_TIMER_H_
