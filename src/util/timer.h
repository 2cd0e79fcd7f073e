#ifndef KOKO_UTIL_TIMER_H_
#define KOKO_UTIL_TIMER_H_

#include <chrono>
#include <map>
#include <string>

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

/// \brief Accumulates wall time per named phase.
///
/// The KOKO engine reports a Table-2-style breakdown (Normalize, DPLI,
/// LoadArticle, GSP, extract, satisfying); each phase charges its elapsed
/// time here via ScopedPhase. A ScopedPhase opened while another one of
/// the same stats is still open charges a sub-phase (GSP inside extract):
/// its time is reported by Get() but already lies inside its parent's, so
/// Total() leaves it out.
class PhaseStats {
 public:
  /// Charges `seconds` to a top-level phase.
  void Add(const std::string& phase, double seconds) {
    seconds_[phase] += seconds;
    top_level_seconds_ += seconds;
  }
  double Get(const std::string& phase) const {
    auto it = seconds_.find(phase);
    return it == seconds_.end() ? 0.0 : it->second;
  }
  const std::map<std::string, double>& all() const { return seconds_; }
  void Clear() {
    seconds_.clear();
    top_level_seconds_ = 0;
  }

  /// Sum of the top-level phases; sub-phases are not counted twice.
  double Total() const { return top_level_seconds_; }

 private:
  friend class ScopedPhase;

  std::map<std::string, double> seconds_;
  double top_level_seconds_ = 0;
  int open_phases_ = 0;  // ScopedPhases of this stats currently open
};

/// Charges the lifetime of the object to one phase of a PhaseStats — a
/// sub-phase when another ScopedPhase of the same stats encloses it.
class ScopedPhase {
 public:
  ScopedPhase(PhaseStats* stats, std::string phase)
      : stats_(stats),
        phase_(std::move(phase)),
        nested_(stats->open_phases_++ > 0) {}
  ~ScopedPhase() {
    --stats_->open_phases_;
    const double seconds = timer_.ElapsedSeconds();
    if (nested_) {
      stats_->seconds_[phase_] += seconds;
    } else {
      stats_->Add(phase_, seconds);
    }
  }

  ScopedPhase(const ScopedPhase&) = delete;
  ScopedPhase& operator=(const ScopedPhase&) = delete;

 private:
  PhaseStats* stats_;
  std::string phase_;
  bool nested_;
  WallTimer timer_;
};

}  // namespace koko

#endif  // KOKO_UTIL_TIMER_H_
