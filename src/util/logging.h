#ifndef KOKO_UTIL_LOGGING_H_
#define KOKO_UTIL_LOGGING_H_

#include <ostream>
#include <sstream>

namespace koko {
namespace internal_logging {

/// Stream-style sink for a failed check: writes one line to stderr on
/// destruction, then aborts the process.
class FatalMessage {
 public:
  FatalMessage(const char* file, int line);
  ~FatalMessage();

  FatalMessage(const FatalMessage&) = delete;
  FatalMessage& operator=(const FatalMessage&) = delete;

  std::ostream& stream() { return stream_; }

 private:
  std::ostringstream stream_;
};

}  // namespace internal_logging
}  // namespace koko

#define KOKO_FATAL_STREAM() \
  ::koko::internal_logging::FatalMessage(__FILE__, __LINE__).stream()

/// Aborts with a message when `condition` is false. Used for internal
/// invariants that indicate programmer error, never for user input.
#define KOKO_CHECK(condition) \
  (condition) ? (void)0       \
              : (void)(KOKO_FATAL_STREAM() << "Check failed: " #condition " ")

#define KOKO_CHECK_OK(expr)                                              \
  do {                                                                   \
    ::koko::Status _koko_st = (expr);                                    \
    if (!_koko_st.ok()) {                                                \
      KOKO_FATAL_STREAM() << "Check failed (status): "                   \
                          << _koko_st.ToString();                        \
    }                                                                    \
  } while (0)

#endif  // KOKO_UTIL_LOGGING_H_
