#ifndef KOKO_REGEX_REGEX_H_
#define KOKO_REGEX_REGEX_H_

#include <bitset>
#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "util/status.h"

namespace koko {

/// \brief A from-scratch regular-expression engine (Thompson NFA, Pike VM).
///
/// Supports the constructs KOKO queries need: literals, `.`, character
/// classes `[a-z0-9_]` (ranges, negation, escapes), `\d \w \s` and their
/// negations, anchors `^ $`, grouping `( )`, alternation `|`, and the
/// quantifiers `* + ? {m} {m,} {m,n}`. Matching is linear in the input
/// (no backtracking blow-up), which matters because `excluding` clauses run
/// a regex over every candidate extraction.
///
/// Semantics follow the usual leftmost conventions: FullMatch anchors at
/// both ends; PartialMatch succeeds if any substring matches.
class Regex {
 public:
  /// Compiles `pattern`. Returns ParseError for malformed patterns.
  /// Matching is case-sensitive.
  static Result<Regex> Compile(std::string_view pattern);

  /// True when the whole input matches the pattern.
  bool FullMatch(std::string_view text) const;

  /// True when any substring of the input matches the pattern.
  bool PartialMatch(std::string_view text) const;

  const std::string& pattern() const { return pattern_; }

 private:
  // One NFA instruction.
  struct Inst {
    enum class Op : uint8_t {
      kChar,       // match one char against `klass`, goto next
      kSplit,      // epsilon: try `next` and `alt`
      kJmp,        // epsilon: goto `next`
      kAssertBol,  // epsilon: only if at beginning of input
      kAssertEol,  // epsilon: only if at end of input
      kMatch,      // accept
    };
    Op op = Op::kMatch;
    uint32_t next = 0;
    uint32_t alt = 0;
    std::bitset<256> klass;  // valid for kChar
  };

  Regex() = default;

  bool Run(std::string_view text, bool anchored_start) const;
  void AddThread(std::vector<uint32_t>& list, std::vector<uint32_t>& marks,
                 uint32_t generation, uint32_t pc, size_t pos, size_t len) const;

  std::string pattern_;
  std::vector<Inst> program_;
  bool anchored_end_only_ = false;

  friend class RegexCompiler;
};

/// Convenience: compile-and-match helpers (abort on invalid pattern; meant
/// for trusted, literal patterns in tests and generators).
bool RegexFullMatch(std::string_view text, std::string_view pattern);
bool RegexPartialMatch(std::string_view text, std::string_view pattern);

}  // namespace koko

#endif  // KOKO_REGEX_REGEX_H_
