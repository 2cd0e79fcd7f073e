#include "regex/regex.h"

#include <gtest/gtest.h>

#include <regex>

#include "util/rng.h"

namespace koko {
namespace {

TEST(RegexTest, LiteralFullMatch) {
  auto re = Regex::Compile("hello");
  ASSERT_TRUE(re.ok());
  EXPECT_TRUE(re->FullMatch("hello"));
  EXPECT_FALSE(re->FullMatch("hello!"));
  EXPECT_FALSE(re->FullMatch("hell"));
}

TEST(RegexTest, PartialMatchFindsSubstring) {
  auto re = Regex::Compile("ice");
  ASSERT_TRUE(re.ok());
  EXPECT_TRUE(re->PartialMatch("chocolate ice cream"));
  EXPECT_FALSE(re->PartialMatch("chocolate"));
}

TEST(RegexTest, Dot) {
  EXPECT_TRUE(RegexFullMatch("cat", "c.t"));
  EXPECT_FALSE(RegexFullMatch("ct", "c.t"));
  EXPECT_FALSE(RegexFullMatch("c\nt", "c.t"));
}

TEST(RegexTest, StarPlusQuestion) {
  EXPECT_TRUE(RegexFullMatch("", "a*"));
  EXPECT_TRUE(RegexFullMatch("aaa", "a*"));
  EXPECT_FALSE(RegexFullMatch("", "a+"));
  EXPECT_TRUE(RegexFullMatch("a", "a?"));
  EXPECT_FALSE(RegexFullMatch("aa", "a?"));
}

TEST(RegexTest, Alternation) {
  EXPECT_TRUE(RegexFullMatch("cat", "cat|dog"));
  EXPECT_TRUE(RegexFullMatch("dog", "cat|dog"));
  EXPECT_FALSE(RegexFullMatch("cow", "cat|dog"));
}

TEST(RegexTest, Grouping) {
  EXPECT_TRUE(RegexFullMatch("ababab", "(ab)+"));
  EXPECT_FALSE(RegexFullMatch("aba", "(ab)+"));
  EXPECT_TRUE(RegexFullMatch("xyxy", "(x(y))*"));
}

TEST(RegexTest, CharacterClasses) {
  EXPECT_TRUE(RegexFullMatch("b", "[abc]"));
  EXPECT_FALSE(RegexFullMatch("d", "[abc]"));
  EXPECT_TRUE(RegexFullMatch("q", "[^abc]"));
  EXPECT_FALSE(RegexFullMatch("a", "[^abc]"));
  EXPECT_TRUE(RegexFullMatch("7", "[0-9]"));
  EXPECT_TRUE(RegexFullMatch("x-1", "[a-z]-[0-9]"));
}

TEST(RegexTest, ClassWithLiteralDash) {
  EXPECT_TRUE(RegexFullMatch("-", "[a-]"));
  EXPECT_TRUE(RegexFullMatch("a", "[a-]"));
}

TEST(RegexTest, EscapeClasses) {
  EXPECT_TRUE(RegexFullMatch("123", "\\d+"));
  EXPECT_FALSE(RegexFullMatch("12a", "\\d+"));
  EXPECT_TRUE(RegexFullMatch("a_1", "\\w+"));
  EXPECT_TRUE(RegexFullMatch(" ", "\\s"));
  EXPECT_TRUE(RegexFullMatch("x", "\\D"));
}

TEST(RegexTest, EscapedMetachars) {
  EXPECT_TRUE(RegexFullMatch("a.b", "a\\.b"));
  EXPECT_FALSE(RegexFullMatch("axb", "a\\.b"));
  EXPECT_TRUE(RegexFullMatch("(x)", "\\(x\\)"));
}

TEST(RegexTest, BoundedRepeats) {
  EXPECT_TRUE(RegexFullMatch("aaa", "a{3}"));
  EXPECT_FALSE(RegexFullMatch("aa", "a{3}"));
  EXPECT_TRUE(RegexFullMatch("aa", "a{1,3}"));
  EXPECT_FALSE(RegexFullMatch("aaaa", "a{1,3}"));
  EXPECT_TRUE(RegexFullMatch("aaaaa", "a{2,}"));
  EXPECT_FALSE(RegexFullMatch("a", "a{2,}"));
}

TEST(RegexTest, AnchorsInPartialMatch) {
  auto re = Regex::Compile("^abc");
  ASSERT_TRUE(re.ok());
  EXPECT_TRUE(re->PartialMatch("abcdef"));
  EXPECT_FALSE(re->PartialMatch("xabc"));
  auto re2 = Regex::Compile("abc$");
  ASSERT_TRUE(re2.ok());
  EXPECT_TRUE(re2->PartialMatch("xyzabc"));
  EXPECT_FALSE(re2->PartialMatch("abcx"));
}

TEST(RegexTest, PaperExcludingPatterns) {
  // Patterns from the Appendix-A cafe query.
  EXPECT_TRUE(RegexFullMatch("La Marzocco", "[Ll]a Marzocco"));
  EXPECT_TRUE(RegexFullMatch("la Marzocco", "[Ll]a Marzocco"));
  EXPECT_FALSE(RegexFullMatch("Marzocco", "[Ll]a Marzocco"));
  EXPECT_TRUE(
      RegexFullMatch("123 Mission St.", "[0-9]+ [0-9A-Z a-z]+ [Ss]t.?"));
  EXPECT_TRUE(RegexFullMatch("Portland Coffee Festival",
                             "[A-Za-z 0-9.]*[Ff]est(ival)?"));
  EXPECT_TRUE(RegexFullMatch("@bluebottle", "@[A-Za-z 0-9.]+"));
}

TEST(RegexTest, MalformedPatternsRejected) {
  EXPECT_FALSE(Regex::Compile("a(b").ok());
  EXPECT_FALSE(Regex::Compile("[abc").ok());
  EXPECT_FALSE(Regex::Compile("*a").ok());
  EXPECT_FALSE(Regex::Compile("a{3,1}").ok());
  EXPECT_FALSE(Regex::Compile("a\\").ok());
  EXPECT_FALSE(Regex::Compile("[z-a]").ok());
}

TEST(RegexTest, EmptyPatternMatchesEmpty) {
  auto re = Regex::Compile("");
  ASSERT_TRUE(re.ok());
  EXPECT_TRUE(re->FullMatch(""));
  EXPECT_FALSE(re->FullMatch("a"));
  EXPECT_TRUE(re->PartialMatch("anything"));
}

TEST(RegexTest, NoBacktrackingBlowup) {
  // Classic pathological case for backtrackers: (a*)*b on aaaa...a
  std::string input(64, 'a');
  auto re = Regex::Compile("(a*)*b");
  ASSERT_TRUE(re.ok());
  EXPECT_FALSE(re->FullMatch(input));  // completes instantly on a Pike VM
}

// ---- Property sweep: agreement with std::regex (ECMAScript) ----

struct RegexCase {
  const char* pattern;
};

class RegexAgreementTest : public ::testing::TestWithParam<RegexCase> {};

TEST_P(RegexAgreementTest, MatchesStdRegexOnRandomInputs) {
  const char* pattern = GetParam().pattern;
  auto mine = Regex::Compile(pattern);
  ASSERT_TRUE(mine.ok()) << pattern;
  std::regex reference(pattern);
  Rng rng(Fnv1a64(pattern));
  const std::string alphabet = "abc01 .";
  for (int i = 0; i < 300; ++i) {
    std::string input;
    size_t len = rng.Uniform(12);
    for (size_t j = 0; j < len; ++j) {
      input += alphabet[rng.Uniform(alphabet.size())];
    }
    bool expected_full = std::regex_match(input, reference);
    bool expected_partial = std::regex_search(input, reference);
    EXPECT_EQ(mine->FullMatch(input), expected_full)
        << "pattern=" << pattern << " input='" << input << "'";
    EXPECT_EQ(mine->PartialMatch(input), expected_partial)
        << "pattern=" << pattern << " input='" << input << "'";
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, RegexAgreementTest,
    ::testing::Values(RegexCase{"a+b*"}, RegexCase{"(ab|ba)+"},
                      RegexCase{"[abc]+"}, RegexCase{"[^ab]+"},
                      RegexCase{"a.c"}, RegexCase{"a{2,4}"},
                      RegexCase{"(a|b)*c"}, RegexCase{"\\d+"},
                      RegexCase{"a?b?c?"}, RegexCase{"(a(b)?)+"},
                      RegexCase{"[a-c]{1,3}0"}, RegexCase{"a b"},
                      RegexCase{"(0|1)+ (a|b)+"}, RegexCase{"c[ab]*c"}));

}  // namespace
}  // namespace koko
