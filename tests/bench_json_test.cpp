// Regression tests for bench::JsonEmitter: the BENCH_*.json artifacts must
// stay parseable by the CI consumers no matter what names or values a bench
// emits — quotes/backslashes/control characters in names are escaped, and
// NaN/inf values (a zero-duration phase ratio, a failed measurement) emit
// as null instead of invalid tokens. Also pins bench::MedianOfWarmRuns,
// the paper-shaped benches' one timing rule.
#include "bench_util.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <fstream>
#include <limits>
#include <sstream>
#include <string>
#include <vector>

namespace koko {
namespace {

std::string WriteAndRead(const bench::JsonEmitter& emitter,
                         const std::string& tag) {
  std::string path = ::testing::TempDir() + "/bench_json_test_" + tag + ".json";
  EXPECT_TRUE(emitter.WriteFile(path));
  std::ifstream in(path);
  std::stringstream buffer;
  buffer << in.rdbuf();
  std::remove(path.c_str());
  return buffer.str();
}

TEST(JsonEmitterTest, EscapesQuotesBackslashesAndControlChars) {
  bench::JsonEmitter emitter("serve");
  emitter.AddEntry("query=\"extract \\ from\"\nline2\ttab",
                   {{"rows", 3}, {"with \"quote\"", 1}});
  std::string json = WriteAndRead(emitter, "escape");
  // Escaped forms present...
  EXPECT_NE(json.find("\\\"extract \\\\ from\\\""), std::string::npos) << json;
  EXPECT_NE(json.find("\\n"), std::string::npos);
  EXPECT_NE(json.find("\\t"), std::string::npos);
  EXPECT_NE(json.find("\"with \\\"quote\\\"\""), std::string::npos);
  // ...and no raw control characters survive inside the file.
  EXPECT_EQ(json.find('\t'), std::string::npos);
  for (size_t at = json.find('\n'); at != std::string::npos;
       at = json.find('\n', at + 1)) {
    // Newlines only as inter-token formatting, never inside a string: the
    // preceding non-space character must be structural.
    size_t prev = json.find_last_not_of(" \n", at);
    ASSERT_NE(prev, std::string::npos);
    EXPECT_NE(std::string("{}[],:").find(json[prev]), std::string::npos)
        << "raw newline inside a string near offset " << at;
  }
}

TEST(JsonEmitterTest, NonFiniteValuesEmitNull) {
  bench::JsonEmitter emitter("serve");
  emitter.SetMeta("nan_meta", std::nan(""));
  emitter.AddEntry("entry",
                   {{"inf", std::numeric_limits<double>::infinity()},
                    {"ninf", -std::numeric_limits<double>::infinity()},
                    {"finite", 2.5}});
  std::string json = WriteAndRead(emitter, "nonfinite");
  EXPECT_NE(json.find("\"nan_meta\": null"), std::string::npos) << json;
  EXPECT_NE(json.find("\"inf\": null"), std::string::npos);
  EXPECT_NE(json.find("\"ninf\": null"), std::string::npos);
  EXPECT_NE(json.find("\"finite\": 2.5"), std::string::npos);
  EXPECT_EQ(json.find("nan("), std::string::npos);
  EXPECT_EQ(json.find("inf,"), std::string::npos);
}

TEST(JsonEmitterTest, StringValuedFieldsEmitQuotedAndEscaped) {
  // The load benches tag entries with load_mode: "copy" | "map"; string
  // fields must emit as quoted JSON strings (escaped like names) next to
  // the numeric fields.
  bench::JsonEmitter emitter("table2_scaleup");
  emitter.AddEntry("load/K=2",
                   {{"load_mode", "map"}, {"odd \"label\"", "a\\b"}},
                   {{"shards", 2}, {"load_s", 0.5}});
  std::string json = WriteAndRead(emitter, "strings");
  EXPECT_NE(json.find("\"load_mode\": \"map\""), std::string::npos) << json;
  EXPECT_NE(json.find("\"odd \\\"label\\\"\": \"a\\\\b\""), std::string::npos)
      << json;
  EXPECT_NE(json.find("\"shards\": 2"), std::string::npos);
  EXPECT_NE(json.find("\"load_s\": 0.5"), std::string::npos);
  // String fields precede numeric ones with a comma between.
  EXPECT_LT(json.find("\"load_mode\""), json.find("\"shards\""));
}

TEST(MedianOfWarmRunsTest, OneUntimedCallThenMedianOfTimedCalls) {
  static_assert(bench::kTimedRuns == 5, "samples below hold 1 + 5 values");
  // The first call is the untimed warm-up: it returns the largest value,
  // so it would move the median if it were counted.
  const std::vector<double> samples = {100, 4, 1, 5, 2, 3};
  size_t calls = 0;
  const double median =
      bench::MedianOfWarmRuns([&] { return samples[calls++]; });
  EXPECT_EQ(calls, 1u + bench::kTimedRuns);
  EXPECT_EQ(median, 3);
}

TEST(MedianOfWarmRunsTest, FailedRunIsReturnedAtOnce) {
  size_t calls = 0;
  EXPECT_EQ(bench::MedianOfWarmRuns([&] { return ++calls == 3 ? -1.0 : 1.0; }),
            -1);
  EXPECT_EQ(calls, 3u);
}

TEST(JsonEmitterTest, ControlCharsBelowSpaceUseUnicodeEscapes) {
  bench::JsonEmitter emitter("serve");
  std::string name = "ctl";
  name.push_back('\x01');
  emitter.AddEntry(name, {{"v", 1}});
  std::string json = WriteAndRead(emitter, "ctl");
  EXPECT_NE(json.find("\\u0001"), std::string::npos) << json;
  EXPECT_EQ(json.find('\x01'), std::string::npos);
}

}  // namespace
}  // namespace koko
