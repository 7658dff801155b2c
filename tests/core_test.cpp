#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <functional>
#include <limits>
#include <set>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "core/flags.h"
#include "core/json.h"
#include "core/rng.h"
#include "core/stats.h"
#include "core/table.h"
#include "core/time.h"
#include "core/units.h"

namespace ms {
namespace {

// ---------------------------------------------------------------- time

TEST(Time, UnitConversionsRoundTrip) {
  EXPECT_EQ(seconds(1.0), kNsPerSec);
  EXPECT_EQ(milliseconds(1.0), kNsPerMs);
  EXPECT_EQ(microseconds(1.0), kNsPerUs);
  EXPECT_DOUBLE_EQ(to_seconds(seconds(2.5)), 2.5);
  EXPECT_DOUBLE_EQ(to_milliseconds(milliseconds(42.0)), 42.0);
  EXPECT_DOUBLE_EQ(to_hours(hours(3.0)), 3.0);
  EXPECT_DOUBLE_EQ(to_days(days(1.5)), 1.5);
}

TEST(Time, MinutesAndHoursCompose) {
  EXPECT_EQ(minutes(1.0), seconds(60.0));
  EXPECT_EQ(hours(1.0), minutes(60.0));
  EXPECT_EQ(days(1.0), hours(24.0));
}

TEST(Time, FormatDurationPicksUnit) {
  EXPECT_EQ(format_duration(nanoseconds(5)), "5ns");
  EXPECT_EQ(format_duration(microseconds(12.0)), "12.000us");
  EXPECT_EQ(format_duration(milliseconds(3.5)), "3.500ms");
  EXPECT_EQ(format_duration(seconds(1.25)), "1.250s");
  EXPECT_EQ(format_duration(minutes(2.0)), "2.00min");
  EXPECT_EQ(format_duration(hours(5.0)), "5.00h");
}

TEST(Time, FormatNegativeDuration) {
  EXPECT_EQ(format_duration(-seconds(1.5)), "-1.500s");
}

// ---------------------------------------------------------------- units

TEST(Units, BandwidthConversions) {
  EXPECT_DOUBLE_EQ(gbps(400.0), 50e9);  // 400 Gb/s == 50 GB/s
  EXPECT_DOUBLE_EQ(to_gbps(gbps(200.0)), 200.0);
  EXPECT_DOUBLE_EQ(to_gBps(gBps(25.0)), 25.0);
}

TEST(Units, ByteLiterals) {
  EXPECT_EQ(1_KiB, 1024);
  EXPECT_EQ(1_MiB, 1024 * 1024);
  EXPECT_EQ(2_GiB, 2LL << 30);
}

// ---------------------------------------------------------------- rng

TEST(Rng, Deterministic) {
  Rng a(123), b(123);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a.next_u64(), b.next_u64());
  }
}

TEST(Rng, DifferentSeedsDiffer) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) {
    if (a.next_u64() == b.next_u64()) ++same;
  }
  EXPECT_LT(same, 2);
}

TEST(Rng, UniformInUnitInterval) {
  Rng r(7);
  for (int i = 0; i < 10000; ++i) {
    const double u = r.uniform();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
}

TEST(Rng, UniformMeanApproximatesHalf) {
  Rng r(11);
  RunningStat s;
  for (int i = 0; i < 100000; ++i) s.add(r.uniform());
  EXPECT_NEAR(s.mean(), 0.5, 0.01);
}

TEST(Rng, NormalMoments) {
  Rng r(13);
  RunningStat s;
  for (int i = 0; i < 200000; ++i) s.add(r.normal(3.0, 2.0));
  EXPECT_NEAR(s.mean(), 3.0, 0.05);
  EXPECT_NEAR(s.stddev(), 2.0, 0.05);
}

TEST(Rng, ExponentialMean) {
  Rng r(17);
  RunningStat s;
  for (int i = 0; i < 200000; ++i) s.add(r.exponential(5.0));
  EXPECT_NEAR(s.mean(), 5.0, 0.1);
  EXPECT_GE(s.min(), 0.0);
}

TEST(Rng, UniformIntInclusiveRange) {
  Rng r(19);
  std::set<std::int64_t> seen;
  for (int i = 0; i < 1000; ++i) {
    const auto v = r.uniform_int(-2, 3);
    EXPECT_GE(v, -2);
    EXPECT_LE(v, 3);
    seen.insert(v);
  }
  EXPECT_EQ(seen.size(), 6u);  // all values hit
}

TEST(Rng, SampleWithoutReplacementDistinct) {
  Rng r(23);
  auto idx = r.sample_without_replacement(100, 30);
  EXPECT_EQ(idx.size(), 30u);
  std::set<std::size_t> uniq(idx.begin(), idx.end());
  EXPECT_EQ(uniq.size(), 30u);
  for (auto i : idx) EXPECT_LT(i, 100u);
}

TEST(Rng, SampleAllIsPermutation) {
  Rng r(29);
  auto idx = r.sample_without_replacement(10, 10);
  std::set<std::size_t> uniq(idx.begin(), idx.end());
  EXPECT_EQ(uniq.size(), 10u);
}

TEST(Rng, ForkIndependent) {
  Rng parent(31);
  Rng child = parent.fork();
  // Child stream should not mirror parent stream.
  int same = 0;
  for (int i = 0; i < 64; ++i) {
    if (parent.next_u64() == child.next_u64()) ++same;
  }
  EXPECT_LT(same, 2);
}

TEST(Rng, ChanceExtremes) {
  Rng r(37);
  for (int i = 0; i < 100; ++i) {
    EXPECT_FALSE(r.chance(0.0));
    EXPECT_TRUE(r.chance(1.0));
  }
}

TEST(Rng, ShuffleKeepsElements) {
  Rng r(41);
  std::vector<int> v{1, 2, 3, 4, 5, 6, 7, 8};
  auto sorted = v;
  r.shuffle(v);
  std::sort(v.begin(), v.end());
  EXPECT_EQ(v, sorted);
}

// ---------------------------------------------------------------- stats

TEST(RunningStat, BasicMoments) {
  RunningStat s;
  for (double v : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) s.add(v);
  EXPECT_EQ(s.count(), 8u);
  EXPECT_DOUBLE_EQ(s.mean(), 5.0);
  EXPECT_NEAR(s.stddev(), 2.138, 1e-3);  // sample stddev
  EXPECT_DOUBLE_EQ(s.min(), 2.0);
  EXPECT_DOUBLE_EQ(s.max(), 9.0);
  EXPECT_DOUBLE_EQ(s.sum(), 40.0);
}

TEST(RunningStat, EmptyIsSafe) {
  RunningStat s;
  EXPECT_TRUE(s.empty());
  EXPECT_DOUBLE_EQ(s.mean(), 0.0);
  EXPECT_DOUBLE_EQ(s.variance(), 0.0);
}

TEST(Percentiles, QuantilesOfKnownSet) {
  Percentiles p;
  for (int i = 1; i <= 100; ++i) p.add(i);
  EXPECT_NEAR(p.median(), 50.5, 1e-9);
  EXPECT_NEAR(p.quantile(0.0), 1.0, 1e-9);
  EXPECT_NEAR(p.quantile(1.0), 100.0, 1e-9);
  EXPECT_NEAR(p.p99(), 99.01, 1e-9);
}

TEST(Percentiles, InterleavedAddAndQuery) {
  Percentiles p;
  p.add(3.0);
  p.add(1.0);
  EXPECT_NEAR(p.median(), 2.0, 1e-9);
  p.add(2.0);
  EXPECT_NEAR(p.median(), 2.0, 1e-9);
}

TEST(Series, TailMean) {
  Series s;
  for (int i = 0; i < 10; ++i) s.add(i, i);
  EXPECT_DOUBLE_EQ(s.tail_mean(2), 8.5);
  EXPECT_DOUBLE_EQ(s.tail_mean(100), 4.5);  // clamped to size
}

TEST(Series, AsciiChartContainsGlyphs) {
  Series s1, s2;
  s1.name = "a";
  s2.name = "b";
  for (int i = 0; i < 20; ++i) {
    s1.add(i, std::sin(i * 0.3));
    s2.add(i, std::cos(i * 0.3));
  }
  const std::string chart = ascii_chart({s1, s2});
  EXPECT_NE(chart.find('*'), std::string::npos);
  EXPECT_NE(chart.find('o'), std::string::npos);
  EXPECT_NE(chart.find("a"), std::string::npos);
}

// ---------------------------------------------------------------- table

TEST(Table, RendersAlignedCells) {
  Table t({"name", "value"});
  t.add_row({"alpha", "1"});
  t.add_row({"b", "22222"});
  const std::string s = t.to_string();
  EXPECT_NE(s.find("| alpha |"), std::string::npos);
  EXPECT_NE(s.find("22222"), std::string::npos);
  // Every line has equal width.
  std::size_t width = s.find('\n');
  std::size_t pos = 0;
  while (pos < s.size()) {
    std::size_t next = s.find('\n', pos);
    EXPECT_EQ(next - pos, width);
    pos = next + 1;
  }
}

TEST(Table, Formatters) {
  EXPECT_EQ(Table::fmt(3.14159, 2), "3.14");
  EXPECT_EQ(Table::fmt_int(1234), "1234");
  EXPECT_EQ(Table::fmt_pct(0.552), "55.2%");
}

// --------------------------------------------------------- hdr histogram

TEST(HdrHistogram, TracksMomentsExactly) {
  HdrHistogram h;
  EXPECT_TRUE(h.empty());
  h.add(0.001);
  h.add(0.002);
  h.add(0.003, 2);
  EXPECT_EQ(h.total(), 4u);
  EXPECT_DOUBLE_EQ(h.sum(), 0.009);
  EXPECT_DOUBLE_EQ(h.mean(), 0.00225);
  EXPECT_DOUBLE_EQ(h.min(), 0.001);
  EXPECT_DOUBLE_EQ(h.max(), 0.003);
}

TEST(HdrHistogram, QuantilesWithinBucketResolution) {
  HdrHistogram h;
  for (int i = 1; i <= 1000; ++i) h.add(i * 1e-3);  // 1ms .. 1s uniform
  // 32 buckets/decade => ~7.5% relative bucket width; allow 10%.
  EXPECT_NEAR(h.p50(), 0.5, 0.05);
  EXPECT_NEAR(h.p99(), 0.99, 0.1);
  EXPECT_DOUBLE_EQ(h.quantile(0.0), h.min());
  EXPECT_DOUBLE_EQ(h.quantile(1.0), h.max());
}

TEST(HdrHistogram, MergeEqualsCombinedStream) {
  // The fixed bucket layout makes merge exact: merging per-rank sketches
  // gives the same sketch as observing the union.
  HdrHistogram a, b, combined;
  for (int i = 1; i <= 40; ++i) {
    const double x = i * 2.5e-4;
    (i % 2 == 0 ? a : b).add(x);
    combined.add(x);
  }
  a.merge(b);
  EXPECT_EQ(a.total(), combined.total());
  EXPECT_DOUBLE_EQ(a.sum(), combined.sum());
  EXPECT_DOUBLE_EQ(a.p50(), combined.p50());
  const auto ba = a.nonzero_buckets();
  const auto bc = combined.nonzero_buckets();
  ASSERT_EQ(ba.size(), bc.size());
  for (std::size_t i = 0; i < ba.size(); ++i) {
    EXPECT_DOUBLE_EQ(ba[i].lo, bc[i].lo);
    EXPECT_EQ(ba[i].count, bc[i].count);
  }

  // The same law for descending and interleaved insertion orders, which
  // insert new buckets in front of and between the sparse storage's cells.
  for (const bool descending : {true, false}) {
    HdrHistogram c, d, all;
    for (int i = 1; i <= 40; ++i) {
      // descending: 40, 39, ..., 1; interleaved: 41, 1, 40, 2, 39, ...
      const int j = descending ? 41 - i : (i % 2 == 0 ? i / 2 : 41 - i / 2);
      const double x = j * 2.5e-4;
      (i % 3 == 0 ? c : d).add(x);
      all.add(x);
    }
    c.merge(d);
    EXPECT_EQ(c.total(), all.total());
    EXPECT_DOUBLE_EQ(c.p50(), all.p50());
    const auto bm = c.nonzero_buckets();
    const auto bl = all.nonzero_buckets();
    ASSERT_EQ(bm.size(), bl.size());
    for (std::size_t i = 0; i < bm.size(); ++i) {
      EXPECT_DOUBLE_EQ(bm[i].lo, bl[i].lo);
      EXPECT_EQ(bm[i].count, bl[i].count);
    }
  }
}

TEST(HdrHistogram, OutOfRangeAndNonFiniteGoToEdgeBuckets) {
  HdrHistogram h;
  h.add(0.0);    // below range -> underflow
  h.add(-5.0);   // negative -> underflow
  h.add(1e15);   // above range -> overflow
  h.add(0.5);
  EXPECT_EQ(h.total(), 4u);
  EXPECT_DOUBLE_EQ(h.min(), -5.0);
  EXPECT_DOUBLE_EQ(h.max(), 1e15);
  // Quantiles stay clamped to observed extremes.
  EXPECT_LE(h.quantile(1.0), 1e15);
}

TEST(HdrHistogram, BucketsCoverValues) {
  HdrHistogram h;
  h.add(0.37);
  const auto buckets = h.nonzero_buckets();
  ASSERT_EQ(buckets.size(), 1u);
  EXPECT_LE(buckets[0].lo, 0.37);
  EXPECT_GT(buckets[0].hi, 0.37);
  EXPECT_EQ(buckets[0].count, 1u);

  // Descending and interleaved inputs: every value lands in a bucket that
  // covers it, buckets come out in ascending order, and no count is lost.
  const std::vector<double> descending = {1.5e3, 2.0, 0.37, 2e-4, 3e-8};
  const std::vector<double> interleaved = {2e-4, 1.5e3, 0.37, 3e-8, 2.0,
                                           0.37};
  for (const auto* values : {&descending, &interleaved}) {
    HdrHistogram g;
    for (const double v : *values) g.add(v);
    const auto bs = g.nonzero_buckets();
    std::uint64_t counted = 0;
    for (std::size_t i = 0; i < bs.size(); ++i) {
      if (i > 0) {
        EXPECT_LT(bs[i - 1].hi, bs[i].hi);
      }
      counted += bs[i].count;
    }
    EXPECT_EQ(counted, values->size());
    for (const double v : *values) {
      const bool covered = std::any_of(bs.begin(), bs.end(), [&](const auto& b) {
        return b.lo <= v && v < b.hi;
      });
      EXPECT_TRUE(covered) << v;
    }
  }
}

// ---------------------------------------------------------------- json

TEST(Json, EscapeCoversQuotesBackslashesAndControls) {
  EXPECT_EQ(json::escape("plain"), "plain");
  EXPECT_EQ(json::escape("a\"b"), "a\\\"b");
  EXPECT_EQ(json::escape("a\\b"), "a\\\\b");
  EXPECT_EQ(json::escape("a\nb\tc\r"), "a\\nb\\tc\\r");
  EXPECT_EQ(json::escape(std::string("a\x01") + "b"), "a\\u0001b");
}

TEST(Json, ParseRoundTripsEscapedStrings) {
  const std::string original = "fwd \"q\" \\ \n\t\x02 end";
  json::Value v;
  ASSERT_TRUE(json::parse("\"" + json::escape(original) + "\"", v));
  EXPECT_EQ(v.kind, json::Value::Kind::kString);
  EXPECT_EQ(v.str, original);
}

TEST(Json, ParseFullValueGrammar) {
  json::Value v;
  ASSERT_TRUE(json::parse(
      R"({"a":1.5,"b":[true,false,null],"c":{"n":-2e3},"s":"x"})", v));
  ASSERT_TRUE(v.is_object());
  EXPECT_DOUBLE_EQ(v.at("a").number, 1.5);
  ASSERT_EQ(v.at("b").size(), 3u);
  EXPECT_TRUE(v.at("b")[0].boolean);
  EXPECT_EQ(v.at("b")[2].kind, json::Value::Kind::kNull);
  EXPECT_DOUBLE_EQ(v.at("c").at("n").number, -2000.0);
  EXPECT_EQ(v.at("s").str, "x");
  EXPECT_EQ(v.find("missing"), nullptr);
  // Integer literals that fit int64 stay exact beside their rounded double.
  ASSERT_TRUE(json::parse(
      "[-9223372036854775808, 9007199254740993, 9223372036854775808, 1e3, -0]",
      v));
  EXPECT_EQ(v[0].integer, std::numeric_limits<std::int64_t>::min());
  EXPECT_EQ(v[1].integer, 9007199254740993);  // 2^53 + 1: no double of its own
  EXPECT_EQ(v[1].number, 9007199254740992.0);
  EXPECT_FALSE(v[2].integral);  // past int64: a double only
  EXPECT_FALSE(v[3].integral);  // an exponent is not an integer
  EXPECT_TRUE(std::signbit(v[4].number));
}

TEST(Json, ParseRejectsMalformedInput) {
  json::Value v;
  EXPECT_FALSE(json::parse("", v));
  EXPECT_FALSE(json::parse("{", v));
  EXPECT_FALSE(json::parse("{\"a\":}", v));
  EXPECT_FALSE(json::parse("[1,]", v));
  EXPECT_FALSE(json::parse("\"unterminated", v));
  EXPECT_FALSE(json::parse("{} trailing", v));
  EXPECT_FALSE(json::parse("1.5e", v));
  // The error offset is the first byte the parser could not accept.
  using Offset = std::pair<std::string, std::size_t>;
  for (const auto& [text, want] : std::vector<Offset>{
           {R"({"a":1)", 6},     // truncated object: the end of the input
           {R"({"a":tru})", 8},  // bad literal: the '}' where 'e' belongs
           {R"({"a" 1})", 5},    // missing ':'
           {R"([1] x)", 4}}) {   // trailing bytes
    std::size_t offset = 0;
    EXPECT_FALSE(json::parse(text, v, &offset)) << text;
    EXPECT_EQ(offset, want) << text;
  }
}

TEST(Json, ParseDecodesUnicodeEscapes) {
  json::Value v;
  ASSERT_TRUE(json::parse("\"a\\u0041\\u00e9\"", v));
  EXPECT_EQ(v.str, "aA\xc3\xa9");
}

TEST(Json, ParseBoundsNestingDepth) {
  // A million levels used to recurse until the stack overflowed.
  constexpr std::size_t kDeep = 1'000'000;
  json::Value v;
  EXPECT_FALSE(json::parse(std::string(kDeep, '[') + std::string(kDeep, ']'),
                           v));
  std::string objects;
  for (std::size_t i = 0; i < kDeep; ++i) objects += "{\"k\":";
  objects += "0" + std::string(kDeep, '}');
  EXPECT_FALSE(json::parse(objects, v));

  const auto limit = static_cast<std::size_t>(json::kMaxDepth);
  EXPECT_TRUE(json::parse(std::string(limit, '[') + std::string(limit, ']'),
                          v));
  EXPECT_FALSE(json::parse(
      std::string(limit + 1, '[') + std::string(limit + 1, ']'), v));
}

TEST(Json, FieldsNameTheFirstBadField) {
  json::Value v;
  ASSERT_TRUE(json::parse(
      R"({"n":1e300,"u":-1,"x":NaN,"s":5,"o":{"k":"z"},"h":"ff","ok":7})", v));
  const auto error = [&](const std::function<void(json::Fields&)>& read) {
    json::Fields f(v);
    read(f);
    int later = -1;
    f.integer("ok", later);  // the first failure sticks
    return later == -1 ? f.error() : "a later read ran";
  };
  int i = 0;
  std::uint64_t u = 0;
  double x = 0;
  std::string s;
  EXPECT_EQ(error([&](json::Fields& f) { f.integer("n", i); }),
            R"(field "n": got 1e+300, expects an integer in [0, 2147483647])");
  EXPECT_EQ(error([&](json::Fields& f) { f.integer("u", u); }),
            R"(field "u": got -1, expects an integer in [0, )"
            "9223372036854775807]");
  EXPECT_EQ(error([&](json::Fields& f) { f.real("x", x); }),
            R"(field "x": got nan, expects a finite number)");
  EXPECT_EQ(error([&](json::Fields& f) { f.text("s", s); }),
            R"(field "s": got 5, expects a string)");
  EXPECT_EQ(error([&](json::Fields& f) { f.text("gone", s); }),
            R"(field "gone": missing, expects a string)");
  EXPECT_EQ(error([&](json::Fields& f) { f.object("o").integer("k", i); }),
            R"(field "o.k": got "z", expects an integer in [0, 2147483647])");
  EXPECT_EQ(error([&](json::Fields& f) { f.hex("h", u); }),
            R"(field "h": got "ff", expects a "0x"-prefixed 64-bit hex )"
            "string");
}

// ---------------------------------------------------------------- flags

/// One slot per flag kind, declared by parse_all() below.
struct Slots {
  bool on = false;
  std::string text;
  std::string choice = "a";
  int count = 3;
  std::uint64_t seed = 0;
  double real = 0.5;
  std::string pos;
};

/// Parses `args` against one flag of every kind; the command "tool sub"
/// puts args[0] at argv position 2.
bool parse_all(const std::vector<std::string>& args, Slots& s,
               std::string* err = nullptr) {
  flags::Parser p("tool sub");
  p.flag("--on", s.on);
  p.text("--text", s.text);
  p.choice("--choice", s.choice, {"a", "b"});
  p.integer("--count", s.count, 1, 1 << 20);
  p.seed("--seed", s.seed);
  p.real("--real", s.real, flags::kFraction, "auto");
  p.positional("<pos>", s.pos, /*required=*/false);
  std::ostringstream e;
  const bool ok = p.parse(args, e);
  if (err != nullptr) *err = e.str();
  return ok;
}

TEST(Flags, EveryKindParses) {
  Slots s;
  ASSERT_TRUE(parse_all({"--on", "--text", "a b", "--choice", "b", "--count",
                         "256", "--seed", "42", "--real", "0.25", "file"},
                        s));
  EXPECT_TRUE(s.on);
  EXPECT_EQ(s.text, "a b");
  EXPECT_EQ(s.choice, "b");
  EXPECT_EQ(s.count, 256);
  EXPECT_EQ(s.seed, 42u);
  EXPECT_DOUBLE_EQ(s.real, 0.25);
  EXPECT_EQ(s.pos, "file");
}

TEST(Flags, ValueFlagTakesTheNextTokenVerbatim) {
  Slots s;
  ASSERT_TRUE(parse_all({"--text", "--on"}, s));
  EXPECT_EQ(s.text, "--on");
  EXPECT_FALSE(s.on);
}

TEST(Flags, KeywordRestoresTheDeclaredValue) {
  Slots s;
  ASSERT_TRUE(parse_all({"--real", "0.9", "--real", "auto"}, s));
  EXPECT_DOUBLE_EQ(s.real, 0.5);
}

TEST(Flags, SeedTakesHexAndDecimal) {
  Slots s;
  ASSERT_TRUE(parse_all({"--seed", "0xC405"}, s));
  EXPECT_EQ(s.seed, 0xC405u);
  ASSERT_TRUE(parse_all({"--seed", "18446744073709551615"}, s));
  EXPECT_EQ(s.seed, UINT64_MAX);
}

TEST(Flags, MalformedArgumentsNameTheirPositionAndFlag) {
  const std::vector<std::pair<std::vector<std::string>, std::string>> cases = {
      {{"--count", "99999999999"},
       "tool sub: argument 2 (--count): got \"99999999999\", expects an "
       "integer in [1, 1048576]\n"},
      {{"--count", "256x"},
       "tool sub: argument 2 (--count): got \"256x\", expects an integer "
       "in [1, 1048576]\n"},
      {{"--count", "0"},
       "tool sub: argument 2 (--count): got \"0\", expects an integer in "
       "[1, 1048576]\n"},
      {{"--seed", "-1"},
       "tool sub: argument 2 (--seed): got \"-1\", expects an unsigned "
       "64-bit integer (decimal or 0x hex)\n"},
      {{"--seed", "0x10000000000000000"},
       "tool sub: argument 2 (--seed): got \"0x10000000000000000\", "
       "expects an unsigned 64-bit integer (decimal or 0x hex)\n"},
      {{"--real", "nan"},
       "tool sub: argument 2 (--real): got \"nan\", expects a finite "
       "number in (0, 1] or auto\n"},
      {{"--real", "inf"},
       "tool sub: argument 2 (--real): got \"inf\", expects a finite "
       "number in (0, 1] or auto\n"},
      {{"--real", "1e309"},
       "tool sub: argument 2 (--real): got \"1e309\", expects a finite "
       "number in (0, 1] or auto\n"},
      {{"--real", "0"},
       "tool sub: argument 2 (--real): got \"0\", expects a finite number "
       "in (0, 1] or auto\n"},
      {{"--choice", "c"},
       "tool sub: argument 2 (--choice): got \"c\", expects one of a|b\n"},
      {{"--on", "--count"},
       "tool sub: argument 3 (--count): missing value, expects an integer "
       "in [1, 1048576]\n"},
      {{"--bogus"}, "tool sub: argument 2 (--bogus): unknown flag\n"},
      {{"file", "extra"},
       "tool sub: argument 3 (extra): unexpected extra argument\n"},
  };
  for (const auto& [args, want] : cases) {
    Slots s;
    std::string err;
    EXPECT_FALSE(parse_all(args, s, &err)) << want;
    EXPECT_EQ(err, want);
  }
}

TEST(Flags, MissingRequiredPositionalIsAnError) {
  std::string path;
  flags::Parser p("tool");
  p.positional("<path>", path);
  std::ostringstream err;
  EXPECT_FALSE(p.parse({}, err));
  EXPECT_EQ(err.str(), "tool: argument 1 (<path>): missing\n");
  EXPECT_FALSE(p.seen("<path>"));
}

TEST(Flags, StrictNumberParsers) {
  std::int64_t i = 0;
  EXPECT_TRUE(flags::parse_int("-42", i));
  EXPECT_EQ(i, -42);
  EXPECT_FALSE(flags::parse_int(" 42", i));
  EXPECT_FALSE(flags::parse_int("", i));
  EXPECT_FALSE(flags::parse_int("9223372036854775808", i));
  std::uint64_t u = 0;
  EXPECT_TRUE(flags::parse_uint("0x00000000000000ff", u, 16));
  EXPECT_EQ(u, 0xFFu);
  EXPECT_FALSE(flags::parse_uint("+1", u));
  double d = 0;
  EXPECT_TRUE(flags::parse_double("-2.5e-3", d));
  EXPECT_DOUBLE_EQ(d, -2.5e-3);
  EXPECT_FALSE(flags::parse_double("1.5e", d));
}

}  // namespace
}  // namespace ms
