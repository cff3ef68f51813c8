// Tests for the small common utilities: CSV emission, logging levels, math
// helpers, strict number parsing, and the protocol environment glue.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <optional>
#include <sstream>

#include "src/common/csv.hpp"
#include "src/common/log.hpp"
#include "src/common/mathutil.hpp"
#include "src/common/strict_parse.hpp"
#include "tests/test_util.hpp"

namespace colscore {
namespace {

TEST(Csv, HeaderAndRows) {
  std::ostringstream os;
  CsvWriter w(os, {"a", "b", "c"});
  w.row({"1", "2", "3"});
  w.row(std::vector<std::string>{"4", "5.5", "six"});
  EXPECT_EQ(os.str(), "a,b,c\n1,2,3\n4,5.5,six\n");
  EXPECT_EQ(w.rows_written(), 2u);
}

TEST(Csv, QuotesSpecialCharacters) {
  std::ostringstream os;
  CsvWriter w(os, {"x", "y"});
  w.row({"has,comma", "has\"quote"});
  EXPECT_EQ(os.str(), "x,y\n\"has,comma\",\"has\"\"quote\"\n");
}

TEST(Csv, RowWidthEnforced) {
  std::ostringstream os;
  CsvWriter w(os, {"only"});
  EXPECT_DEATH(w.row({"a", "b"}), "width");
}

TEST(StrictParse, UnsignedRejectsAnythingButOneWholeInteger) {
  EXPECT_EQ(parse_strict_u64("152489"), 152489u);
  EXPECT_EQ(parse_strict_u64("18446744073709551615"), UINT64_MAX);
  EXPECT_EQ(parse_strict_u64(""), std::nullopt);
  EXPECT_EQ(parse_strict_u64("-1"), std::nullopt);  // stoull would wrap it
  EXPECT_EQ(parse_strict_u64("3.5"), std::nullopt);
  EXPECT_EQ(parse_strict_u64("1e3"), std::nullopt);
  EXPECT_EQ(parse_strict_u64("18446744073709551616"), std::nullopt);  // 2^64
  EXPECT_EQ(parse_strict_u64("nan"), std::nullopt);
  EXPECT_EQ(parse_strict_u64("7 "), std::nullopt);
  // stoull skips leading whitespace and takes a sign; the whole text must be
  // digits.
  EXPECT_EQ(parse_strict_u64(" 7"), std::nullopt);
  EXPECT_EQ(parse_strict_u64("+1"), std::nullopt);
  EXPECT_EQ(parse_strict_u64(" -1"), std::nullopt);  // would wrap to 2^64-1
  EXPECT_EQ(parse_strict_u64("\t3"), std::nullopt);
}

TEST(StrictParse, DoubleTakesOneWholeNumberIncludingNonFinite) {
  EXPECT_EQ(parse_strict_f64("0.25"), 0.25);
  EXPECT_EQ(parse_strict_f64("-1"), -1.0);
  EXPECT_EQ(parse_strict_f64("3.5"), 3.5);
  EXPECT_EQ(parse_strict_f64("1e3"), 1000.0);
  EXPECT_EQ(parse_strict_f64("18446744073709551616"), 18446744073709551616.0);
  EXPECT_EQ(parse_strict_f64(""), std::nullopt);
  EXPECT_EQ(parse_strict_f64("0.5s"), std::nullopt);
  EXPECT_EQ(parse_strict_f64("1e999"), std::nullopt);  // out of range
  EXPECT_EQ(parse_strict_f64(" 0.5"), std::nullopt);   // stod skips whitespace
  EXPECT_EQ(parse_strict_f64("\t3"), std::nullopt);
  const std::optional<double> nan = parse_strict_f64("nan");
  ASSERT_TRUE(nan.has_value());
  EXPECT_TRUE(std::isnan(*nan));
  EXPECT_EQ(parse_strict_f64("-inf"), -HUGE_VAL);
}

TEST(Log, LevelGate) {
  const LogLevel before = log_level();
  set_log_level(LogLevel::Error);
  EXPECT_EQ(log_level(), LogLevel::Error);
  // Below-threshold messages are cheap no-ops (no observable effect, but the
  // call must be safe from any thread).
  log_debug("dropped ", 42);
  log_info("dropped too");
  set_log_level(before);
}

TEST(Log, SetAndRestore) {
  const LogLevel before = log_level();
  set_log_level(LogLevel::Debug);
  EXPECT_EQ(log_level(), LogLevel::Debug);
  set_log_level(before);
  EXPECT_EQ(log_level(), before);
}

TEST(MathUtil, Log2Ceil) {
  EXPECT_EQ(log2_ceil(0), 1u);
  EXPECT_EQ(log2_ceil(1), 1u);
  EXPECT_EQ(log2_ceil(2), 1u);
  EXPECT_EQ(log2_ceil(3), 2u);
  EXPECT_EQ(log2_ceil(4), 2u);
  EXPECT_EQ(log2_ceil(5), 3u);
  EXPECT_EQ(log2_ceil(1024), 10u);
  EXPECT_EQ(log2_ceil(1025), 11u);
}

TEST(MathUtil, LnClamped) {
  EXPECT_DOUBLE_EQ(ln_clamped(1), 1.0);
  EXPECT_DOUBLE_EQ(ln_clamped(2), 1.0);  // ln 2 < 1 clamps
  EXPECT_NEAR(ln_clamped(1024), 6.93147, 1e-4);
}

TEST(MathUtil, CeilSize) {
  EXPECT_EQ(ceil_size(0.0), 1u);
  EXPECT_EQ(ceil_size(0.2), 1u);
  EXPECT_EQ(ceil_size(1.0), 1u);
  EXPECT_EQ(ceil_size(1.1), 2u);
  EXPECT_EQ(ceil_size(7.9), 8u);
}

TEST(ProtocolEnv, OwnProbeChargesHonestOnly) {
  testutil::Harness h(identical_clusters(4, 8, 1, Rng(1)));
  h.population.set_behavior(1, std::make_unique<Inverter>());
  (void)h.env.own_probe(0, 3);
  (void)h.env.own_probe(1, 3);
  EXPECT_EQ(h.oracle.probes_by(0), 1u);
  EXPECT_EQ(h.oracle.probes_by(1), 0u);
}

TEST(ProtocolEnv, OwnProbeAlwaysTruthful) {
  // own_probe is a player privately learning its own bit — even for a liar
  // the returned value is its true preference (lying happens at report
  // time, not at probe time).
  testutil::Harness h(identical_clusters(4, 8, 1, Rng(2)));
  h.population.set_behavior(1, std::make_unique<Inverter>());
  EXPECT_EQ(h.env.own_probe(1, 5), h.world.matrix.preference(1, 5));
}

TEST(ProtocolEnv, LocalRngStableAcrossCalls) {
  testutil::Harness h(identical_clusters(2, 4, 1, Rng(3)));
  Rng a = h.env.local_rng(0, 42);
  Rng b = h.env.local_rng(0, 42);
  EXPECT_EQ(a(), b());
  Rng c = h.env.local_rng(1, 42);
  Rng d = h.env.local_rng(0, 43);
  EXPECT_NE(a(), c());
  EXPECT_NE(b(), d());
}

TEST(ProtocolEnv, SharedRngComesFromBeacon) {
  testutil::Harness h(identical_clusters(2, 4, 1, Rng(5)));
  Rng direct = h.beacon.rng_for(7);
  Rng via = h.env.shared_rng(7);
  EXPECT_EQ(direct(), via());
}

}  // namespace
}  // namespace colscore
