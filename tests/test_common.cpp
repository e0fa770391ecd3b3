#include <gtest/gtest.h>

#include <cmath>
#include <sstream>

#include "common/check.hpp"
#include "common/rng.hpp"
#include "common/stats.hpp"
#include "common/table.hpp"

namespace sc = spikestream::common;

TEST(Check, ThrowsWithContext) {
  try {
    SPK_CHECK(1 == 2, "value was " << 42);
    FAIL() << "expected throw";
  } catch (const spikestream::Error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("1 == 2"), std::string::npos);
    EXPECT_NE(what.find("value was 42"), std::string::npos);
  }
}

TEST(Rng, Deterministic) {
  sc::Rng a(123), b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next_u64(), b.next_u64());
}

TEST(Rng, DifferentSeedsDiffer) {
  sc::Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) same += (a.next_u64() == b.next_u64());
  EXPECT_EQ(same, 0);
}

TEST(Rng, UniformInRange) {
  sc::Rng rng(7);
  for (int i = 0; i < 10000; ++i) {
    const double u = rng.uniform();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
}

TEST(Rng, NormalMoments) {
  sc::Rng rng(11);
  sc::RunningStats st;
  for (int i = 0; i < 50000; ++i) st.add(rng.normal());
  EXPECT_NEAR(st.mean(), 0.0, 0.02);
  EXPECT_NEAR(st.stddev(), 1.0, 0.02);
}

TEST(Rng, BernoulliRate) {
  sc::Rng rng(13);
  int n = 0;
  for (int i = 0; i < 100000; ++i) n += rng.bernoulli(0.3);
  EXPECT_NEAR(n / 100000.0, 0.3, 0.01);
}

TEST(Rng, JumpEqualsStepping) {
  // A jump of n leaves the state n next_u64() calls leave: the identity,
  // one step, all-ones, power-of-two and mixed exponents (63, 64, 65) of
  // the square-and-multiply, and the He-init chunk distance (2^17 draws).
  for (const std::uint64_t n : {0ull, 1ull, 63ull, 64ull, 65ull, 1ull << 17}) {
    sc::Rng stepped(99), jumped(99);
    for (std::uint64_t i = 0; i < n; ++i) stepped.next_u64();
    sc::Rng::Jump(n).apply(jumped);
    for (int i = 0; i < 4; ++i) {
      EXPECT_EQ(stepped.next_u64(), jumped.next_u64()) << "n = " << n;
    }
  }
}

TEST(Rng, JumpsCompose) {
  // Too far to step: a jump of a then b equals one jump of a + b, and one
  // Jump applied twice equals a jump of twice its distance.
  const std::uint64_t a = 0x0123456789ABCDEFull, b = 0x00FEDCBA98765431ull;
  sc::Rng two(5), one(5);
  sc::Rng::Jump(a).apply(two);
  sc::Rng::Jump(b).apply(two);
  sc::Rng::Jump(a + b).apply(one);
  for (int i = 0; i < 4; ++i) EXPECT_EQ(two.next_u64(), one.next_u64());

  const sc::Rng::Jump big((1ull << 40) + 3);
  sc::Rng twice(6), once(6);
  big.apply(twice);
  big.apply(twice);
  sc::Rng::Jump((1ull << 41) + 6).apply(once);
  for (int i = 0; i < 4; ++i) EXPECT_EQ(twice.next_u64(), once.next_u64());
}

TEST(Stats, WelfordMatchesClosedForm) {
  sc::RunningStats st;
  for (double x : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) st.add(x);
  EXPECT_DOUBLE_EQ(st.mean(), 5.0);
  EXPECT_NEAR(st.stddev(), std::sqrt(32.0 / 7.0), 1e-12);
  EXPECT_DOUBLE_EQ(st.min(), 2.0);
  EXPECT_DOUBLE_EQ(st.max(), 9.0);
}

TEST(Stats, MergeEqualsSequential) {
  sc::Rng rng(17);
  sc::RunningStats all, a, b;
  for (int i = 0; i < 1000; ++i) {
    const double x = rng.normal(3.0, 2.0);
    all.add(x);
    (i % 2 ? a : b).add(x);
  }
  a.merge(b);
  EXPECT_NEAR(a.mean(), all.mean(), 1e-9);
  EXPECT_NEAR(a.stddev(), all.stddev(), 1e-9);
  EXPECT_EQ(a.count(), all.count());
}

TEST(Stats, Percentile) {
  std::vector<double> xs;
  for (int i = 1; i <= 100; ++i) xs.push_back(i);
  EXPECT_NEAR(sc::percentile(xs, 50), 50.5, 1e-9);
  EXPECT_NEAR(sc::percentile(xs, 0), 1.0, 1e-9);
  EXPECT_NEAR(sc::percentile(xs, 100), 100.0, 1e-9);
}

TEST(Table, RendersAligned) {
  sc::Table t("demo");
  t.set_header({"layer", "value"});
  t.add_row({"conv1", sc::Table::num(1.2345, 2)});
  t.add_row({"a-much-longer-name", sc::Table::pct(0.5)});
  std::ostringstream os;
  t.print(os);
  const std::string s = os.str();
  EXPECT_NE(s.find("demo"), std::string::npos);
  EXPECT_NE(s.find("1.23"), std::string::npos);
  EXPECT_NE(s.find("50.0%"), std::string::npos);
  EXPECT_NE(s.find("a-much-longer-name"), std::string::npos);
}

TEST(Table, PmFormat) {
  EXPECT_EQ(sc::Table::pm(1.5, 0.25, 2), "1.50 +- 0.25");
}

TEST(LogHistogram, ExactBelowSixteen) {
  // The first 16 buckets are unit-width: small values round-trip exactly.
  sc::LogHistogram h;
  for (int v = 0; v < 16; ++v) h.add(v);
  EXPECT_EQ(h.count(), 16u);
  EXPECT_DOUBLE_EQ(h.percentile(100.0 / 16.0), 0.0);
  EXPECT_DOUBLE_EQ(h.percentile(50), 7.0);
  EXPECT_DOUBLE_EQ(h.percentile(100), 15.0);
  EXPECT_DOUBLE_EQ(h.min(), 0.0);
  EXPECT_DOUBLE_EQ(h.max(), 15.0);
}

TEST(LogHistogram, RelativeErrorBounded) {
  // 16 linear sub-buckets per octave cap the relative quantization error at
  // half a sub-bucket: |estimate - value| <= value / 16 for values >= 16.
  sc::LogHistogram h;
  sc::Rng rng(7);
  for (int i = 0; i < 2000; ++i) {
    const double v = std::exp(rng.uniform() * std::log(1e9));
    h = sc::LogHistogram{};
    h.add(v);
    const double est = h.percentile(50);
    EXPECT_NEAR(est, std::llround(v),
                std::max(1.0, static_cast<double>(std::llround(v)) / 16.0))
        << "value " << v;
  }
}

TEST(LogHistogram, PercentilesTrackExactOnSkewedSample) {
  // Latency-shaped distribution (bulk small, long tail): histogram p50/p95/
  // p99 must land within one sub-bucket of the exact order statistics.
  sc::LogHistogram h;
  std::vector<double> xs;
  sc::Rng rng(99);
  for (int i = 0; i < 5000; ++i) {
    const double v = 50.0 * std::pow(1000.0, rng.uniform() * rng.uniform());
    h.add(v);
    xs.push_back(static_cast<double>(std::llround(v)));
  }
  for (const double p : {50.0, 95.0, 99.0}) {
    const double exact = sc::percentile(xs, p);
    EXPECT_NEAR(h.percentile(p), exact, std::max(1.0, exact / 8.0))
        << "p" << p;
  }
}

TEST(LogHistogram, MergeEqualsSequential) {
  sc::LogHistogram a, b, all;
  sc::Rng rng(3);
  for (int i = 0; i < 400; ++i) {
    const double v = rng.uniform() * 1e6;
    (i % 2 ? a : b).add(v);
    all.add(v);
  }
  a.merge(b);
  EXPECT_EQ(a.count(), all.count());
  EXPECT_NEAR(a.sum(), all.sum(), 1e-6 * all.sum());
  EXPECT_DOUBLE_EQ(a.min(), all.min());
  EXPECT_DOUBLE_EQ(a.max(), all.max());
  for (const double p : {10.0, 50.0, 90.0, 99.0}) {
    EXPECT_DOUBLE_EQ(a.percentile(p), all.percentile(p));
  }
}

TEST(LogHistogram, HugeValuesClampWithoutOverflow) {
  sc::LogHistogram h;
  h.add(1e30);  // far beyond the 2^40 top octave: clamps, never overflows
  h.add(5.0);
  EXPECT_EQ(h.count(), 2u);
  EXPECT_DOUBLE_EQ(h.percentile(50), 5.0);
  EXPECT_GE(h.percentile(100), std::pow(2.0, 39));
}
