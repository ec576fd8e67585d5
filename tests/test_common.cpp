// Tests for src/common: rng, stats, histogram, ring buffer, assert.

#include <gtest/gtest.h>

#include <cmath>
#include <set>
#include <vector>

#include "common/assert.hpp"
#include "common/histogram.hpp"
#include "common/ring_buffer.hpp"
#include "common/rng.hpp"
#include "common/stats.hpp"

namespace bacp {
namespace {

// ---------------------------------------------------------------- assert --

TEST(Assert, PassingConditionIsSilent) { BACP_ASSERT(1 + 1 == 2); }

TEST(Assert, FailingConditionThrowsWithContext) {
    try {
        BACP_ASSERT_MSG(false, "ctx");
        FAIL() << "expected AssertionError";
    } catch (const AssertionError& err) {
        const std::string what = err.what();
        EXPECT_NE(what.find("false"), std::string::npos);
        EXPECT_NE(what.find("ctx"), std::string::npos);
        EXPECT_NE(what.find("test_common.cpp"), std::string::npos);
    }
}

// ------------------------------------------------------------------- rng --

TEST(Rng, DeterministicForSameSeed) {
    Rng a(42), b(42);
    for (int i = 0; i < 100; ++i) EXPECT_EQ(a(), b());
}

TEST(Rng, DifferentSeedsDiverge) {
    Rng a(1), b(2);
    int equal = 0;
    for (int i = 0; i < 100; ++i) equal += (a() == b()) ? 1 : 0;
    EXPECT_LT(equal, 3);
}

TEST(Rng, ReseedRestartsStream) {
    Rng a(7);
    std::vector<std::uint64_t> first;
    for (int i = 0; i < 10; ++i) first.push_back(a());
    a.reseed(7);
    for (int i = 0; i < 10; ++i) EXPECT_EQ(a(), first[static_cast<std::size_t>(i)]);
}

TEST(Rng, UniformRespectsBound) {
    Rng rng(3);
    for (int i = 0; i < 10000; ++i) EXPECT_LT(rng.uniform(17), 17u);
}

TEST(Rng, UniformCoversAllResidues) {
    Rng rng(4);
    std::set<std::uint64_t> seen;
    for (int i = 0; i < 1000; ++i) seen.insert(rng.uniform(7));
    EXPECT_EQ(seen.size(), 7u);
}

TEST(Rng, UniformInInclusiveRange) {
    Rng rng(5);
    for (int i = 0; i < 1000; ++i) {
        const auto v = rng.uniform_in(10, 12);
        EXPECT_GE(v, 10u);
        EXPECT_LE(v, 12u);
    }
}

TEST(Rng, Uniform01InHalfOpenInterval) {
    Rng rng(6);
    for (int i = 0; i < 10000; ++i) {
        const double v = rng.uniform01();
        EXPECT_GE(v, 0.0);
        EXPECT_LT(v, 1.0);
    }
}

TEST(Rng, Uniform01MeanNearHalf) {
    Rng rng(7);
    double sum = 0;
    const int n = 100000;
    for (int i = 0; i < n; ++i) sum += rng.uniform01();
    EXPECT_NEAR(sum / n, 0.5, 0.01);
}

TEST(Rng, ChanceExtremes) {
    Rng rng(8);
    for (int i = 0; i < 100; ++i) {
        EXPECT_FALSE(rng.chance(0.0));
        EXPECT_TRUE(rng.chance(1.0));
    }
}

TEST(Rng, ChanceMatchesProbability) {
    Rng rng(9);
    int hits = 0;
    const int n = 100000;
    for (int i = 0; i < n; ++i) hits += rng.chance(0.3) ? 1 : 0;
    EXPECT_NEAR(static_cast<double>(hits) / n, 0.3, 0.01);
}

TEST(Rng, ExponentialMeanConverges) {
    Rng rng(10);
    double sum = 0;
    const int n = 100000;
    for (int i = 0; i < n; ++i) sum += rng.exponential(5.0);
    EXPECT_NEAR(sum / n, 5.0, 0.2);
}

TEST(Rng, ExponentialNonNegative) {
    Rng rng(11);
    for (int i = 0; i < 1000; ++i) EXPECT_GE(rng.exponential(1.0), 0.0);
}

TEST(Rng, ParetoRespectsScaleFloor) {
    Rng rng(12);
    for (int i = 0; i < 1000; ++i) EXPECT_GE(rng.pareto(2.0, 1.5), 2.0);
}

TEST(Rng, UniformZeroBoundAsserts) {
    Rng rng(13);
    EXPECT_THROW(rng.uniform(0), AssertionError);
}

// ----------------------------------------------------------------- stats --

TEST(RunningStats, EmptyIsZero) {
    RunningStats s;
    EXPECT_EQ(s.count(), 0u);
    EXPECT_EQ(s.mean(), 0.0);
    EXPECT_EQ(s.stddev(), 0.0);
}

TEST(RunningStats, SingleValue) {
    RunningStats s;
    s.add(4.5);
    EXPECT_EQ(s.count(), 1u);
    EXPECT_DOUBLE_EQ(s.mean(), 4.5);
    EXPECT_DOUBLE_EQ(s.min(), 4.5);
    EXPECT_DOUBLE_EQ(s.max(), 4.5);
    EXPECT_EQ(s.variance(), 0.0);
}

TEST(RunningStats, KnownMoments) {
    RunningStats s;
    for (const double v : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) s.add(v);
    EXPECT_DOUBLE_EQ(s.mean(), 5.0);
    // Sample variance of this classic dataset is 32/7.
    EXPECT_NEAR(s.variance(), 32.0 / 7.0, 1e-12);
    EXPECT_EQ(s.min(), 2.0);
    EXPECT_EQ(s.max(), 9.0);
    EXPECT_DOUBLE_EQ(s.sum(), 40.0);
}

TEST(RunningStats, MergeMatchesCombinedStream) {
    Rng rng(20);
    RunningStats whole, a, b;
    for (int i = 0; i < 1000; ++i) {
        const double v = rng.uniform01() * 10;
        whole.add(v);
        (i % 2 == 0 ? a : b).add(v);
    }
    a.merge(b);
    EXPECT_EQ(a.count(), whole.count());
    EXPECT_NEAR(a.mean(), whole.mean(), 1e-9);
    EXPECT_NEAR(a.variance(), whole.variance(), 1e-9);
    EXPECT_EQ(a.min(), whole.min());
    EXPECT_EQ(a.max(), whole.max());
}

TEST(RunningStats, MergeWithEmptySides) {
    RunningStats a, b;
    a.add(1.0);
    a.merge(b);  // empty rhs
    EXPECT_EQ(a.count(), 1u);
    b.merge(a);  // empty lhs
    EXPECT_EQ(b.count(), 1u);
    EXPECT_DOUBLE_EQ(b.mean(), 1.0);
}

TEST(RunningStats, SummaryMentionsCount) {
    RunningStats s;
    s.add(1);
    s.add(2);
    EXPECT_NE(s.summary().find("n=2"), std::string::npos);
}

// -------------------------------------------------------------- histogram --

TEST(Histogram, EmptyQuantilesZero) {
    Histogram h;
    EXPECT_EQ(h.count(), 0u);
    EXPECT_EQ(h.quantile(0.5), 0);
    EXPECT_EQ(h.mean(), 0.0);
}

TEST(Histogram, SmallValuesAreExact) {
    Histogram h;
    for (int i = 0; i <= 20; ++i) h.add(i);
    EXPECT_EQ(h.min(), 0);
    EXPECT_EQ(h.max(), 20);
    EXPECT_EQ(h.quantile(0.0), 0);
    EXPECT_EQ(h.quantile(1.0), 20);
    EXPECT_NEAR(static_cast<double>(h.quantile(0.5)), 10.0, 1.0);
}

TEST(Histogram, LargeValuesBoundedRelativeError) {
    Histogram h(5);
    const std::int64_t value = 1'000'000'007;
    h.add(value);
    const auto q = h.quantile(0.5);
    EXPECT_LE(std::abs(static_cast<double>(q - value)) / static_cast<double>(value), 1.0 / 32.0);
}

TEST(Histogram, QuantilesMonotone) {
    Histogram h;
    Rng rng(21);
    for (int i = 0; i < 10000; ++i) h.add(static_cast<std::int64_t>(rng.uniform(1'000'000)));
    std::int64_t prev = 0;
    for (double q = 0.0; q <= 1.0; q += 0.05) {
        const auto v = h.quantile(q);
        EXPECT_GE(v, prev);
        prev = v;
    }
}

TEST(Histogram, MeanMatchesArithmeticMean) {
    Histogram h;
    double sum = 0;
    for (int i = 1; i <= 100; ++i) {
        h.add(i * 37);
        sum += i * 37;
    }
    EXPECT_NEAR(h.mean(), sum / 100, 1e-9);
}

TEST(Histogram, NegativeClampsToZero) {
    Histogram h;
    h.add(-5);
    EXPECT_EQ(h.min(), 0);
    EXPECT_EQ(h.count(), 1u);
}

TEST(Histogram, MergeAddsCounts) {
    Histogram a, b;
    a.add(10);
    b.add(20);
    b.add(30);
    a.merge(b);
    EXPECT_EQ(a.count(), 3u);
    EXPECT_EQ(a.min(), 10);
    EXPECT_EQ(a.max(), 30);
}

TEST(Histogram, ResetClears) {
    Histogram h;
    h.add(5);
    h.reset();
    EXPECT_EQ(h.count(), 0u);
    EXPECT_EQ(h.max(), 0);
}

TEST(Histogram, P99AboveP50OnSkewedData) {
    Histogram h;
    for (int i = 0; i < 990; ++i) h.add(100);
    for (int i = 0; i < 10; ++i) h.add(100000);
    EXPECT_LT(h.quantile(0.5), 200);
    EXPECT_GT(h.quantile(0.999), 50000);
}

// ------------------------------------------------------------ ring buffer --

TEST(RingBuffer, PushPopFifoOrder) {
    RingBuffer<int> rb(4);
    for (int i = 0; i < 4; ++i) EXPECT_TRUE(rb.push(i));
    for (int i = 0; i < 4; ++i) EXPECT_EQ(rb.pop(), i);
    EXPECT_TRUE(rb.empty());
}

TEST(RingBuffer, RejectsWhenFull) {
    RingBuffer<int> rb(2);
    EXPECT_TRUE(rb.push(1));
    EXPECT_TRUE(rb.push(2));
    EXPECT_FALSE(rb.push(3));
    EXPECT_EQ(rb.size(), 2u);
}

TEST(RingBuffer, WrapsAround) {
    RingBuffer<int> rb(3);
    rb.push(1);
    rb.push(2);
    EXPECT_EQ(rb.pop(), 1);
    rb.push(3);
    rb.push(4);
    EXPECT_TRUE(rb.full());
    EXPECT_EQ(rb.pop(), 2);
    EXPECT_EQ(rb.pop(), 3);
    EXPECT_EQ(rb.pop(), 4);
}

TEST(RingBuffer, AtIndexesFromFront) {
    RingBuffer<int> rb(3);
    rb.push(7);
    rb.push(8);
    EXPECT_EQ(rb.at(0), 7);
    EXPECT_EQ(rb.at(1), 8);
    EXPECT_THROW(rb.at(2), AssertionError);
}

TEST(RingBuffer, PopEmptyAsserts) {
    RingBuffer<int> rb(1);
    EXPECT_THROW(rb.pop(), AssertionError);
}

TEST(RingBuffer, ClearEmpties) {
    RingBuffer<int> rb(2);
    rb.push(1);
    rb.clear();
    EXPECT_TRUE(rb.empty());
    EXPECT_TRUE(rb.push(9));
    EXPECT_EQ(rb.front(), 9);
}

}  // namespace
}  // namespace bacp
