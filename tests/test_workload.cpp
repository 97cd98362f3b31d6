/**
 * @file
 * Tests for trace generation and replay: Table 1 fidelity, save/load
 * round-trips, and the request feed.
 */

#include <gtest/gtest.h>

#include <sstream>
#include <utility>

#include "storage/file_cache.hpp"
#include "workload/trace.hpp"
#include "workload/stack_distance.hpp"
#include "workload/trace_gen.hpp"

using namespace press::workload;
using press::storage::InvalidFile;

TEST(TraceGen, MatchesSpecCounts)
{
    TraceSpec spec;
    spec.numFiles = 500;
    spec.numRequests = 20000;
    spec.avgFileSize = 10000;
    Trace t = generateTrace(spec);
    EXPECT_EQ(t.files.count(), 500u);
    EXPECT_EQ(t.requests.size(), 20000u);
    EXPECT_NEAR(t.files.averageSize(), 10000.0, 500.0);
}

TEST(TraceGen, DeterministicForSeed)
{
    TraceSpec spec;
    spec.numFiles = 100;
    spec.numRequests = 5000;
    Trace a = generateTrace(spec);
    Trace b = generateTrace(spec);
    EXPECT_EQ(a.requests, b.requests);
    spec.seed += 1;
    Trace c = generateTrace(spec);
    EXPECT_NE(a.requests, c.requests);
}

TEST(TraceGen, TargetsAverageRequestSize)
{
    TraceSpec spec;
    spec.numFiles = 2000;
    spec.numRequests = 100000;
    spec.avgFileSize = 20000;
    spec.avgRequestSize = 10000; // popular files smaller
    Trace t = generateTrace(spec);
    EXPECT_NEAR(t.averageRequestSize(), 10000.0, 1500.0);
}

TEST(TraceGen, PopularityIsSkewed)
{
    TraceSpec spec;
    spec.numFiles = 1000;
    spec.numRequests = 100000;
    Trace t = generateTrace(spec);
    std::vector<int> counts(1000, 0);
    for (auto f : t.requests)
        ++counts[f];
    std::sort(counts.rbegin(), counts.rend());
    int top100 = 0;
    for (int i = 0; i < 100; ++i)
        top100 += counts[i];
    // Zipf(0.8) over 1000 files: the top decile draws far more than 10%.
    EXPECT_GT(top100, 30000);
}

/** Table 1 fidelity, parameterized over the four paper traces. */
class PaperTrace : public ::testing::TestWithParam<int>
{
};

TEST_P(PaperTrace, MatchesTable1)
{
    TraceSpec spec = paperTraceSpecs()[GetParam()];
    // Scale requests down for test speed; file population stays full.
    TraceSpec scaled = spec.scaled(0.05);
    Trace t = generateTrace(scaled);
    EXPECT_EQ(t.files.count(), spec.numFiles);
    // Average file size within 5% of Table 1.
    EXPECT_NEAR(t.files.averageSize() / spec.avgFileSize, 1.0, 0.05);
    // Average requested size within 15% (it is a stochastic target).
    EXPECT_NEAR(t.averageRequestSize() / spec.avgRequestSize, 1.0, 0.15);
}

INSTANTIATE_TEST_SUITE_P(Table1, PaperTrace,
                         ::testing::Values(0, 1, 2, 3));

TEST(TraceGen, FindPaperTraceIgnoresCaseAndMissesUnknownNames)
{
    const std::pair<const char *, TraceSpec> hits[] = {
        {"clarknet", clarknetSpec()},
        {"FORTH", forthSpec()},
        {"Nasa", nasaSpec()},
        {"rutgers", rutgersSpec()},
    };
    for (const auto &[name, want] : hits) {
        auto got = findPaperTrace(name);
        ASSERT_TRUE(got.has_value()) << name;
        EXPECT_EQ(got->name, want.name);
        EXPECT_EQ(got->seed, want.seed);
        EXPECT_EQ(got->numRequests, want.numRequests);
    }
    EXPECT_FALSE(findPaperTrace("forht").has_value());
    EXPECT_FALSE(findPaperTrace("").has_value());
    EXPECT_FALSE(findPaperTrace("nasa ").has_value());
}

TEST(Trace, SaveLoadRoundTrip)
{
    TraceSpec spec;
    spec.numFiles = 50;
    spec.numRequests = 500;
    Trace t = generateTrace(spec);
    std::stringstream ss;
    t.save(ss);
    Trace u = Trace::load(ss);
    EXPECT_EQ(u.name, t.name);
    EXPECT_EQ(u.files.count(), t.files.count());
    EXPECT_EQ(u.requests, t.requests);
    for (std::size_t i = 0; i < t.files.count(); ++i)
        EXPECT_EQ(u.files.size(i), t.files.size(i));
}

TEST(RequestFeed, OnePassByDefault)
{
    Trace t;
    t.files = press::storage::FileSet({10, 20, 30});
    t.requests = {0, 1, 2};
    RequestFeed feed(t);
    EXPECT_EQ(feed.next(), 0u);
    EXPECT_EQ(feed.next(), 1u);
    EXPECT_EQ(feed.next(), 2u);
    EXPECT_EQ(feed.next(), InvalidFile);
    EXPECT_TRUE(feed.exhausted());
    EXPECT_EQ(feed.issued(), 3u);
}

TEST(RequestFeed, LimitTruncates)
{
    Trace t;
    t.files = press::storage::FileSet({10});
    t.requests = {0, 0, 0, 0, 0};
    RequestFeed feed(t, 2);
    EXPECT_EQ(feed.next(), 0u);
    EXPECT_EQ(feed.next(), 0u);
    EXPECT_EQ(feed.next(), InvalidFile);
}

TEST(RequestFeed, WrapRepeats)
{
    Trace t;
    t.files = press::storage::FileSet({10, 20});
    t.requests = {0, 1};
    RequestFeed feed(t, 5, true);
    std::vector<press::storage::FileId> got;
    for (int i = 0; i < 6; ++i)
        got.push_back(feed.next());
    EXPECT_EQ(got, (std::vector<press::storage::FileId>{0, 1, 0, 1, 0,
                                                        InvalidFile}));
}

TEST(Trace, RequestedBytes)
{
    Trace t;
    t.files = press::storage::FileSet({10, 20});
    t.requests = {0, 1, 1};
    EXPECT_EQ(t.requestedBytes(), 50u);
    EXPECT_NEAR(t.averageRequestSize(), 50.0 / 3.0, 1e-9);
}

TEST(TraceGen, TemporalLocalityRaisesLruHitRate)
{
    TraceSpec base;
    base.numFiles = 5000;
    base.numRequests = 60000;
    base.zipfAlpha = 0.5; // weak popularity so the temporal knob shows
    TraceSpec warm = base;
    warm.temporalLocality = 0.6;
    warm.temporalWindow = 200;

    auto lru_hits = [](const Trace &t) {
        press::storage::FileCache cache(300ull * 20000); // ~300 files
        std::uint64_t hits = 0;
        for (auto f : t.requests) {
            if (cache.contains(f)) {
                ++hits;
                cache.touch(f);
            } else {
                cache.insert(f, 20000);
            }
        }
        return hits;
    };
    std::uint64_t cold = lru_hits(generateTrace(base));
    std::uint64_t hot = lru_hits(generateTrace(warm));
    EXPECT_GT(hot, cold + cold / 2); // at least 1.5x the hits
}

TEST(TraceGen, TemporalLocalityKeepsCounts)
{
    TraceSpec spec;
    spec.numFiles = 100;
    spec.numRequests = 5000;
    spec.temporalLocality = 0.9;
    Trace t = generateTrace(spec);
    EXPECT_EQ(t.requests.size(), 5000u);
    for (auto f : t.requests)
        ASSERT_LT(f, 100u);
}

TEST(StackDistance, AgreesWithDirectLruSimulation)
{
    TraceSpec spec;
    spec.numFiles = 400;
    spec.numRequests = 30000;
    spec.avgFileSize = 8000;
    spec.seed = 77;
    Trace t = generateTrace(spec);
    auto curve = analyzeStackDistances(t);
    EXPECT_EQ(curve.accesses, t.requests.size());

    for (std::uint64_t cap : {200000ull, 800000ull, 2000000ull}) {
        // Direct LRU byte-capacity simulation.
        press::storage::FileCache cache(cap);
        std::uint64_t misses = 0;
        for (auto f : t.requests) {
            if (cache.contains(f)) {
                cache.touch(f);
            } else {
                ++misses;
                cache.insert(f, t.files.size(f));
            }
        }
        double direct =
            static_cast<double>(misses) / t.requests.size();
        double predicted = curve.missRatio(cap);
        // The byte-LRU stack distance is an approximation of the
        // variable-size LRU cache; they track within a few percent.
        EXPECT_NEAR(predicted, direct, 0.05)
            << "capacity " << cap;
    }
}

TEST(StackDistance, ColdMissesEqualDistinctFiles)
{
    Trace t;
    t.files = press::storage::FileSet({100, 200, 300});
    t.requests = {0, 1, 2, 0, 1, 2, 0};
    auto curve = analyzeStackDistances(t);
    EXPECT_EQ(curve.coldMisses, 3u);
    EXPECT_EQ(curve.accesses, 7u);
    // With an infinite cache only the cold misses remain.
    EXPECT_NEAR(curve.missRatio(UINT64_MAX / 2), 3.0 / 7.0, 1e-9);
    // A cache too small for even one reuse misses everything.
    EXPECT_NEAR(curve.missRatio(1), 1.0, 1e-9);
}

TEST(StackDistance, CapacityForMissRatioMonotone)
{
    TraceSpec spec;
    spec.numFiles = 300;
    spec.numRequests = 20000;
    Trace t = generateTrace(spec);
    auto curve = analyzeStackDistances(t);
    std::uint64_t c30 = curve.capacityForMissRatio(0.30);
    std::uint64_t c10 = curve.capacityForMissRatio(0.10);
    EXPECT_GT(c10, c30); // tighter target needs a bigger cache
    double cold = static_cast<double>(curve.coldMisses) / curve.accesses;
    EXPECT_EQ(curve.capacityForMissRatio(cold / 2), 0u);
}
