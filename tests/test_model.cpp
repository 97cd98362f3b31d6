/**
 * @file
 * Tests for the analytical model: Zipf mathematics, Table 5 rates,
 * locality quantities, and the qualitative claims of Figures 8-13.
 */

#include <gtest/gtest.h>

#include <cmath>

#include "core/calibration.hpp"
#include "model/press_model.hpp"
#include "model/zipf_math.hpp"

using namespace press::model;

TEST(ZipfMath, HarmonicMatchesDirectSum)
{
    double direct = 0;
    for (int i = 1; i <= 1000; ++i)
        direct += std::pow(i, -0.8);
    EXPECT_NEAR(harmonic(1000, 0.8), direct, 1e-9);
}

TEST(ZipfMath, HarmonicContinuationIsSmooth)
{
    // Across the exact/Euler-Maclaurin boundary (200000).
    double below = harmonic(199999, 0.8);
    double at = harmonic(200000, 0.8);
    double above = harmonic(200001, 0.8);
    EXPECT_LT(below, at);
    EXPECT_LT(at, above);
    EXPECT_NEAR(above - at, at - below, 1e-6);
}

TEST(ZipfMath, AccumBoundsAndMonotonicity)
{
    EXPECT_DOUBLE_EQ(zipfAccum(0, 100, 0.8), 0.0);
    EXPECT_DOUBLE_EQ(zipfAccum(100, 100, 0.8), 1.0);
    EXPECT_DOUBLE_EQ(zipfAccum(200, 100, 0.8), 1.0);
    double prev = 0;
    for (double n = 10; n <= 100; n += 10) {
        double z = zipfAccum(n, 100, 0.8);
        EXPECT_GT(z, prev);
        prev = z;
    }
}

TEST(ZipfMath, FractionalArgumentsInterpolate)
{
    double lo = zipfAccum(10, 100, 0.8);
    double mid = zipfAccum(10.5, 100, 0.8);
    double hi = zipfAccum(11, 100, 0.8);
    EXPECT_GT(mid, lo);
    EXPECT_LT(mid, hi);
}

TEST(ZipfMath, SolvePopulationInverts)
{
    double cached = 8000;
    for (double target : {0.3, 0.5, 0.7, 0.9, 0.99}) {
        double f = solvePopulation(target, cached, 0.8);
        EXPECT_NEAR(zipfAccum(cached, f, 0.8), target, 1e-6);
        EXPECT_GE(f, cached);
    }
    EXPECT_DOUBLE_EQ(solvePopulation(1.0, cached, 0.8), cached);
}

TEST(ModelLocality, MatchesSection41Formulas)
{
    PressModel m(ModelParams::via());
    Locality loc = m.localityFromHitRate(8, 0.9);
    // Hsn reproduced.
    EXPECT_NEAR(loc.hsn, 0.9, 1e-6);
    // Cluster cache is bigger, so Hlc > Hsn; replication keeps h < Hsn.
    EXPECT_GT(loc.hlc, loc.hsn);
    EXPECT_LT(loc.h, loc.hsn);
    // Q = (N-1)(1-h)/N.
    EXPECT_NEAR(loc.q, 7.0 / 8.0 * (1 - loc.h), 1e-9);
}

TEST(ModelLocality, SingleNodeNeverForwards)
{
    PressModel m(ModelParams::via());
    Locality loc = m.localityFromHitRate(1, 0.8);
    EXPECT_DOUBLE_EQ(loc.q, 0.0);
}

TEST(ModelDemands, DiskBottleneckAtLowHitRates)
{
    PressModel m(ModelParams::via());
    auto p = m.predict(2, 0.25);
    EXPECT_STREQ(p.demands.bottleneck(), "disk");
}

TEST(ModelDemands, CpuBottleneckWhenCachesWork)
{
    PressModel m(ModelParams::tcp());
    auto p = m.predict(8, 0.9);
    EXPECT_STREQ(p.demands.bottleneck(), "cpu");
}

TEST(ModelPrediction, ThroughputScalesWithNodes)
{
    PressModel m(ModelParams::via());
    double prev = 0;
    for (int n : {1, 2, 4, 8, 16}) {
        double t = m.predict(n, 0.9).throughput;
        EXPECT_GT(t, prev);
        prev = t;
    }
}

TEST(ModelPrediction, ViaBeatsTcpWhenCpuBound)
{
    PressModel via(ModelParams::via()), tcp(ModelParams::tcp());
    EXPECT_GT(improvement(via, tcp, 8, 0.9), 1.05);
    // Disk-bound region: no benefit (Figure 8's flat floor).
    EXPECT_NEAR(improvement(via, tcp, 2, 0.2), 1.0, 1e-9);
}

TEST(ModelPrediction, Figure8Shape)
{
    // Gains grow with node count and peak in the 30-60% hit-rate band
    // for large clusters, staying under ~1.4 (paper: up to 1.37).
    PressModel via(ModelParams::via()), tcp(ModelParams::tcp());
    double g8 = improvement(via, tcp, 8, 0.9);
    double g128 = improvement(via, tcp, 128, 0.9);
    EXPECT_GE(g128, g8 * 0.99);
    double best = 0;
    for (double h = 0.2; h <= 1.0; h += 0.02)
        best = std::max(best, improvement(via, tcp, 128, h));
    EXPECT_GT(best, 1.2);
    EXPECT_LT(best, 1.45);
}

TEST(ModelPrediction, Figure9FileSizeDecline)
{
    // Larger files shrink the low-overhead gain (paper: 48% -> ~4%).
    double prev = 10;
    for (double s : {4e3, 16e3, 64e3, 128e3}) {
        ModelParams a = ModelParams::via();
        ModelParams b = ModelParams::tcp();
        a.avgFileBytes = b.avgFileBytes = s;
        double g = improvement(PressModel(a), PressModel(b), 128, 0.9);
        EXPECT_LT(g, prev + 1e-9);
        prev = g;
    }
    // Small-file end approaches the paper's ~1.48.
    ModelParams a = ModelParams::via();
    ModelParams b = ModelParams::tcp();
    a.avgFileBytes = b.avgFileBytes = 4e3;
    double g4k = improvement(PressModel(a), PressModel(b), 128, 0.9);
    EXPECT_GT(g4k, 1.25);
    EXPECT_LT(g4k, 1.55);
}

TEST(ModelPrediction, Figure10RmwZeroCopyBand)
{
    // RMW + zero-copy over regular VIA: bounded by ~12% (paper).
    PressModel rmw(ModelParams::viaRmwZc()), via(ModelParams::via());
    double best = 0;
    for (int n : {8, 32, 128})
        for (double h = 0.2; h <= 1.0; h += 0.05)
            best = std::max(best, improvement(rmw, via, n, h));
    EXPECT_GT(best, 1.06);
    EXPECT_LT(best, 1.16);
}

TEST(ModelPrediction, FutureSystemsReachHigherGains)
{
    // Figures 12/13: next-generation systems push user-level gains
    // beyond the current-system maximum (paper: 49% -> 55%).
    PressModel via_f(ModelParams::viaRmwZcFuture());
    PressModel tcp_f(ModelParams::tcpFuture());
    PressModel via_c(ModelParams::viaRmwZc());
    PressModel tcp_c(ModelParams::tcp());
    double best_future = 0, best_current = 0;
    for (int n : {32, 128})
        for (double h = 0.2; h <= 1.0; h += 0.05) {
            best_future =
                std::max(best_future, improvement(via_f, tcp_f, n, h));
            best_current =
                std::max(best_current, improvement(via_c, tcp_c, n, h));
        }
    EXPECT_GT(best_future, best_current);
    EXPECT_LT(best_future, 1.7);
}

TEST(ModelPrediction, TwoMessageRmwLoadsInternalNic)
{
    PressModel rmw(ModelParams::viaRmwZc()), via(ModelParams::via());
    auto loc = via.localityFromHitRate(8, 0.9);
    auto d_rmw = rmw.demands(8, loc);
    auto d_via = via.demands(8, loc);
    EXPECT_GT(d_rmw.niInternal, d_via.niInternal); // metadata message
    EXPECT_LT(d_rmw.cpu, d_via.cpu);               // but less CPU
}

/** Property sweep: model sanity across the (nodes, hit-rate) grid. */
class ModelGrid
    : public ::testing::TestWithParam<std::tuple<int, double>>
{
};

TEST_P(ModelGrid, PredictionsSane)
{
    auto [nodes, hsn] = GetParam();
    PressModel via(ModelParams::via()), tcp(ModelParams::tcp());
    auto pv = via.predict(nodes, hsn);
    auto pt = tcp.predict(nodes, hsn);
    EXPECT_GT(pv.throughput, 0);
    EXPECT_GE(pv.throughput, pt.throughput * 0.999);
    EXPECT_GE(pv.locality.hlc, pv.locality.hsn - 1e-9);
    EXPECT_GE(pv.locality.q, 0.0);
    EXPECT_LE(pv.locality.q, 1.0);
}

INSTANTIATE_TEST_SUITE_P(
    Grid, ModelGrid,
    ::testing::Combine(::testing::Values(1, 4, 16, 64, 128),
                       ::testing::Values(0.2, 0.5, 0.8, 0.95)));

TEST(ModelServerKinds, ObliviousLosesWhenWorkingSetExceedsNode)
{
    // At Hsn = 0.6 the cluster cache rescues the locality-conscious
    // server; the oblivious one keeps missing to disk.
    PressModel press_m(ModelParams::via());
    PressModel obl(ModelParams::via(), ServerKind::ContentOblivious);
    auto loc = press_m.localityFromHitRate(8, 0.6);
    auto p = press_m.predictFromPopulation(8, loc.files);
    auto o = obl.predictFromPopulation(8, loc.files);
    EXPECT_GT(p.throughput, o.throughput);
    EXPECT_EQ(o.locality.q, 0.0);
    EXPECT_NEAR(o.locality.hlc, o.locality.hsn, 1e-12);
}

TEST(ModelServerKinds, FrontEndIsTheUpperBound)
{
    // LARD-style routing has all the locality with none of the
    // transfers: it must dominate PRESS, which must dominate oblivious
    // (once caches matter).
    for (double hsn : {0.5, 0.7, 0.9}) {
        PressModel press_m(ModelParams::viaRmwZc());
        auto loc = press_m.localityFromHitRate(8, hsn);
        PressModel fe(ModelParams::viaRmwZc(), ServerKind::FrontEnd);
        PressModel obl(ModelParams::viaRmwZc(),
                       ServerKind::ContentOblivious);
        double tp = press_m.predictFromPopulation(8, loc.files).throughput;
        double tf = fe.predictFromPopulation(8, loc.files).throughput;
        double to = obl.predictFromPopulation(8, loc.files).throughput;
        EXPECT_GE(tf, tp * 0.999) << "hsn " << hsn;
        EXPECT_GE(tp, to * 0.999) << "hsn " << hsn;
    }
}

TEST(ModelServerKinds, PressWithinReachOfFrontEnd)
{
    // Section 2.2: PRESS within 7% of LARD at 8 nodes, and modeled
    // portability cost <= 15% even at 96 nodes.
    PressModel press_m(ModelParams::viaRmwZc());
    PressModel fe(ModelParams::viaRmwZc(), ServerKind::FrontEnd);
    auto loc = press_m.localityFromHitRate(8, 0.9);
    double ratio8 =
        press_m.predictFromPopulation(8, loc.files).throughput /
        fe.predictFromPopulation(8, loc.files).throughput;
    EXPECT_GT(ratio8, 0.85);
    double ratio96 =
        press_m.predictFromPopulation(96, loc.files).throughput /
        fe.predictFromPopulation(96, loc.files).throughput;
    EXPECT_GT(ratio96, 0.80);
}

// Table 5 lives twice: as the model's parameters and as the
// simulator's calibration. They must agree, so editing one table
// without the other fails here.
TEST(ModelCalibration, Table5ConstantsMatchTheSimulator)
{
    const ModelParams p{};
    const auto c = press::core::Calibration::defaults();
    // Fixed and per-byte parts of 1/mu_m: 270 us and 80 ns/B, the
    // latter being 12.5 MB/s.
    EXPECT_EQ(std::llround(p.replyFixed * 1e9), c.service.replyFixed);
    EXPECT_EQ(1e9 / p.replyBandwidth, c.service.replyPerByte);
    // Wire sizes: client GET, forward message, RMW file metadata.
    EXPECT_EQ(p.requestBytes, static_cast<double>(c.sizes.httpRequest));
    EXPECT_EQ(p.forwardBytes, static_cast<double>(c.sizes.forward));
    EXPECT_EQ(p.comm.fileMetaBytes, static_cast<double>(c.sizes.fileMeta));
    // 1/mu_p: the model keeps 1/5882 s (170.01 us); the calibration
    // rounds it to a whole 170 us, so they agree to the microsecond.
    EXPECT_EQ(std::llround(p.parseCost * 1e6),
              c.service.parse / press::util::US);
}
