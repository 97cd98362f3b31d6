/**
 * @file
 * Tests for the analytical model: Zipf mathematics, Table 5 rates,
 * locality quantities, and the qualitative claims of Figures 8-13.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <vector>

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
    PressModel via_f(future(ModelParams::viaRmwZc()));
    PressModel tcp_f(future(ModelParams::tcp()));
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

// The model's outputs, pinned as exact doubles: throughput and the
// four station demands of every configuration Figures 8-13 compare,
// at (N, Hsn, S) cells across the disk- and CPU-bound regions. A
// parameter or formula change that moves any of them fails here.
namespace {

/** The golden configurations, indexed by GoldenCell::config: TCP,
 *  regular VIA, VIA RMW + zero-copy, then TCP and VIA RMW + zero-copy
 *  on Section 4.2's next-generation systems. */
std::vector<ModelParams>
goldenConfigs()
{
    return {ModelParams::tcp(), ModelParams::via(), ModelParams::viaRmwZc(),
            future(ModelParams::tcp()), future(ModelParams::viaRmwZc())};
}

struct GoldenCell {
    int config;
    int nodes;
    double hsn;
    double fileBytes;
    double throughput, cpu, disk, niInternal, niExternal;
};

const GoldenCell GoldenCells[] = {
    // tcp, disk-bound
    {0, 2, 0.3, 16000,
     126.7264613578615, 0.0021531199382726729, 0.015782023569270363,
     5.4511652860138502e-05, 0.0013120000000000002},
    // tcp, cpu-bound
    {0, 8, 0.9, 16000,
     3765.1038537759969, 0.0021247753875306401, 0,
     5.0944177515732967e-05, 0.0013120000000000002},
    // tcp, cpu-bound
    {0, 32, 0.4, 64000,
     4633.8082197506865, 0.0069057670241091038, 0.0053946160299747463,
     0.00037998878217951305, 0.0051520000000000003},
    // tcp, cpu-bound
    {0, 128, 0.95, 4000,
     116694.02112975541, 0.0010968856738399061, 0,
     1.4775786168584985e-05, 0.00035199999999999999},
    // via, disk-bound
    {1, 2, 0.3, 16000,
     126.7264613578615, 0.0018611312444384979, 0.015782023569270363,
     5.4511652860138502e-05, 0.0013120000000000002},
    // via, cpu-bound
    {1, 8, 0.9, 16000,
     4319.8977584805807, 0.0018518956807009725, 0,
     5.0944177515732967e-05, 0.0013120000000000002},
    // via, cpu-bound
    {1, 32, 0.4, 64000,
     5017.2438464184952, 0.006378003736621821, 0.0053946160299747463,
     0.00037998878217951305, 0.0051520000000000003},
    // via, cpu-bound
    {1, 128, 0.95, 4000,
     156097.68686066516, 0.00081999933871060163, 0,
     1.4775786168584985e-05, 0.00035199999999999999},
    // viaRmwZc, disk-bound
    {2, 2, 0.3, 16000,
     126.7264613578615, 0.00174109725313783, 0.015782023569270363,
     5.5926107460330157e-05, 0.0013120000000000002},
    // viaRmwZc, cpu-bound
    {2, 8, 0.9, 16000,
     4598.448459742558, 0.0017397172263724525, 0,
     5.2266064166739309e-05, 0.0013120000000000002},
    // viaRmwZc, cpu-bound
    {2, 32, 0.4, 64000,
     5716.2000341928015, 0.0055981245947630308, 0.0053946160299747463,
     0.0003825453784641027, 0.0051520000000000003},
    // viaRmwZc, cpu-bound
    {2, 128, 0.95, 4000,
     164101.17976642362, 0.00078000657997822503, 0,
     1.611708176914777e-05, 0.00035199999999999999},
    // future(tcp), disk-bound
    {3, 2, 0.3, 16000,
     126.7264613578615, 0.0012134716602750762, 0.015782023569270363,
     5.4511652860138502e-05, 0.00013639999999999998},
    // future(tcp), cpu-bound
    {3, 8, 0.9, 16000,
     6689.5091331353315, 0.0011959023959431309, 0,
     5.0944177515732967e-05, 0.00013639999999999998},
    // future(tcp), disk-bound
    {3, 32, 0.4, 64000,
     5931.8401573336441, 0.0039131688009242001, 0.0053946160299747463,
     0.00037998878217951305, 0.00052039999999999996},
    // future(tcp), cpu-bound
    {3, 128, 0.95, 4000,
     198218.08094595018, 0.00064575340145131793, 0,
     1.4775786168584985e-05, 4.0399999999999999e-05},
    // future(viaRmwZc), disk-bound
    {4, 2, 0.3, 16000,
     126.7264613578615, 0.00096609725313782978, 0.015782023569270363,
     5.5926107460330157e-05, 0.00013639999999999998},
    // future(viaRmwZc), cpu-bound
    {4, 8, 0.9, 16000,
     8292.5854139474086, 0.00096471722637245249, 0,
     5.2266064166739309e-05, 0.00013639999999999998},
    // future(viaRmwZc), disk-bound
    {4, 32, 0.4, 64000,
     5931.8401573336441, 0.0029031245947630305, 0.0053946160299747463,
     0.0003825453784641027, 0.00052039999999999996},
    // future(viaRmwZc), cpu-bound
    {4, 128, 0.95, 4000,
     263913.94526182866, 0.00048500657997822502, 0,
     1.611708176914777e-05, 4.0399999999999999e-05},
};

} // namespace

TEST(ModelGolden, PredictionsAreBitExact)
{
    const auto configs = goldenConfigs();
    for (const GoldenCell &g : GoldenCells) {
        SCOPED_TRACE(::testing::Message()
                     << "config " << g.config << ", N " << g.nodes
                     << ", Hsn " << g.hsn << ", S " << g.fileBytes);
        ModelParams p = configs[g.config];
        p.avgFileBytes = g.fileBytes;
        const Prediction pred = PressModel(p).predict(g.nodes, g.hsn);
        EXPECT_EQ(pred.throughput, g.throughput);
        EXPECT_EQ(pred.demands.cpu, g.cpu);
        EXPECT_EQ(pred.demands.disk, g.disk);
        EXPECT_EQ(pred.demands.niInternal, g.niInternal);
        EXPECT_EQ(pred.demands.niExternal, g.niExternal);
    }
}

TEST(ModelGolden, Flash16OfferedRateIsBitExact)
{
    // perfbench's flash16 workload sizes its offered load from this
    // exact call (16 nodes, 8 MB caches, 3200 files of 12 KB), so a
    // one-ulp change here moves that benchmark's simulated traffic.
    ModelParams p = ModelParams::viaRmwZc();
    p.cacheBytes = 8e6;
    p.avgFileBytes = 12000;
    const Prediction pred = PressModel(p).predictFromPopulation(16, 3200);
    EXPECT_EQ(pred.throughput, 11192.047935344643);
    EXPECT_EQ(pred.demands.cpu, 0.001429586443198816);
    EXPECT_EQ(pred.demands.disk, 0);
    EXPECT_EQ(pred.demands.niInternal, 6.0239980862518693e-05);
    EXPECT_EQ(pred.demands.niExternal, 0.00099200000000000004);
}

// The Table-5 constants the model shares with the simulator are read
// back from the simulator's calibration (model/params.hpp). Derived,
// they must still be the paper's published values, bit for bit.
TEST(ModelCalibration, Table5ConstantsMatchTheSimulator)
{
    const ModelParams p{};
    // mu_p = 5882 ops/s; the simulator rounds 1/mu_p to 170 us.
    EXPECT_EQ(p.parseCost, 1.0 / 5882.0);
    EXPECT_EQ(press::core::ServiceCosts{}.parse, 170 * press::util::US);
    // mu_m = (0.00027 + S/12500)^-1, S in KB.
    EXPECT_EQ(p.replyFixed, 270e-6);
    EXPECT_EQ(p.replyBandwidth, 12.5e6);
    // mu_d = (0.0188 + S/3000)^-1, S in KB.
    EXPECT_EQ(p.diskFixed, 18.8e-3);
    EXPECT_EQ(p.diskBandwidth, 3e6);
    // Per-message NIC overheads: cLAN inside, Fast Ethernet outside.
    EXPECT_EQ(p.niIntOverhead, 3e-6);
    EXPECT_EQ(p.niExtOverhead, 4e-6);
    // Wire sizes: client GET, forward message, RMW file metadata.
    EXPECT_EQ(p.requestBytes, 300.0);
    EXPECT_EQ(p.forwardBytes, 53.0);
    EXPECT_EQ(p.comm.fileMetaBytes, 61.0);
}
