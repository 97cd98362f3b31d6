/**
 * @file
 * Tests of check::ViaChecker, the VIA protocol-invariant checker.
 *
 * One test per violation class seeds exactly that violation and asserts
 * it is detected with the right structured kind; the clean-run tests
 * prove the checker reports nothing on legal traffic, including a full
 * PRESS cluster simulation at every server version.
 */

#include <gtest/gtest.h>

#include <memory>

#include "check/via_checker.hpp"
#include "core/cluster.hpp"
#include "core/credit_gate.hpp"
#include "via/via_nic.hpp"
#include "workload/trace_gen.hpp"

using namespace press;
using check::CheckMode;
using check::ViaChecker;
using check::Violation;

namespace {

/** Two checked NICs on a cLAN fabric with a connected reliable VI pair. */
struct Harness {
    sim::Simulator sim;
    net::Fabric fabric{sim, net::FabricConfig::clan(), 2};
    via::ViaNic nicA{sim, fabric, 0};
    via::ViaNic nicB{sim, fabric, 1};
    ViaChecker checker;

    explicit Harness(CheckMode mode = CheckMode::Record)
        : checker(sim, mode)
    {
        checker.attachNic(nicA);
        checker.attachNic(nicB);
    }

    via::VirtualInterface *
    pair(via::VirtualInterface **other = nullptr,
         via::CompletionQueue *recv_cq = nullptr)
    {
        auto *va = nicA.createVi(via::Reliability::ReliableDelivery);
        auto *vb =
            nicB.createVi(via::Reliability::ReliableDelivery, nullptr,
                          recv_cq);
        via::ViaNic::connect(*va, *vb);
        if (other)
            *other = vb;
        return va;
    }
};

} // namespace

// ---------------------------------------------------------------------
// Seeded violations: each class must be detected
// ---------------------------------------------------------------------

TEST(ViaChecker, UnregisteredSendBufferDetected)
{
    Harness h;
    auto *va = h.pair();
    va->postSend(via::makeSend(0xdead000, 512));
    h.sim.run();

    EXPECT_GE(h.checker.count(Violation::Kind::UnregisteredDma), 1u);
    ASSERT_FALSE(h.checker.violations().empty());
    const Violation &v = h.checker.violations().front();
    EXPECT_EQ(v.kind, Violation::Kind::UnregisteredDma);
    EXPECT_EQ(v.node, 0);
    EXPECT_EQ(v.lo, 0xdead000u);
    EXPECT_EQ(v.hi, 0xdead000u + 512u);
}

TEST(ViaChecker, UnregisteredRecvBufferDetected)
{
    // An explicit descriptor and a counted post of the same buffer.
    for (bool counted : {false, true}) {
        SCOPED_TRACE(counted ? "postRecvs" : "postRecv");
        Harness h;
        via::VirtualInterface *vb = nullptr;
        h.pair(&vb);
        if (counted)
            vb->postRecvs(0xbad0000, 4096, 16);
        else
            vb->postRecv(via::makeRecv(0xbad0000, 4096));

        EXPECT_EQ(h.checker.count(Violation::Kind::UnregisteredDma), 1u);
        ASSERT_FALSE(h.checker.violations().empty());
        const Violation &v = h.checker.violations().front();
        EXPECT_EQ(v.node, 1);
        EXPECT_EQ(v.lo, 0xbad0000u);
        EXPECT_EQ(v.hi, 0xbad0000u + 4096u);
    }
}

TEST(ViaChecker, ZeroLengthDoorbellNeedsNoRegistration)
{
    Harness h;
    via::VirtualInterface *vb = nullptr;
    auto *va = h.pair(&vb);
    auto dst = h.nicB.registerMemory(64);
    vb->postRecv(via::makeRecv(dst.base, 64));
    va->postSend(via::makeSend(0, 0)); // doorbell-only, mirrors providers
    h.sim.run();

    EXPECT_TRUE(h.checker.clean()) << h.checker.report();
}

TEST(ViaChecker, UseAfterDeregisterDetected)
{
    Harness h;
    auto *va = h.pair();
    auto src = h.nicA.registerMemory(4096);
    h.nicA.deregister(src.handle);
    va->postSend(via::makeSend(src.base, 128));
    h.sim.run();

    ASSERT_GE(h.checker.count(Violation::Kind::UseAfterDeregister), 1u);
    const Violation &v = h.checker.violations().front();
    EXPECT_EQ(v.kind, Violation::Kind::UseAfterDeregister);
    EXPECT_EQ(v.handle, src.handle);
    EXPECT_EQ(v.node, 0);
}

TEST(ViaChecker, DoubleDeregisterDetected)
{
    Harness h;
    auto region = h.nicA.registerMemory(4096);
    EXPECT_TRUE(h.nicA.deregister(region.handle));
    EXPECT_FALSE(h.nicA.deregister(region.handle));

    EXPECT_EQ(h.checker.count(Violation::Kind::UseAfterDeregister), 1u);
    EXPECT_EQ(h.checker.violations().front().op, "deregister");
}

TEST(ViaChecker, ReuseBeforeCompleteDetected)
{
    Harness h;
    via::VirtualInterface *vb = nullptr;
    auto *va = h.pair(&vb);
    auto src = h.nicA.registerMemory(4096);
    auto dst = h.nicB.registerMemory(4096);
    vb->postRecv(via::makeRecv(dst.base, 4096));
    vb->postRecv(via::makeRecv(dst.base, 4096));

    auto desc = via::makeSend(src.base, 64);
    va->postSend(desc);
    va->postSend(desc); // still in flight: the NIC owns it
    h.sim.run();

    EXPECT_EQ(h.checker.count(Violation::Kind::ReuseBeforeComplete), 1u);
}

TEST(ViaChecker, RepostWithoutStatusResetDetected)
{
    Harness h;
    via::VirtualInterface *vb = nullptr;
    auto *va = h.pair(&vb);
    auto src = h.nicA.registerMemory(4096);
    auto dst = h.nicB.registerMemory(4096);
    vb->postRecv(via::makeRecv(dst.base, 4096));
    vb->postRecv(via::makeRecv(dst.base, 4096));

    auto desc = via::makeSend(src.base, 64);
    va->postSend(desc);
    h.sim.run();
    ASSERT_EQ(desc->status, via::Status::Complete);

    va->postSend(desc); // completed but never reset to Pending
    h.sim.run();
    EXPECT_EQ(h.checker.count(Violation::Kind::ReuseBeforeComplete), 1u);
}

TEST(ViaChecker, LegalReuseAfterCompletionIsClean)
{
    Harness h;
    via::VirtualInterface *vb = nullptr;
    auto *va = h.pair(&vb);
    auto src = h.nicA.registerMemory(4096);
    auto dst = h.nicB.registerMemory(4096);

    auto desc = via::makeSend(src.base, 64);
    for (int round = 0; round < 3; ++round) {
        vb->postRecv(via::makeRecv(dst.base, 4096));
        va->postSend(desc);
        h.sim.run();
        ASSERT_EQ(desc->status, via::Status::Complete);
        ASSERT_TRUE(vb->pollRecv());
        desc->status = via::Status::Pending; // the legal reuse protocol
    }
    EXPECT_TRUE(h.checker.clean()) << h.checker.report();
}

TEST(ViaChecker, CqOverflowDetected)
{
    Harness h;
    via::CompletionQueue cq(h.sim, /*capacity=*/1);
    h.checker.attachCq(cq, /*node=*/1);

    via::VirtualInterface *vb = nullptr;
    auto *va = h.pair(&vb, &cq);
    auto src = h.nicA.registerMemory(4096);
    auto dst = h.nicB.registerMemory(4096);
    vb->postRecv(via::makeRecv(dst.base, 4096));
    vb->postRecv(via::makeRecv(dst.base, 4096));
    va->postSend(via::makeSend(src.base, 64));
    va->postSend(via::makeSend(src.base, 64));
    h.sim.run(); // two completions land on a capacity-1 CQ

    EXPECT_EQ(h.checker.count(Violation::Kind::CqOverflow), 1u);
    EXPECT_EQ(h.checker.violations().front().node, 1);
}

TEST(ViaChecker, NegativeCreditsDetected)
{
    sim::Simulator sim;
    ViaChecker checker(sim, CheckMode::Record);
    core::CreditGate gate(4);
    gate.setObserver(checker.creditHook(2, "file->3"));

    gate.release(-5); // a corrupted credit-return message
    ASSERT_EQ(checker.count(Violation::Kind::NegativeCredits), 1u);
    const Violation &v = checker.violations().front();
    EXPECT_EQ(v.node, 2);
    EXPECT_EQ(v.op, "credit:file->3");
}

TEST(ViaChecker, CreditOverReleaseDetected)
{
    sim::Simulator sim;
    ViaChecker checker(sim, CheckMode::Record);
    core::CreditGate gate(4);
    gate.setObserver(checker.creditHook(0, "forward->1"));

    gate.release(1); // no credit was outstanding: window exceeded
    EXPECT_EQ(checker.count(Violation::Kind::CreditOverRelease), 1u);
}

TEST(ViaChecker, CreditGateNormalTrafficIsClean)
{
    sim::Simulator sim;
    ViaChecker checker(sim, CheckMode::Record);
    core::CreditGate gate(2);
    gate.setObserver(checker.creditHook(0, "regular->1"));

    int ran = 0;
    for (int i = 0; i < 5; ++i)
        gate.acquire([&ran]() { ++ran; });
    EXPECT_EQ(ran, 2);        // window exhausted, three queued
    gate.release(2);
    gate.release(1);
    EXPECT_EQ(ran, 5);
    EXPECT_TRUE(checker.clean()) << checker.report();
    EXPECT_GT(checker.checksPerformed(), 0u);
}

TEST(ViaChecker, RmwOutOfBoundsDetected)
{
    Harness h;
    auto *va = h.pair();
    auto src = h.nicA.registerMemory(4096);
    auto dst = h.nicB.registerMemory(4096);

    // Starts inside the peer's region but runs 104 bytes past its end.
    va->postSend(
        via::makeRdmaWrite(src.base, 200, dst.base + 4000));
    h.sim.run();

    ASSERT_GE(h.checker.count(Violation::Kind::RmwOutOfBounds), 1u);
    const Violation &v = h.checker.violations().front();
    EXPECT_EQ(v.kind, Violation::Kind::RmwOutOfBounds);
    EXPECT_EQ(v.handle, dst.handle);
    EXPECT_EQ(v.node, 1); // the *target* node's address space
    EXPECT_EQ(v.lo, dst.base + 4000);
    EXPECT_EQ(v.hi, dst.base + 4200);
}

TEST(ViaChecker, RmwToUnregisteredRemoteDetected)
{
    Harness h;
    auto *va = h.pair();
    auto src = h.nicA.registerMemory(4096);
    va->postSend(via::makeRdmaWrite(src.base, 64, 0xf00d0000));
    h.sim.run();

    EXPECT_GE(h.checker.count(Violation::Kind::UnregisteredDma), 1u);
    EXPECT_EQ(h.checker.violations().front().node, 1);
}

TEST(ViaChecker, RmwToDeregisteredRemoteDetected)
{
    Harness h;
    auto *va = h.pair();
    auto src = h.nicA.registerMemory(4096);
    auto dst = h.nicB.registerMemory(4096);
    h.nicB.deregister(dst.handle);

    va->postSend(via::makeRdmaWrite(src.base, 64, dst.base));
    h.sim.run();

    ASSERT_GE(h.checker.count(Violation::Kind::UseAfterDeregister), 1u);
    EXPECT_EQ(h.checker.violations().front().handle, dst.handle);
}

TEST(ViaCheckerDeathTest, AbortModePanicsWithStructuredReport)
{
    ::testing::FLAGS_gtest_death_test_style = "threadsafe";
    EXPECT_DEATH(
        {
            Harness h(CheckMode::Abort);
            auto *va = h.pair();
            va->postSend(via::makeSend(0xdead000, 512));
            h.sim.run();
        },
        "ViaChecker.*unregistered-dma");
}

// ---------------------------------------------------------------------
// Structured reports
// ---------------------------------------------------------------------

TEST(ViaChecker, ViolationsCarryTickAndFormat)
{
    Harness h;
    auto *va = h.pair();
    auto src = h.nicA.registerMemory(4096);
    auto dst = h.nicB.registerMemory(4096);
    // Advance simulated time before seeding the violation so the report
    // carries a non-zero tick: a completed round trip does that.
    via::VirtualInterface *vb = h.nicB.createVi(
        via::Reliability::ReliableDelivery);
    (void)vb;
    va->postSend(via::makeRdmaWrite(src.base, 64, dst.base));
    h.sim.run();
    ASSERT_TRUE(h.checker.clean());

    va->postSend(via::makeRdmaWrite(src.base, 64, dst.base + 5000));
    h.sim.run();

    ASSERT_FALSE(h.checker.violations().empty());
    const Violation &v = h.checker.violations().front();
    EXPECT_GT(v.tick, 0u);
    std::string line = v.format();
    EXPECT_NE(line.find("tick"), std::string::npos);
    EXPECT_NE(line.find("node 1"), std::string::npos);
    EXPECT_NE(line.find("range"), std::string::npos);
    EXPECT_NE(h.checker.report().find("violation"), std::string::npos);
}

// ---------------------------------------------------------------------
// Clean runs: zero false positives
// ---------------------------------------------------------------------

TEST(ViaChecker, CleanTransfersReportNothing)
{
    Harness h;
    via::VirtualInterface *vb = nullptr;
    auto *va = h.pair(&vb);
    auto src = h.nicA.registerMemory(1 << 16);
    auto dst = h.nicB.registerMemory(1 << 16);

    for (int i = 0; i < 8; ++i)
        vb->postRecv(via::makeRecv(dst.base, 1 << 16));
    for (int i = 0; i < 8; ++i)
        va->postSend(via::makeSend(src.base, 1000 + i));
    for (int i = 0; i < 8; ++i)
        va->postSend(via::makeRdmaWrite(src.base, 256, dst.base + 256 * i));
    h.sim.run();

    EXPECT_TRUE(h.checker.clean()) << h.checker.report();
    EXPECT_GT(h.checker.checksPerformed(), 40u);
}

TEST(ViaChecker, CleanFullClusterRunAtEveryVersion)
{
    workload::TraceSpec spec;
    spec.name = "check";
    spec.numFiles = 400;
    spec.numRequests = 4000;
    spec.avgFileSize = 12000;
    spec.avgRequestSize = 9000;
    spec.seed = 11;
    workload::Trace trace = workload::generateTrace(spec);

    for (core::Version version :
         {core::Version::V0, core::Version::V1, core::Version::V3,
          core::Version::V5}) {
        core::PressConfig config;
        config.nodes = 4;
        config.protocol = core::Protocol::ViaClan;
        config.version = version;
        config.cacheBytes = 8 * util::MB;
        config.clientsPerNode = 44;
        config.warmupFraction = 0.3;
        config.viaCheck = core::ViaCheck::Record;

        core::PressCluster cluster(config, trace);
        auto results = cluster.run();
        EXPECT_GT(results.throughput, 0.0);

        const ViaChecker *checker = cluster.viaChecker();
        ASSERT_NE(checker, nullptr);
        EXPECT_TRUE(checker->clean())
            << core::versionName(version) << ": " << checker->report();
        // "Fully checked" must mean something: a whole run exercises
        // the invariants tens of thousands of times.
        EXPECT_GT(checker->checksPerformed(), 10000u)
            << core::versionName(version);
    }
}

TEST(ViaChecker, CheckerOffMeansNoChecker)
{
    workload::TraceSpec spec;
    spec.name = "off";
    spec.numFiles = 50;
    spec.numRequests = 200;
    spec.avgFileSize = 8000;
    spec.avgRequestSize = 6000;
    spec.seed = 3;
    workload::Trace trace = workload::generateTrace(spec);

    core::PressConfig config;
    config.nodes = 2;
    config.protocol = core::Protocol::ViaClan;
    config.clientsPerNode = 4;
    config.warmupFraction = 0.0;
    config.viaCheck = core::ViaCheck::Off;

    core::PressCluster cluster(config, trace);
    cluster.run();
    EXPECT_EQ(cluster.viaChecker(), nullptr);
}

// ---------------------------------------------------------------------
// Connection-loss vocabulary (fault subsystem)
// ---------------------------------------------------------------------

TEST(ViaChecker, PostToDeadViDetected)
{
    Harness h;
    auto *va = h.pair();
    auto src = h.nicA.registerMemory(256);

    va->breakLocal(); // peer crashed: endpoint torn down
    va->postSend(via::makeSend(src.base, 256));

    EXPECT_GE(h.checker.count(Violation::Kind::PostToDeadVi), 1u);
    ASSERT_FALSE(h.checker.violations().empty());
    const Violation &v = h.checker.violations().front();
    EXPECT_EQ(v.kind, Violation::Kind::PostToDeadVi);
    EXPECT_EQ(v.node, 0);
}

TEST(ViaChecker, PostRecvOnDeadViDetected)
{
    // An explicit descriptor and a counted post on the dead VI.
    for (bool counted : {false, true}) {
        SCOPED_TRACE(counted ? "postRecvs" : "postRecv");
        Harness h;
        via::VirtualInterface *vb = nullptr;
        h.pair(&vb);
        auto dst = h.nicB.registerMemory(256);

        vb->breakLocal();
        if (counted)
            vb->postRecvs(dst.base, 256, 4);
        else
            vb->postRecv(via::makeRecv(dst.base, 256));

        EXPECT_GE(h.checker.count(Violation::Kind::PostToDeadVi), 1u);
        ASSERT_FALSE(h.checker.violations().empty());
        EXPECT_EQ(h.checker.violations().front().node, 1);
    }
}

TEST(ViaChecker, ErrorCompletionDrainIsClean)
{
    // The legitimate VIA disconnect vocabulary: receives posted before
    // the teardown drain with ErrorFlushed and in-flight sends toward
    // the broken end complete with ErrorDisconnected. Neither is a
    // protocol violation — only *new* posts on the dead VI are.
    Harness h;
    via::VirtualInterface *vb = nullptr;
    auto *va = h.pair(&vb);
    auto src = h.nicA.registerMemory(256);
    auto dst = h.nicB.registerMemory(256);

    vb->postRecv(via::makeRecv(dst.base, 256));
    va->postSend(via::makeSend(src.base, 256));
    vb->breakLocal(); // recv drains ErrorFlushed, send completes
                      // ErrorDisconnected on arrival
    h.sim.run();

    EXPECT_TRUE(h.checker.clean()) << h.checker.report();
}
