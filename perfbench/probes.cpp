#include "probes.hpp"

#include <chrono>
#include <cstdint>

#include "metrics.hpp"
#include "net/fabric.hpp"
#include "sim/resource.hpp"
#include "sim/simulator.hpp"
#include "storage/file_cache.hpp"
#include "tcpnet/tcp_stack.hpp"
#include "via/via_nic.hpp"

namespace perfbench {

using namespace press;

namespace {

using Clock = std::chrono::steady_clock;

constexpr int Repeats = 3;   // each probe reports the median of three
constexpr int Batch = 64;    // messages in flight per simulator run

/** Median over Repeats of @p body's host ns per unit of work. */
template <typename Body>
double
timedNsPer(Body &&body)
{
    std::vector<double> samples;
    for (int r = 0; r < Repeats; ++r) {
        auto t0 = Clock::now();
        double units = body();
        auto t1 = Clock::now();
        samples.push_back(
            std::chrono::duration<double, std::nano>(t1 - t0).count() /
            units);
    }
    return median(samples);
}

struct Chains {
    static constexpr std::uint64_t Events = 2'000'000;
    static constexpr int Count = 64;

    sim::Simulator sim;
    std::uint64_t fired = 0;
    std::uint64_t state = 0x9e3779b97f4a7c15ull;

    void
    step()
    {
        ++fired;
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        if (fired + Count <= Events)
            sim.schedule(1 + static_cast<sim::Tick>(state & 1023),
                         [this]() { step(); });
    }
};

} // namespace

double
kernelNsPerEvent()
{
    return timedNsPer([] {
        Chains c;
        for (int i = 0; i < Chains::Count; ++i)
            c.sim.schedule(i, [&c]() { c.step(); });
        c.sim.run();
        return static_cast<double>(c.sim.eventsExecuted());
    });
}

double
viaMsgHostNs()
{
    constexpr int Batches = 400;
    constexpr std::uint64_t Bytes = 64;
    return timedNsPer([] {
        sim::Simulator sim;
        net::Fabric fabric(sim, net::FabricConfig::clan(), 2);
        via::ViaNic na(sim, fabric, 0), nb(sim, fabric, 1);
        auto *va = na.createVi(via::Reliability::ReliableDelivery);
        auto *vb = nb.createVi(via::Reliability::ReliableDelivery);
        via::ViaNic::connect(*va, *vb);
        auto src = na.registerMemory(1 << 16);
        auto dst = nb.registerMemory(1 << 16);
        for (int b = 0; b < Batches; ++b) {
            for (int i = 0; i < Batch; ++i)
                vb->postRecv(via::makeRecv(dst.base, 1 << 16));
            for (int i = 0; i < Batch; ++i)
                va->postSend(via::makeSend(src.base, Bytes));
            sim.run();
            while (va->pollSend()) {
            }
            while (vb->pollRecv()) {
            }
        }
        return static_cast<double>(Batches * Batch);
    });
}

double
tcpMsgHostNs()
{
    constexpr int Batches = 400;
    constexpr std::uint64_t Bytes = 64;
    return timedNsPer([] {
        sim::Simulator sim;
        net::Fabric fabric(sim, net::FabricConfig::clan(), 2);
        sim::FifoResource cpu_a(sim, "a"), cpu_b(sim, "b");
        tcpnet::TcpStack sa(sim, fabric, 0, cpu_a, 0,
                            tcpnet::TcpCosts::clan());
        tcpnet::TcpStack sb(sim, fabric, 1, cpu_b, 0,
                            tcpnet::TcpCosts::clan());
        auto [ab, ba] = tcpnet::TcpStack::connect(sa, sb, 256 * 1024);
        (void)ba;
        std::uint64_t received = 0;
        ab->onReceive(
            [&](std::uint64_t bytes, const net::Payload &) {
                received += bytes;
            });
        for (int b = 0; b < Batches; ++b) {
            for (int i = 0; i < Batch; ++i)
                ab->send(Bytes);
            sim.run();
        }
        return static_cast<double>(Batches * Batch);
    });
}

double
cacheOpNs(const workload::Trace &trace)
{
    return timedNsPer([&trace] {
        storage::FileCache cache(8 * util::MB);
        for (storage::FileId f : trace.requests) {
            if (cache.contains(f))
                cache.touch(f);
            else
                cache.insert(f, trace.files.size(f));
        }
        return static_cast<double>(trace.requests.size());
    });
}

} // namespace perfbench
