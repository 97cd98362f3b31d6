/**
 * @file
 * Using the VIA library directly: connect two Virtual Interfaces,
 * measure ping-pong latency for regular sends and remote memory
 * writes, and streamed bandwidth — the microbenchmarks every user-level
 * communication paper starts with (cf. Section 3.2's 9 us / 102 MB/s
 * cLAN numbers).
 *
 * Usage: via_pingpong [iterations]
 *
 * Exits 1 when a number leaves the paper's anchor band: the 4 B
 * one-way send/recv latency must lie within 6-12 us and the 32 KB RMW
 * stream within 95-112 MB/s. Runs of under ~100 iterations are too
 * short for the stream to reach its steady rate.
 */

#include <cstdlib>
#include <iostream>

#include "net/payload.hpp"
#include "util/cli.hpp"
#include "util/table.hpp"
#include "via/via_nic.hpp"

using namespace press;

namespace {

/** Round-trip a regular send @p iters times; returns one-way us. */
double
pingPongRegular(std::uint64_t bytes, int iters)
{
    sim::Simulator sim;
    net::Fabric fabric(sim, net::FabricConfig::clan(), 2);
    via::ViaNic na(sim, fabric, 0), nb(sim, fabric, 1);
    auto *va = na.createVi(via::Reliability::ReliableDelivery);
    auto *vb = nb.createVi(via::Reliability::ReliableDelivery);
    via::ViaNic::connect(*va, *vb);
    auto ma = na.registerMemory(1 << 20);
    auto mb = nb.registerMemory(1 << 20);

    // Ping-pong: alternate send directions as messages land, driving
    // the simulator one event at a time.
    int remaining = iters;
    va->postSend(via::makeSend(ma.base, bytes));
    vb->postRecv(via::makeRecv(mb.base, 1 << 20));
    bool a_turn = false;
    while (remaining > 0) {
        if (!sim.step())
            break;
        if (!a_turn && vb->pollRecv()) {
            --remaining;
            if (remaining == 0)
                break;
            va->postRecv(via::makeRecv(ma.base, 1 << 20));
            vb->postSend(via::makeSend(mb.base, bytes));
            a_turn = true;
        } else if (a_turn && va->pollRecv()) {
            --remaining;
            if (remaining == 0)
                break;
            vb->postRecv(via::makeRecv(mb.base, 1 << 20));
            va->postSend(via::makeSend(ma.base, bytes));
            a_turn = false;
        }
    }
    return static_cast<double>(sim.now()) / 1000.0 / iters;
}

/** Stream @p count RMW writes of @p bytes; returns MB/s. */
double
rmwStream(std::uint64_t bytes, int count)
{
    sim::Simulator sim;
    net::Fabric fabric(sim, net::FabricConfig::clan(), 2);
    via::ViaNic na(sim, fabric, 0), nb(sim, fabric, 1);
    auto *va = na.createVi(via::Reliability::ReliableDelivery);
    auto *vb = nb.createVi(via::Reliability::ReliableDelivery);
    via::ViaNic::connect(*va, *vb);
    auto ma = na.registerMemory(1 << 20);
    std::uint64_t landed = 0;
    auto mb = nb.registerMemory(
        1 << 20, [&](std::uint64_t, std::uint64_t len,
                     const via::Payload &, std::uint32_t) {
            landed += len;
        });
    for (int i = 0; i < count; ++i)
        va->postSend(via::makeRdmaWrite(ma.base, bytes, mb.base));
    sim.run();
    return static_cast<double>(landed) / sim::nsToSeconds(sim.now()) /
           1e6;
}

} // namespace

int
main(int argc, char **argv)
{
    int iters = argc > 1 ? static_cast<int>(util::cliParseInt(
                               argv[1], "iters", 1, 1 << 30))
                         : 1000;

    std::cout << "VIA microbenchmarks over the simulated cLAN "
                 "(paper: 9 us 4-byte latency, 102 MB/s at 32 KB)\n\n";

    int misses = 0;
    auto anchor = [&](const char *what, double v, double lo, double hi) {
        if (v >= lo && v <= hi)
            return;
        std::cerr << what << " " << v << " is outside the paper's band ["
                  << lo << ", " << hi << "]\n";
        ++misses;
    };

    util::TextTable t;
    t.header({"size", "send/recv one-way us", "RMW stream MB/s"});
    for (std::uint64_t bytes : {4ull, 64ull, 1024ull, 8192ull, 32000ull}) {
        double one_way = pingPongRegular(bytes, iters);
        double stream = rmwStream(bytes, iters);
        t.row({std::to_string(bytes) + " B", util::fmtF(one_way, 2),
               util::fmtF(stream, 1)});
        if (bytes == 4)
            anchor("4 B one-way us", one_way, 6, 12);
        if (bytes == 32000)
            anchor("32 KB RMW stream MB/s", stream, 95, 112);
    }
    std::cout << t.render();
    return misses ? 1 : 0;
}
