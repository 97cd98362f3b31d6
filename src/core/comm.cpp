#include "comm.hpp"

#include "check/via_checker.hpp"
#include "core/config.hpp"
#include "core/tcp_comm.hpp"
#include "core/via_comm.hpp"
#include "net/fabric.hpp"
#include "osnode/node.hpp"
#include "util/logging.hpp"

namespace press::core {

namespace {

template <typename... Fs>
struct Overloaded : Fs... {
    using Fs::operator()...;
};

} // namespace

MsgKind
kindOf(const Body &body)
{
    return std::visit([](const auto &m) { return m.Kind; }, body);
}

std::uint64_t
wireBytes(const Body &body, const MessageSizes &s)
{
    auto header = [&](int origin) {
        return origin >= 0 ? s.disseminationHeader : 0;
    };
    auto digest = [&](const auto &rumors, std::uint64_t each) {
        PRESS_ASSERT(!rumors.empty(), "empty digest");
        for (const auto &r : rumors)
            PRESS_ASSERT(r.origin >= 0, "digest of a non-rumor message");
        return rumors.size() * (each + s.disseminationHeader);
    };
    return std::visit(
        Overloaded{
            [&](const LoadMsg &m) { return s.load + header(m.origin); },
            [&](const FlowMsg &) { return s.flowRegular; },
            [&](const ForwardMsg &) { return s.forward; },
            [&](const CachingMsg &m) { return s.caching + header(m.origin); },
            [&](const FileMsg &m) { return s.fileHeader + m.bytes; },
            [&](const LoadDigestMsg &m) { return digest(m.rumors, s.load); },
            [&](const CachingDigestMsg &m) {
                return digest(m.rumors, s.caching);
            },
            // A short control record plus the dissemination header,
            // like a caching rumor.
            [&](const MembershipMsg &) {
                return s.caching + s.disseminationHeader;
            },
        },
        body);
}

void
ClusterComm::send(int dst, Body body)
{
    std::uint64_t bytes = wireBytes(body, _sizes);
    post(dst,
         WireMsg{kindOf(body), _node, piggyLoad(), std::move(body)},
         bytes);
}

KindStats
CommStats::total() const
{
    KindStats t;
    for (const auto &k : byKind) {
        t.msgs += k.msgs;
        t.bytes += k.bytes;
    }
    return t;
}

void
CommStats::reset()
{
    for (auto &k : byKind)
        k = KindStats{};
}

CommMesh
buildCommMesh(sim::Simulator &sim, const PressConfig &config,
              const std::vector<std::unique_ptr<osnode::Node>> &nodes)
{
    int n = config.nodes;
    PRESS_ASSERT(static_cast<int>(nodes.size()) == n,
                 "one node per endpoint");
    bool via = config.protocol == Protocol::ViaClan;
    bool fe = config.protocol == Protocol::TcpFastEthernet;
    CommMesh mesh;
    mesh.fabric = std::make_unique<net::Fabric>(
        sim,
        fe ? net::FabricConfig::fastEthernet() : net::FabricConfig::clan(),
        n);
    if (via && config.viaCheck != ViaCheck::Off)
        mesh.checker = std::make_unique<check::ViaChecker>(
            sim, config.viaCheck == ViaCheck::Record
                     ? check::CheckMode::Record
                     : check::CheckMode::Abort);
    tcpnet::TcpCosts costs =
        fe ? tcpnet::TcpCosts::defaults() : tcpnet::TcpCosts::clan();
    for (int i = 0; i < n; ++i) {
        sim.setCurrentDomain(i);
        if (via)
            mesh.comms.push_back(std::make_unique<ViaComm>(
                sim, i, config, nodes[i]->cpu(), *mesh.fabric,
                mesh.checker.get()));
        else
            mesh.comms.push_back(std::make_unique<TcpComm>(
                sim, i, n, nodes[i]->cpu(), *mesh.fabric,
                config.calibration, costs));
    }
    sim.setCurrentDomain(sim::NoDomain);
    if (via)
        ViaComm::linkMesh(mesh.comms);
    else
        TcpComm::linkMesh(mesh.comms);
    return mesh;
}

} // namespace press::core
