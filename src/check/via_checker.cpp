#include "via_checker.hpp"

#include <cstdint>
#include <sstream>

#include "util/logging.hpp"
#include "via/completion_queue.hpp"
#include "via/descriptor.hpp"
#include "via/via_nic.hpp"
#include "via/virtual_interface.hpp"

namespace press::check {

using via::Descriptor;
using via::MemoryRegistry;
using via::Opcode;
using via::Status;
using via::VirtualInterface;

const char *
violationKindName(Violation::Kind kind)
{
    switch (kind) {
      case Violation::Kind::UnregisteredDma:
        return "unregistered-dma";
      case Violation::Kind::UseAfterDeregister:
        return "use-after-deregister";
      case Violation::Kind::ReuseBeforeComplete:
        return "reuse-before-complete";
      case Violation::Kind::CqOverflow:
        return "cq-overflow";
      case Violation::Kind::NegativeCredits:
        return "negative-credits";
      case Violation::Kind::CreditOverRelease:
        return "credit-over-release";
      case Violation::Kind::RmwOutOfBounds:
        return "rmw-out-of-bounds";
      case Violation::Kind::PostToDeadVi:
        return "post-to-dead-vi";
    }
    return "unknown";
}

std::string
Violation::format() const
{
    std::ostringstream os;
    os << "[tick " << tick << "] " << violationKindName(kind) << " node ";
    if (node >= 0)
        os << node;
    else
        os << "?";
    os << " op " << op;
    if (handle != 0)
        os << " handle " << handle;
    if (hi > lo)
        os << " range [0x" << std::hex << lo << ", 0x" << hi << ")"
           << std::dec;
    if (!detail.empty())
        os << ": " << detail;
    return os.str();
}

ViaChecker::ViaChecker(sim::Simulator &sim, CheckMode mode)
    : _sim(sim), _mode(mode)
{
}

void
ViaChecker::attachNic(via::ViaNic &nic)
{
    nic.setObserver(this);
    NodeState &state = _nodes[&nic.memory()];
    state.node = nic.node();
}

void
ViaChecker::attachCq(via::CompletionQueue &cq, int node)
{
    cq.setObserver(this);
    _cqNodes[&cq] = node;
}

std::function<void(int, int)>
ViaChecker::creditHook(int node, std::string channel)
{
    return [this, node, channel = std::move(channel)](int credits,
                                                      int window) {
        ++_checks;
        if (credits < 0) {
            Violation v;
            v.kind = Violation::Kind::NegativeCredits;
            v.op = "credit:" + channel;
            v.node = node;
            v.detail = "credits " + std::to_string(credits) +
                       " below zero (window " + std::to_string(window) +
                       ")";
            record(std::move(v));
        } else if (credits > window) {
            Violation v;
            v.kind = Violation::Kind::CreditOverRelease;
            v.op = "credit:" + channel;
            v.node = node;
            v.detail = "credits " + std::to_string(credits) +
                       " exceed window " + std::to_string(window);
            record(std::move(v));
        }
    };
}

std::size_t
ViaChecker::count(Violation::Kind kind) const
{
    std::size_t n = 0;
    for (const Violation &v : _violations)
        if (v.kind == kind)
            ++n;
    return n;
}

std::string
ViaChecker::report() const
{
    std::ostringstream os;
    os << "ViaChecker: " << _total << " violation(s) in " << _checks
       << " checks\n";
    for (const Violation &v : _violations)
        os << "  " << v.format() << "\n";
    if (_total > _violations.size())
        os << "  (" << _total - _violations.size()
           << " further violations not retained)\n";
    return os.str();
}

void
ViaChecker::clear()
{
    _violations.clear();
    _inflight.clear();
    _total = 0;
    _checks = 0;
}

// ---------------------------------------------------------------------
// Observer callbacks
// ---------------------------------------------------------------------

void
ViaChecker::onRegister(const MemoryRegistry &registry,
                       const via::MemoryRegion &region)
{
    stateFor(registry).live[region.handle] = region;
}

void
ViaChecker::onDeregister(const MemoryRegistry &registry,
                         via::MemoryHandle handle, bool known)
{
    ++_checks;
    NodeState &state = stateFor(registry);
    auto it = state.live.find(handle);
    if (known && it != state.live.end()) {
        state.dead[it->second.base] = it->second;
        state.live.erase(it);
        return;
    }
    Violation v;
    v.kind = Violation::Kind::UseAfterDeregister;
    v.op = "deregister";
    v.node = state.node;
    v.handle = handle;
    v.detail = "deregister of unknown or already-deregistered handle";
    record(std::move(v));
}

void
ViaChecker::onPostSend(const VirtualInterface &vi, const Descriptor &desc)
{
    std::string op = desc.op == Opcode::RdmaWrite ? "postSend(RdmaWrite)"
                                                  : "postSend(Send)";
    checkLiveVi(vi, op);
    checkLifecycle(vi, desc, op);
    checkLocalBuffer(vi, desc.localAddr, desc.length, op);

    // Remote-write target must lie fully inside one region the *peer*
    // registered. Checked at post time against the live peer registry;
    // delivery re-checks, catching deregistration races in between.
    if (desc.op == Opcode::RdmaWrite && desc.length > 0) {
        const VirtualInterface *peer = vi.peer();
        if (peer && !vi.broken()) {
            ++_checks;
            const MemoryRegistry &remote = peer->nic().memory();
            if (!remote.find(desc.remoteAddr, desc.length))
                flagBadRange(remote, desc.remoteAddr, desc.length,
                             op + " remote target", /*rmw=*/true);
        }
    }
}

void
ViaChecker::onPostRecv(const VirtualInterface &vi, const Descriptor &desc)
{
    checkLiveVi(vi, "postRecv");
    checkLifecycle(vi, desc, "postRecv");
    checkLocalBuffer(vi, desc.localAddr, desc.length, "postRecv");
}

void
ViaChecker::onPostRecvs(const VirtualInterface &vi, via::Address local,
                        std::uint64_t capacity, std::size_t)
{
    checkLiveVi(vi, "postRecvs");
    checkLocalBuffer(vi, local, capacity, "postRecvs");
}

void
ViaChecker::onCompletion(const VirtualInterface &, const Descriptor &desc,
                         bool)
{
    _inflight.erase(&desc);
}

void
ViaChecker::onRdmaDeliver(const MemoryRegistry &registry, via::Address addr,
                          std::uint64_t length, bool in_region)
{
    ++_checks;
    if (!in_region)
        flagBadRange(registry, addr, length, "rdmaDeliver", /*rmw=*/true);
}

void
ViaChecker::onCqPush(const via::CompletionQueue &cq)
{
    ++_checks;
    if (cq.capacity() > 0 && cq.pending() > cq.capacity()) {
        Violation v;
        v.kind = Violation::Kind::CqOverflow;
        v.op = "cqPush";
        auto it = _cqNodes.find(&cq);
        v.node = it != _cqNodes.end() ? it->second : -1;
        v.detail = std::to_string(cq.pending()) +
                   " completions queued on a CQ of capacity " +
                   std::to_string(cq.capacity());
        record(std::move(v));
    }
}

// ---------------------------------------------------------------------
// Internals
// ---------------------------------------------------------------------

ViaChecker::NodeState &
ViaChecker::stateFor(const MemoryRegistry &registry)
{
    return _nodes[&registry]; // unattached registries get node = -1
}

void
ViaChecker::checkLiveVi(const VirtualInterface &vi, const std::string &op)
{
    ++_checks;
    if (!vi.broken())
        return;
    Violation v;
    v.kind = Violation::Kind::PostToDeadVi;
    v.op = op;
    v.node = vi.node();
    v.detail = "descriptor posted on a torn-down connection";
    record(std::move(v));
}

void
ViaChecker::checkLifecycle(const VirtualInterface &vi,
                           const Descriptor &desc, const std::string &op)
{
    ++_checks;
    bool inflight = _inflight.count(&desc) != 0;
    if (desc.status == Status::Pending && !inflight) {
        _inflight.emplace(&desc, &vi);
        return;
    }
    Violation v;
    v.kind = Violation::Kind::ReuseBeforeComplete;
    v.op = op;
    v.node = vi.node();
    v.lo = desc.localAddr;
    v.hi = desc.localAddr + desc.length;
    v.detail = inflight
                   ? "descriptor reposted while still in flight"
                   : "descriptor reposted without resetting its status";
    record(std::move(v));
}

void
ViaChecker::checkLocalBuffer(const VirtualInterface &vi, via::Address addr,
                             std::uint64_t length, const std::string &op)
{
    if (length == 0)
        return; // zero-length doorbell: no DMA, no registration needed
    ++_checks;
    const MemoryRegistry &memory = vi.nic().memory();
    if (!memory.find(addr, length))
        flagBadRange(memory, addr, length, op + " local buffer",
                     /*rmw=*/false);
}

void
ViaChecker::flagBadRange(const MemoryRegistry &registry, via::Address addr,
                         std::uint64_t length, const std::string &op,
                         bool rmw)
{
    NodeState &state = stateFor(registry);
    Violation v;
    v.op = op;
    v.node = state.node;
    v.lo = addr;
    // Saturate: a huge length must not wrap the end below the start.
    v.hi = length > UINT64_MAX - addr ? UINT64_MAX : addr + length;

    // Range start inside a live region: the access runs off its end.
    // Counted from addr, which lies inside the region, so it cannot wrap.
    if (auto live = registry.find(addr, 1)) {
        v.kind = rmw ? Violation::Kind::RmwOutOfBounds
                     : Violation::Kind::UnregisteredDma;
        v.handle = live->handle;
        v.detail = "range runs " +
                   std::to_string(length -
                                  (live->base + live->size - addr)) +
                   " byte(s) past the end of the region";
        record(std::move(v));
        return;
    }

    // Start inside a deregistered region: definite use-after-deregister
    // (bases are never reused).
    auto it = state.dead.upper_bound(addr);
    if (it != state.dead.begin()) {
        --it;
        const via::MemoryRegion &dead = it->second;
        if (addr >= dead.base && addr < dead.base + dead.size) {
            v.kind = Violation::Kind::UseAfterDeregister;
            v.handle = dead.handle;
            v.detail = "region was deregistered";
            record(std::move(v));
            return;
        }
    }

    v.kind = Violation::Kind::UnregisteredDma;
    v.detail = "address was never registered";
    record(std::move(v));
}

void
ViaChecker::record(Violation violation)
{
    violation.tick = _sim.now();
    ++_total;
    if (_mode == CheckMode::Abort)
        util::panic("ViaChecker: ", violation.format());
    if (_violations.size() < MaxRetained)
        _violations.push_back(std::move(violation));
}

} // namespace press::check
