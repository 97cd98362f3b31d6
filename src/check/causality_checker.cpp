#include "causality_checker.hpp"

#include <sstream>

#include "util/logging.hpp"

namespace press::check {

const char *
causalityKindName(CausalityViolation::Kind kind)
{
    switch (kind) {
      case CausalityViolation::Kind::BelowBound:
        return "below-lookahead";
      case CausalityViolation::Kind::FabricBelowFloor:
        return "fabric-below-floor";
    }
    return "unknown";
}

std::string
CausalityViolation::format() const
{
    std::ostringstream os;
    os << "[tick " << tick << "] " << causalityKindName(kind) << " "
       << from << " -> " << to << " delay " << delay << " ns < bound "
       << bound << " ns";
    if (!detail.empty())
        os << ": " << detail;
    return os.str();
}

CausalityChecker::CausalityChecker(sim::Simulator &sim, CheckMode mode)
    : _sim(sim), _mode(mode)
{
}

CausalityChecker::~CausalityChecker()
{
    detach();
}

void
CausalityChecker::attach()
{
    _sim.setScheduleObserver(this);
    _attached = true;
}

void
CausalityChecker::detach()
{
    if (_attached)
        _sim.setScheduleObserver(nullptr);
    _attached = false;
    for (net::Fabric *f : _fabrics)
        f->setObserver(nullptr);
    _fabrics.clear();
}

void
CausalityChecker::setBound(sim::Domain from, sim::Domain to,
                           sim::Tick bound)
{
    PRESS_ASSERT(from >= 0 && to >= 0 && from != to,
                 "bounds apply to ordered pairs of distinct domains");
    PRESS_ASSERT(bound >= 0, "negative lookahead bound");
    if (_bounds.size() <= static_cast<std::size_t>(from))
        _bounds.resize(static_cast<std::size_t>(from) + 1);
    std::vector<sim::Tick> &row = _bounds[static_cast<std::size_t>(from)];
    if (row.size() <= static_cast<std::size_t>(to))
        row.resize(static_cast<std::size_t>(to) + 1, -1);
    row[static_cast<std::size_t>(to)] = bound;
}

void
CausalityChecker::watchFabric(net::Fabric &fabric)
{
    fabric.setObserver(this);
    _fabrics.push_back(&fabric);
}

sim::Tick
CausalityChecker::bound(sim::Domain from, sim::Domain to) const
{
    if (from < 0 || to < 0 ||
        static_cast<std::size_t>(from) >= _bounds.size())
        return -1;
    const std::vector<sim::Tick> &row =
        _bounds[static_cast<std::size_t>(from)];
    return static_cast<std::size_t>(to) < row.size()
               ? row[static_cast<std::size_t>(to)]
               : -1;
}

void
CausalityChecker::onSchedule(sim::Tick now, sim::Tick when,
                             sim::Domain from, sim::Domain to)
{
    ++_edges;
    if (from == sim::NoDomain || to == sim::NoDomain) {
        // Setup-time scheduling (before any event has run) carries no
        // source domain; a parallel kernel would populate the shards
        // before starting the clock, so these edges are exempt.
        ++_untaggedEdges;
        return;
    }
    if (from == to)
        return;
    ++_crossEdges;
    ++_checks;
    const sim::Tick delay = when - now;
    const sim::Tick limit = bound(from, to);
    if (limit >= 0 && delay < limit) {
        CausalityViolation v;
        v.kind = CausalityViolation::Kind::BelowBound;
        v.from = from;
        v.to = to;
        v.tick = now;
        v.delay = delay;
        v.bound = limit;
        v.detail = "a parallel kernel could have advanced the target "
                   "past this event";
        record(std::move(v));
    }
}

void
CausalityChecker::onDeliver(const net::Fabric &fabric, net::NodeId src,
                            net::NodeId dst, std::uint64_t bytes,
                            sim::Tick send_tick, sim::Tick deliver_tick)
{
    ++_checks;
    const sim::Tick latency = deliver_tick - send_tick;
    const sim::Tick floor = fabric.unloadedLatency(bytes);
    if (latency < floor) {
        CausalityViolation v;
        v.kind = CausalityViolation::Kind::FabricBelowFloor;
        v.from = fabric.portDomain(src);
        v.to = fabric.portDomain(dst);
        v.tick = deliver_tick;
        v.delay = latency;
        v.bound = floor;
        v.detail = fabric.config().name + " port " + std::to_string(src) +
                   " -> " + std::to_string(dst) + ", " +
                   std::to_string(bytes) +
                   " bytes delivered under the unloaded latency";
        record(std::move(v));
    }
}

std::string
CausalityChecker::report() const
{
    std::ostringstream os;
    os << "CausalityChecker: " << _total << " violation"
       << (_total == 1 ? "" : "s") << " in " << _checks << " checks ("
       << _edges << " edges, " << _crossEdges << " cross-domain, "
       << _untaggedEdges << " untagged)\n";
    for (const CausalityViolation &v : _violations)
        os << "  " << v.format() << "\n";
    if (_total > _violations.size())
        os << "  ... and " << _total - _violations.size() << " more\n";
    return os.str();
}

void
CausalityChecker::record(CausalityViolation violation)
{
    ++_total;
    if (_mode == CheckMode::Abort)
        util::panic("CausalityChecker: ", violation.format());
    if (_violations.size() < MaxRetained)
        _violations.push_back(std::move(violation));
}

} // namespace press::check
