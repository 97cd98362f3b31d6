#include "traffic/session.hpp"

#include <cmath>

#include "traffic/rate_curve.hpp" // unitFromHash
#include "util/logging.hpp"
#include "util/random.hpp"

namespace press::traffic {

namespace {

constexpr std::uint64_t LengthStream = 0xD6E8FEB86659FD93ull;
constexpr std::uint64_t ThinkStream = 0xC2B2AE3D27D4EB4Full;

} // namespace

SessionModel::SessionModel(const SessionSpec &spec, std::uint64_t seed)
    : _spec(spec), _seed(seed), _logq(0)
{
    PRESS_ASSERT(spec.meanRequests >= 1.0,
                 "sessions need at least one request on average");
    PRESS_ASSERT(spec.maxRequests >= 1, "session length clamp must be >= 1");
    PRESS_ASSERT(spec.thinkMean >= 0, "think time cannot be negative");
    if (_spec.meanRequests > 1.0)
        _logq = std::log(1.0 - 1.0 / _spec.meanRequests);
}

std::uint32_t
SessionModel::length(std::uint64_t session) const
{
    if (_logq == 0)
        return 1;
    double u = unitFromHash(util::mix64(_seed ^ LengthStream ^ (session + 1)));
    double len = 1.0 + std::floor(std::log(1.0 - u) / _logq);
    if (len < 1.0)
        len = 1.0;
    if (len > static_cast<double>(_spec.maxRequests))
        return _spec.maxRequests;
    return static_cast<std::uint32_t>(len);
}

sim::Tick
SessionModel::thinkGap(std::uint64_t session, std::uint32_t index) const
{
    if (_spec.thinkMean == 0)
        return 0;
    double u = unitFromHash(util::mix64(_seed ^ ThinkStream ^
                                  ((session + 1) * 0x100000001B3ull + index)));
    double gap = -static_cast<double>(_spec.thinkMean) * std::log(1.0 - u);
    return static_cast<sim::Tick>(gap);
}

} // namespace press::traffic
