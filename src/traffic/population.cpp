#include "traffic/population.hpp"

#include <algorithm>

#include "traffic/rate_curve.hpp" // unitFromHash
#include "util/logging.hpp"
#include "util/random.hpp"

namespace press::traffic {

namespace {

// Drift is quantized into this many precomputed samplers; a finer
// ladder buys nothing once the step is smaller than the statistical
// noise of a run.
constexpr std::size_t LadderSteps = 9;

// Stream separators so the file draw, the hot-set coin, and the
// arrival clock never share a counter.
constexpr std::uint64_t FileStream = 0xA24BAED4963EE407ull;
constexpr std::uint64_t HotStream = 0x9FB21C651E98DF25ull;

} // namespace

PopulationModel::PopulationModel(const PopulationSpec &spec,
                                 std::size_t files, std::uint64_t seed)
    : _spec(spec), _files(files), _seed(seed)
{
    PRESS_ASSERT(spec.active(), "population model built without Zipf mode");
    PRESS_ASSERT(files >= 1, "population model needs at least one file");
    PRESS_ASSERT(spec.hotCount >= 0 && spec.hotFraction >= 0 &&
                     spec.hotFraction <= 1.0 && spec.hotOffset >= 0 &&
                     spec.hotOffset < 1.0,
                 "hot-set knobs out of range");
    std::size_t steps =
        (_spec.driftOver > 0 && _spec.alphaStart != _spec.alphaEnd)
            ? LadderSteps
            : 1;
    _ladder.reserve(steps);
    for (std::size_t i = 0; i < steps; ++i) {
        double frac = steps == 1
                          ? 0.0
                          : static_cast<double>(i) /
                                static_cast<double>(steps - 1);
        _ladder.emplace_back(files, _spec.alphaStart +
                                        (_spec.alphaEnd - _spec.alphaStart) *
                                            frac);
    }
}

double
PopulationModel::alphaAt(sim::Tick t) const
{
    if (_spec.driftOver <= 0 || t <= 0)
        return _spec.alphaStart;
    double frac = std::min(1.0, static_cast<double>(t) /
                                    static_cast<double>(_spec.driftOver));
    return _spec.alphaStart + (_spec.alphaEnd - _spec.alphaStart) * frac;
}

std::size_t
PopulationModel::sampleRank(sim::Tick t, std::uint64_t k) const
{
    std::uint64_t draw = util::mix64(_seed ^ FileStream ^ (k + 1));
    if (_spec.hotCount > 0 && t >= _spec.hotStart && t < _spec.hotEnd) {
        double coin = unitFromHash(util::mix64(_seed ^ HotStream ^ (k + 1)));
        if (coin < _spec.hotFraction) {
            std::size_t window = std::min<std::size_t>(
                static_cast<std::size_t>(_spec.hotCount), _files);
            std::size_t offset = static_cast<std::size_t>(
                _spec.hotOffset * static_cast<double>(_files));
            if (_spec.hotRotate > 0)
                offset += static_cast<std::size_t>(
                              (t - _spec.hotStart) / _spec.hotRotate) *
                          window % _files;
            return (offset + draw % window) % _files;
        }
    }
    std::size_t step = 0;
    if (_ladder.size() > 1) {
        double frac = std::min(
            1.0, std::max(0.0, static_cast<double>(t) /
                                   static_cast<double>(_spec.driftOver)));
        step = static_cast<std::size_t>(
            frac * static_cast<double>(_ladder.size() - 1) + 0.5);
    }
    return _ladder[step].sampleAt(unitFromHash(draw));
}

} // namespace press::traffic
