/**
 * @file
 * Offered-load curves and the deterministic open-loop arrival engine
 * (ROADMAP item 5).
 *
 * A RateCurve is a piecewise schedule of offered-load shapes — constant,
 * linear ramp, diurnal sinusoid, flash-crowd spike — over simulated
 * time. The curve is sampled by ArrivalEngine through a *counter-based*
 * splitmix64 inversion: arrival k draws its uniform from mix64(seed, k),
 * turns it into a unit-rate exponential increment, and inverts the
 * accumulated mass against the curve's integrated rate Λ(t). The whole
 * arrival schedule is therefore a pure function of (seed, curve, k) —
 * independent of every other RNG consumer in the run — which is what
 * makes open-loop runs byte-identical across reruns, sweep --jobs
 * values, worker-thread counts, and the tick-race hunter's equal-tick
 * permutations.
 *
 * Grammar (RateCurve::tryParse, mirroring the fault-plan verb grammar):
 *
 *     curve   := segment (';' segment)*
 *     segment := shape '@' time              -- absolute segment start
 *     shape   := "const"   ':' rate
 *              | "ramp"    ':' rate ".." rate '/' dur
 *              | "diurnal" ':' rate '~' rate '/' dur
 *              | "flash"   ':' rate '^' rate '/' dur '+' dur '+' dur
 *     rate    := decimal                     -- requests per second
 *     time    := integer ("ns"|"us"|"ms"|"s")
 *
 * e.g. "const:3000@0s;flash:3000^9000/150ms+600ms+300ms@2s".
 * The first segment must start at 0; each segment is active until the
 * next one starts (the last runs forever). Shapes inside a segment:
 * ramp moves base -> peak over dur and holds peak; diurnal oscillates
 * base ± amplitude with the given period; flash climbs base -> peak
 * over the attack, holds for the sustain, decays back over the decay
 * and then holds base. Rates must stay strictly positive so Λ(t) is
 * invertible.
 *
 * Parsing never raises exceptions (scripts/lint.sh allows them only
 * in src/fault/): tryParse reports malformed input through an error
 * string, and CLI boundaries exit via util::fatal.
 */

#ifndef PRESS_TRAFFIC_RATE_CURVE_HPP
#define PRESS_TRAFFIC_RATE_CURVE_HPP

#include <cstdint>
#include <string>
#include <vector>

#include "sim/time.hpp"

namespace press::traffic {

/** Map a util::mix64 word to a uniform in [0, 1) (53 mantissa bits). */
constexpr double
unitFromHash(std::uint64_t h)
{
    return static_cast<double>(h >> 11) * 0x1.0p-53;
}

/** One piece of the offered-load schedule. */
struct RateSegment {
    enum class Shape : std::uint8_t { Const, Ramp, Diurnal, Flash };

    Shape shape = Shape::Const;
    sim::Tick start = 0; ///< absolute activation tick
    double base = 0;     ///< req/s at segment entry (Const: the rate)
    double peak = 0;     ///< Ramp: end rate; Diurnal: amplitude;
                         ///< Flash: spike peak
    sim::Tick d1 = 0;    ///< Ramp: length; Diurnal: period; Flash: attack
    sim::Tick d2 = 0;    ///< Flash: sustain
    sim::Tick d3 = 0;    ///< Flash: decay
};

/** A piecewise offered-load schedule with an invertible integral. */
class RateCurve
{
  public:
    /** Empty curve; callers substitute a constant default. */
    RateCurve() = default;

    /** The single-knob schedule: @p rate req/s forever. */
    static RateCurve constant(double rate);

    /**
     * Parse the grammar above into @p out. Returns false and fills
     * @p error (leaving @p out untouched) on malformed input.
     */
    static bool tryParse(const std::string &spec, RateCurve &out,
                         std::string &error);

    /** Append one segment each; starts must be strictly increasing and
     *  the first must be 0. @{ */
    RateCurve &addConst(sim::Tick at, double rate);
    RateCurve &addRamp(sim::Tick at, double from, double to,
                       sim::Tick dur);
    RateCurve &addDiurnal(sim::Tick at, double base, double amplitude,
                          sim::Tick period);
    RateCurve &addFlash(sim::Tick at, double base, double peak,
                        sim::Tick attack, sim::Tick sustain,
                        sim::Tick decay);
    /** @} */

    bool empty() const { return _segments.empty(); }
    const std::vector<RateSegment> &segments() const { return _segments; }

    /** Instantaneous offered rate at @p t, req/s. */
    double rateAt(sim::Tick t) const;

    /** Integrated rate Λ(t) = ∫₀ᵗ rate ds, in expected arrivals. */
    double integral(sim::Tick t) const;

    /** Smallest t with Λ(t) >= @p mass (integer-tick bisection, so the
     *  answer is exact and platform-stable given identical doubles). */
    sim::Tick invert(double mass) const;

    /** Average offered rate over [a, b), req/s. */
    double meanRate(sim::Tick a, sim::Tick b) const;

    /** Render back to the tryParse grammar (labels, reports). */
    std::string spec() const;

  private:
    RateCurve &add(RateSegment seg);
    /** Λ contribution of @p seg alone over [seg.start, seg.start + x). */
    double segmentIntegral(const RateSegment &seg, sim::Tick x) const;
    double segmentRate(const RateSegment &seg, sim::Tick x) const;

    std::vector<RateSegment> _segments;  ///< sorted by start
    std::vector<double> _massAtStart;    ///< Λ(segment start), per segment
};

/**
 * The deterministic non-homogeneous Poisson arrival stream over a
 * RateCurve. next() returns the tick (relative to the curve's origin)
 * of each successive arrival; the sequence is a pure function of
 * (curve, seed, rateScale).
 */
class ArrivalEngine
{
  public:
    /**
     * @param curve      offered-load schedule (must be non-empty)
     * @param seed       stream seed (mixed per arrival counter)
     * @param rateScale  scales the whole curve; the session model uses
     *                   1/meanRequests so the *request* rate matches
     *                   the curve while arrivals are whole sessions
     */
    ArrivalEngine(RateCurve curve, std::uint64_t seed,
                  double rateScale = 1.0);

    /** Tick of the next arrival (monotone non-decreasing). */
    sim::Tick next();

    std::uint64_t issued() const { return _count; }
    const RateCurve &curve() const { return _curve; }

  private:
    RateCurve _curve;
    std::uint64_t _seed;
    double _scale;
    std::uint64_t _count = 0;
    double _mass = 0; ///< accumulated unit-rate exponential mass
};

} // namespace press::traffic

#endif // PRESS_TRAFFIC_RATE_CURVE_HPP
