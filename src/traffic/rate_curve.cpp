#include "traffic/rate_curve.hpp"

#include <algorithm>
#include <cmath>
#include <sstream>

#include "util/logging.hpp"
#include "util/random.hpp"
#include "util/units.hpp"

namespace press::traffic {

namespace {

constexpr double TwoPi = 6.283185307179586476925286766559;

double
seconds(sim::Tick t)
{
    return sim::nsToSeconds(t);
}

/** Area under a linear rate move r0 -> r1 over the first x of dur. */
double
rampArea(double r0, double r1, sim::Tick x, sim::Tick dur)
{
    double xs = seconds(x);
    return r0 * xs + 0.5 * (r1 - r0) * xs * xs / seconds(dur);
}

// ---- grammar scanner ------------------------------------------------

struct Scanner {
    const std::string &s;
    std::size_t pos = 0;

    bool done() const { return pos >= s.size(); }
    char peek() const { return done() ? '\0' : s[pos]; }

    bool lit(const char *word)
    {
        std::size_t n = std::char_traits<char>::length(word);
        if (s.compare(pos, n, word) != 0)
            return false;
        pos += n;
        return true;
    }

    bool number(double &out)
    {
        std::size_t start = pos;
        std::size_t digits = 0;
        while (!done() && std::isdigit(static_cast<unsigned char>(s[pos]))) {
            ++pos;
            ++digits;
        }
        // At most one decimal point — and ".." is the ramp separator,
        // not a decimal point, so stop before a doubled dot.
        if (!done() && s[pos] == '.' &&
            !(pos + 1 < s.size() && s[pos + 1] == '.')) {
            ++pos;
            while (!done() &&
                   std::isdigit(static_cast<unsigned char>(s[pos]))) {
                ++pos;
                ++digits;
            }
        }
        if (digits == 0) {
            pos = start;
            return false;
        }
        out = std::stod(s.substr(start, pos - start));
        return true;
    }

    bool duration(sim::Tick &out)
    {
        std::size_t start = pos;
        while (!done() && std::isdigit(static_cast<unsigned char>(s[pos])))
            ++pos;
        if (pos == start)
            return false;
        sim::Tick value = std::stoll(s.substr(start, pos - start));
        if (lit("ns"))
            out = value;
        else if (lit("us"))
            out = value * util::US;
        else if (lit("ms"))
            out = value * util::MS;
        else if (lit("s"))
            out = value * util::SEC;
        else
            return false;
        return true;
    }
};

std::string
renderDuration(sim::Tick t)
{
    std::ostringstream os;
    if (t % util::SEC == 0) // 0 canonically renders as "0s"
        os << t / util::SEC << "s";
    else if (t != 0 && t % util::MS == 0)
        os << t / util::MS << "ms";
    else if (t != 0 && t % util::US == 0)
        os << t / util::US << "us";
    else
        os << t << "ns";
    return os.str();
}

std::string
renderRate(double r)
{
    std::ostringstream os;
    os << r; // default precision round-trips every rate we emit
    return os.str();
}

} // namespace

// ---- RateCurve ------------------------------------------------------

RateCurve
RateCurve::constant(double rate)
{
    RateCurve c;
    c.addConst(0, rate);
    return c;
}

RateCurve &
RateCurve::add(RateSegment seg)
{
    if (_segments.empty()) {
        PRESS_ASSERT(seg.start == 0,
                     "rate curve must start at t = 0");
        _massAtStart.push_back(0.0);
    } else {
        const RateSegment &prev = _segments.back();
        PRESS_ASSERT(seg.start > prev.start,
                     "rate curve segments must have increasing starts");
        _massAtStart.push_back(_massAtStart.back() +
                               segmentIntegral(prev, seg.start - prev.start));
    }
    _segments.push_back(seg);
    return *this;
}

RateCurve &
RateCurve::addConst(sim::Tick at, double rate)
{
    PRESS_ASSERT(rate > 0, "offered rate must be positive");
    RateSegment seg;
    seg.shape = RateSegment::Shape::Const;
    seg.start = at;
    seg.base = rate;
    return add(seg);
}

RateCurve &
RateCurve::addRamp(sim::Tick at, double from, double to, sim::Tick dur)
{
    PRESS_ASSERT(from > 0 && to > 0 && dur > 0,
                 "ramp rates and duration must be positive");
    RateSegment seg;
    seg.shape = RateSegment::Shape::Ramp;
    seg.start = at;
    seg.base = from;
    seg.peak = to;
    seg.d1 = dur;
    return add(seg);
}

RateCurve &
RateCurve::addDiurnal(sim::Tick at, double base, double amplitude,
                      sim::Tick period)
{
    PRESS_ASSERT(base > 0 && amplitude >= 0 && amplitude < base &&
                     period > 0,
                 "diurnal amplitude must stay below the base rate");
    RateSegment seg;
    seg.shape = RateSegment::Shape::Diurnal;
    seg.start = at;
    seg.base = base;
    seg.peak = amplitude;
    seg.d1 = period;
    return add(seg);
}

RateCurve &
RateCurve::addFlash(sim::Tick at, double base, double peak,
                    sim::Tick attack, sim::Tick sustain, sim::Tick decay)
{
    PRESS_ASSERT(base > 0 && peak >= base && attack > 0 && sustain >= 0 &&
                     decay > 0,
                 "flash spike must rise from a positive base");
    RateSegment seg;
    seg.shape = RateSegment::Shape::Flash;
    seg.start = at;
    seg.base = base;
    seg.peak = peak;
    seg.d1 = attack;
    seg.d2 = sustain;
    seg.d3 = decay;
    return add(seg);
}

double
RateCurve::segmentRate(const RateSegment &seg, sim::Tick x) const
{
    switch (seg.shape) {
    case RateSegment::Shape::Const:
        return seg.base;
    case RateSegment::Shape::Ramp:
        if (x >= seg.d1)
            return seg.peak;
        return seg.base + (seg.peak - seg.base) * seconds(x) / seconds(seg.d1);
    case RateSegment::Shape::Diurnal:
        return seg.base +
               seg.peak * std::sin(TwoPi * seconds(x) / seconds(seg.d1));
    case RateSegment::Shape::Flash: {
        if (x < seg.d1)
            return seg.base +
                   (seg.peak - seg.base) * seconds(x) / seconds(seg.d1);
        if (x < seg.d1 + seg.d2)
            return seg.peak;
        if (x < seg.d1 + seg.d2 + seg.d3)
            return seg.peak - (seg.peak - seg.base) *
                                  seconds(x - seg.d1 - seg.d2) /
                                  seconds(seg.d3);
        return seg.base;
    }
    }
    return seg.base;
}

double
RateCurve::segmentIntegral(const RateSegment &seg, sim::Tick x) const
{
    if (x <= 0)
        return 0.0;
    switch (seg.shape) {
    case RateSegment::Shape::Const:
        return seg.base * seconds(x);
    case RateSegment::Shape::Ramp:
        if (x <= seg.d1)
            return rampArea(seg.base, seg.peak, x, seg.d1);
        return rampArea(seg.base, seg.peak, seg.d1, seg.d1) +
               seg.peak * seconds(x - seg.d1);
    case RateSegment::Shape::Diurnal: {
        double period = seconds(seg.d1);
        return seg.base * seconds(x) +
               seg.peak * period / TwoPi *
                   (1.0 - std::cos(TwoPi * seconds(x) / period));
    }
    case RateSegment::Shape::Flash: {
        double area = 0.0;
        if (x <= seg.d1)
            return rampArea(seg.base, seg.peak, x, seg.d1);
        area = rampArea(seg.base, seg.peak, seg.d1, seg.d1);
        if (x <= seg.d1 + seg.d2)
            return area + seg.peak * seconds(x - seg.d1);
        area += seg.peak * seconds(seg.d2);
        if (x <= seg.d1 + seg.d2 + seg.d3)
            return area + rampArea(seg.peak, seg.base,
                                   x - seg.d1 - seg.d2, seg.d3);
        area += rampArea(seg.peak, seg.base, seg.d3, seg.d3);
        return area + seg.base * seconds(x - seg.d1 - seg.d2 - seg.d3);
    }
    }
    return 0.0;
}

double
RateCurve::rateAt(sim::Tick t) const
{
    PRESS_ASSERT(!_segments.empty(), "rateAt on an empty curve");
    std::size_t i = _segments.size();
    while (i > 1 && _segments[i - 1].start > t)
        --i;
    const RateSegment &seg = _segments[i - 1];
    return segmentRate(seg, t - seg.start);
}

double
RateCurve::integral(sim::Tick t) const
{
    PRESS_ASSERT(!_segments.empty(), "integral on an empty curve");
    if (t <= 0)
        return 0.0;
    std::size_t i = _segments.size();
    while (i > 1 && _segments[i - 1].start > t)
        --i;
    const RateSegment &seg = _segments[i - 1];
    return _massAtStart[i - 1] + segmentIntegral(seg, t - seg.start);
}

sim::Tick
RateCurve::invert(double mass) const
{
    PRESS_ASSERT(!_segments.empty(), "invert on an empty curve");
    if (mass <= 0)
        return 0;
    // Locate the active segment, then bisect on whole ticks. Integer
    // bisection keeps the result bit-stable: two runs computing the
    // same doubles take the same branch at every probe.
    std::size_t i = _segments.size();
    while (i > 1 && _massAtStart[i - 1] >= mass)
        --i;
    const RateSegment &seg = _segments[i - 1];
    double local = mass - _massAtStart[i - 1];
    sim::Tick lo = 0; // integral(lo) < local
    sim::Tick hi;
    if (i < _segments.size()) {
        hi = _segments[i].start - seg.start;
    } else {
        hi = util::MS;
        while (segmentIntegral(seg, hi) < local)
            hi *= 2;
    }
    while (lo + 1 < hi) {
        sim::Tick mid = lo + (hi - lo) / 2;
        if (segmentIntegral(seg, mid) < local)
            lo = mid;
        else
            hi = mid;
    }
    return seg.start + hi;
}

double
RateCurve::meanRate(sim::Tick a, sim::Tick b) const
{
    PRESS_ASSERT(b > a, "meanRate needs a non-empty window");
    return (integral(b) - integral(a)) / seconds(b - a);
}

std::string
RateCurve::spec() const
{
    std::ostringstream os;
    for (std::size_t i = 0; i < _segments.size(); ++i) {
        const RateSegment &seg = _segments[i];
        if (i)
            os << ";";
        switch (seg.shape) {
        case RateSegment::Shape::Const:
            os << "const:" << renderRate(seg.base);
            break;
        case RateSegment::Shape::Ramp:
            os << "ramp:" << renderRate(seg.base) << ".."
               << renderRate(seg.peak) << "/" << renderDuration(seg.d1);
            break;
        case RateSegment::Shape::Diurnal:
            os << "diurnal:" << renderRate(seg.base) << "~"
               << renderRate(seg.peak) << "/" << renderDuration(seg.d1);
            break;
        case RateSegment::Shape::Flash:
            os << "flash:" << renderRate(seg.base) << "^"
               << renderRate(seg.peak) << "/" << renderDuration(seg.d1)
               << "+" << renderDuration(seg.d2) << "+"
               << renderDuration(seg.d3);
            break;
        }
        os << "@" << renderDuration(seg.start);
    }
    return os.str();
}

bool
RateCurve::tryParse(const std::string &spec, RateCurve &out,
                    std::string &error)
{
    RateCurve curve;
    Scanner sc{spec};
    auto fail = [&](const std::string &what) {
        std::ostringstream os;
        os << what << " at offset " << sc.pos << " in '" << spec << "'";
        error = os.str();
        return false;
    };
    if (spec.empty())
        return fail("empty curve spec");
    for (;;) {
        RateSegment seg;
        double r0 = 0, r1 = 0;
        sim::Tick d1 = 0, d2 = 0, d3 = 0;
        if (sc.lit("const:")) {
            seg.shape = RateSegment::Shape::Const;
            if (!sc.number(r0) || r0 <= 0)
                return fail("expected positive rate after 'const:'");
        } else if (sc.lit("ramp:")) {
            seg.shape = RateSegment::Shape::Ramp;
            if (!sc.number(r0) || !sc.lit("..") || !sc.number(r1) ||
                !sc.lit("/") || !sc.duration(d1))
                return fail("expected 'ramp:R0..R1/DUR'");
            if (r0 <= 0 || r1 <= 0 || d1 <= 0)
                return fail("ramp rates and duration must be positive");
        } else if (sc.lit("diurnal:")) {
            seg.shape = RateSegment::Shape::Diurnal;
            if (!sc.number(r0) || !sc.lit("~") || !sc.number(r1) ||
                !sc.lit("/") || !sc.duration(d1))
                return fail("expected 'diurnal:BASE~AMP/PERIOD'");
            if (r0 <= 0 || r1 < 0 || r1 >= r0 || d1 <= 0)
                return fail("diurnal amplitude must stay below the base");
        } else if (sc.lit("flash:")) {
            seg.shape = RateSegment::Shape::Flash;
            if (!sc.number(r0) || !sc.lit("^") || !sc.number(r1) ||
                !sc.lit("/") || !sc.duration(d1) || !sc.lit("+") ||
                !sc.duration(d2) || !sc.lit("+") || !sc.duration(d3))
                return fail("expected 'flash:BASE^PEAK/ATTACK+SUSTAIN+DECAY'");
            if (r0 <= 0 || r1 < r0 || d1 <= 0 || d2 < 0 || d3 <= 0)
                return fail("flash spike must rise from a positive base");
        } else {
            return fail("expected shape verb "
                        "(const|ramp|diurnal|flash)");
        }
        seg.base = r0;
        seg.peak = r1;
        seg.d1 = d1;
        seg.d2 = d2;
        seg.d3 = d3;
        if (!sc.lit("@") || !sc.duration(seg.start))
            return fail("expected '@TIME' after shape");
        if (curve._segments.empty()) {
            if (seg.start != 0)
                return fail("first segment must start at 0");
        } else if (seg.start <= curve._segments.back().start) {
            return fail("segment starts must be strictly increasing");
        }
        curve.add(seg);
        if (sc.done())
            break;
        if (!sc.lit(";"))
            return fail("expected ';' between segments");
    }
    out = std::move(curve);
    return true;
}

// ---- ArrivalEngine --------------------------------------------------

ArrivalEngine::ArrivalEngine(RateCurve curve, std::uint64_t seed,
                             double rateScale)
    : _curve(std::move(curve)), _seed(seed), _scale(rateScale)
{
    PRESS_ASSERT(!_curve.empty(), "arrival engine needs a rate curve");
    PRESS_ASSERT(_scale > 0, "rate scale must be positive");
}

sim::Tick
ArrivalEngine::next()
{
    ++_count;
    double u = unitFromHash(util::mix64(_seed ^ (_count * 0x2545F4914F6CDD1Dull)));
    _mass += -std::log(1.0 - u);
    return _curve.invert(_mass / _scale);
}

} // namespace press::traffic
