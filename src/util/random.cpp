#include "random.hpp"

#include <cmath>

#include "logging.hpp"

namespace press::util {

namespace {

std::uint64_t
rotl(std::uint64_t x, int k)
{
    return (x << k) | (x >> (64 - k));
}

} // namespace

Rng::Rng(std::uint64_t seed)
{
    // SplitMix64 expansion: the first four outputs of its stream.
    for (auto &word : _state) {
        word = mix64(seed);
        seed += 0x9E3779B97F4A7C15ull;
    }
}

std::uint64_t
Rng::next()
{
    const std::uint64_t result = rotl(_state[0] + _state[3], 23) + _state[0];
    const std::uint64_t t = _state[1] << 17;

    _state[2] ^= _state[0];
    _state[3] ^= _state[1];
    _state[1] ^= _state[2];
    _state[0] ^= _state[3];
    _state[2] ^= t;
    _state[3] = rotl(_state[3], 45);

    return result;
}

double
Rng::uniform()
{
    // 53 random mantissa bits -> [0, 1).
    return static_cast<double>(next() >> 11) * 0x1.0p-53;
}

double
Rng::uniform(double lo, double hi)
{
    return lo + (hi - lo) * uniform();
}

std::uint64_t
Rng::uniformInt(std::uint64_t n)
{
    PRESS_ASSERT(n > 0, "uniformInt needs a non-empty range");
    // Multiply-shift bounded sampling; bias is < 2^-64 * n which is
    // negligible for the population sizes we use, and it keeps the number
    // of engine outputs per call deterministic (exactly one).
    unsigned __int128 wide = static_cast<unsigned __int128>(next()) * n;
    return static_cast<std::uint64_t>(wide >> 64);
}

double
Rng::exponential(double mean)
{
    PRESS_ASSERT(mean > 0, "exponential mean must be positive");
    double u = uniform();
    // 1 - u is in (0, 1], so the log is finite.
    return -mean * std::log(1.0 - u);
}

double
Rng::normal()
{
    // Box-Muller; consumes exactly two engine outputs.
    double u1 = uniform();
    double u2 = uniform();
    if (u1 <= 0)
        u1 = 0x1.0p-53;
    return std::sqrt(-2.0 * std::log(u1)) *
           std::cos(2.0 * 3.14159265358979323846 * u2);
}

double
Rng::normal(double mean, double stddev)
{
    return mean + stddev * normal();
}

double
Rng::lognormalByMean(double linear_mean, double sigma)
{
    PRESS_ASSERT(linear_mean > 0, "lognormal mean must be positive");
    // E[X] = exp(mu + sigma^2/2)  =>  mu = ln(mean) - sigma^2/2.
    double mu = std::log(linear_mean) - 0.5 * sigma * sigma;
    return std::exp(normal(mu, sigma));
}

Rng
Rng::split()
{
    return Rng(next());
}

ZipfSampler::ZipfSampler(std::size_t n, double alpha) : _alpha(alpha)
{
    PRESS_ASSERT(n >= 1, "ZipfSampler needs at least one rank");
    _cdf.resize(n);
    double sum = 0;
    for (std::size_t i = 0; i < n; ++i) {
        sum += 1.0 / std::pow(static_cast<double>(i + 1), alpha);
        _cdf[i] = sum;
    }
    for (auto &c : _cdf)
        c /= sum;
    _cdf.back() = 1.0; // guard against rounding
}

std::size_t
ZipfSampler::sample(Rng &rng) const
{
    return sampleAt(rng.uniform());
}

std::size_t
ZipfSampler::sampleAt(double u) const
{
    // First rank whose CDF value exceeds u.
    std::size_t lo = 0, hi = _cdf.size() - 1;
    while (lo < hi) {
        std::size_t mid = (lo + hi) / 2;
        if (_cdf[mid] <= u)
            lo = mid + 1;
        else
            hi = mid;
    }
    return lo;
}

double
ZipfSampler::probability(std::size_t i) const
{
    PRESS_ASSERT(i < _cdf.size(), "rank out of range");
    return i == 0 ? _cdf[0] : _cdf[i] - _cdf[i - 1];
}

double
ZipfSampler::accumulated(std::size_t n) const
{
    if (n == 0)
        return 0;
    if (n >= _cdf.size())
        return 1.0;
    return _cdf[n - 1];
}

} // namespace press::util
