#include "metrics.hpp"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <ostream>
#include <sstream>

namespace perfbench {

double
median(std::vector<double> v)
{
    std::sort(v.begin(), v.end());
    std::size_t n = v.size();
    return n % 2 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2;
}

std::array<double, 3>
quartiles(std::vector<double> v)
{
    std::sort(v.begin(), v.end());
    const long ld = static_cast<long>(v.size());
    const long m = ld + 1;
    const long n = 4;
    std::array<double, 3> q{};
    for (long i = 1; i < n; ++i) {
        long j = std::clamp(i * m / n, 1L, ld - 1);
        long delta = i * m - j * n;
        q[i - 1] = (v[j - 1] * static_cast<double>(n - delta) +
                    v[j] * static_cast<double>(delta)) /
                   static_cast<double>(n);
    }
    return q;
}

double
relativeSpread(const std::vector<double> &v)
{
    double med = median(v);
    auto q = quartiles(v);
    return med != 0 ? (q[2] - q[0]) / std::fabs(med) : 0.0;
}

namespace {

bool
alnum(char c)
{
    return (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
           (c >= '0' && c <= '9');
}

bool
madeOf(std::string_view s, std::string_view extra)
{
    return std::all_of(s.begin(), s.end(), [&](char c) {
        return alnum(c) || extra.find(c) != std::string_view::npos;
    });
}

} // namespace

bool
validMetricName(std::string_view name)
{
    return !name.empty() && name.size() <= 64 && alnum(name[0]) &&
           madeOf(name, "_.-");
}

bool
validUnit(std::string_view unit)
{
    return !unit.empty() && unit.size() <= 16 && madeOf(unit, "_/%.-");
}

std::string
formatNumber(double v)
{
    char buf[64];
    auto res = std::to_chars(buf, buf + sizeof buf, v);
    return std::string(buf, res.ptr);
}

bool
MetricSet::add(const std::string &name, double value,
               const std::string &unit)
{
    if (!validMetricName(name) || !validUnit(unit) || !std::isfinite(value) ||
        find(name))
        return false;
    _metrics.push_back({name, value, unit});
    return true;
}

const Metric *
MetricSet::find(std::string_view name) const
{
    for (const auto &m : _metrics)
        if (m.name == name)
            return &m;
    return nullptr;
}

void
MetricSet::print(std::ostream &os, std::string_view prefix) const
{
    for (const auto &m : _metrics)
        os << prefix << m.name << " " << formatNumber(m.value) << " "
           << m.unit << "\n";
}

std::string
resultJson(bool correct, std::uint64_t attempted, std::uint64_t failed,
           const MetricSet &metrics)
{
    // Names and units are grammar-checked on entry, so neither needs
    // JSON escaping.
    std::ostringstream os;
    os << "{\"correct\": " << (correct ? "true" : "false")
       << ", \"attempted\": " << attempted << ", \"failed\": " << failed
       << ", \"metrics\": {";
    const char *sep = "";
    for (const auto &m : metrics.all()) {
        os << sep << "\"" << m.name << "\": {\"value\": "
           << formatNumber(m.value) << ", \"unit\": \"" << m.unit << "\"}";
        sep = ", ";
    }
    os << "}}";
    return os.str();
}

std::string
fingerprint(const CellOutcome &c)
{
    std::ostringstream os;
    os << c.label << "\n";
    for (const auto &[name, value] : c.exact)
        os << name << " " << formatNumber(value) << "\n";
    return os.str();
}

void
Gate::checkCell(const CellOutcome &c, std::string_view where)
{
    std::string at = std::string(where) + " " + c.label + ": ";
    require(c.measured > 0, at + "no measured replies");
    require(c.bad == 0, at + std::to_string(c.bad) + " malformed requests");
    require(c.lost == 0, at + std::to_string(c.lost) + " requests lost");
    if (c.openLoop) {
        // The traffic tests assert measured + dropped == offered with
        // no warm-up; a warm-up's closed-loop clients each may add one
        // reply after the measurement reset.
        const std::uint64_t answered = c.measured + c.dropped;
        require(answered >= c.offered &&
                    answered <= c.offered + c.warmupClients,
                at + "measured + dropped = " + std::to_string(answered) +
                    ", offered " + std::to_string(c.offered) + " (+" +
                    std::to_string(c.warmupClients) + " warm-up clients)");
        require(c.inFlightEnd == 0, at + std::to_string(c.inFlightEnd) +
                                        " requests still in flight");
    }
}

void
Gate::checkSame(const std::vector<CellOutcome> &ref,
                const std::vector<CellOutcome> &got, std::string_view where)
{
    if (ref.size() != got.size()) {
        require(false, std::string(where) + ": cell count differs");
        return;
    }
    for (std::size_t i = 0; i < ref.size(); ++i) {
        std::string a = fingerprint(ref[i]);
        std::string b = fingerprint(got[i]);
        if (a == b)
            continue;
        // Name the first value that moved.
        std::istringstream sa(a), sb(b);
        std::string la, lb;
        while (std::getline(sa, la) && std::getline(sb, lb) && la == lb) {
        }
        require(false, std::string(where) + " " + ref[i].label +
                           ": not identical to the reference (" + la +
                           " vs " + lb + ")");
    }
}

void
Gate::require(bool ok, std::string_view what)
{
    if (!ok)
        _failures.emplace_back(what);
}

} // namespace perfbench
