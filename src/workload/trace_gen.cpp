#include "trace_gen.hpp"

#include <algorithm>
#include <cctype>
#include <cmath>
#include <numeric>

#include "util/logging.hpp"

namespace press::workload {

TraceSpec
TraceSpec::scaled(double f) const
{
    PRESS_ASSERT(f > 0, "trace scale factor must be positive");
    TraceSpec s = *this;
    auto n = static_cast<std::uint64_t>(
        static_cast<double>(numRequests) * f);
    s.numRequests = std::max<std::uint64_t>(n, 1000);
    return s;
}

Trace
generateTrace(const TraceSpec &spec)
{
    PRESS_ASSERT(spec.numFiles > 0, "trace needs files");
    PRESS_ASSERT(spec.avgFileSize > 0, "average file size must be > 0");

    util::Rng rng(spec.seed);

    // 1. File sizes: lognormal with the target arithmetic mean, clamped,
    //    then rescaled so clamping does not shift the mean.
    std::vector<double> raw(spec.numFiles);
    for (auto &s : raw)
        s = rng.lognormalByMean(spec.avgFileSize, spec.sizeSigma);
    double mean =
        std::accumulate(raw.begin(), raw.end(), 0.0) / raw.size();
    double scale = spec.avgFileSize / mean;
    std::vector<std::uint32_t> sizes(spec.numFiles);
    for (std::size_t i = 0; i < raw.size(); ++i) {
        double s = raw[i] * scale;
        s = std::clamp(s, static_cast<double>(spec.minFileSize),
                       static_cast<double>(spec.maxFileSize));
        sizes[i] = static_cast<std::uint32_t>(s);
    }

    // 2. Two rank -> file mappings: size-ordered and random.
    std::vector<std::uint32_t> asc(spec.numFiles);
    std::iota(asc.begin(), asc.end(), 0);
    std::sort(asc.begin(), asc.end(),
              [&](std::uint32_t a, std::uint32_t b) {
                  if (sizes[a] != sizes[b])
                      return sizes[a] < sizes[b];
                  return a < b;
              });
    std::vector<std::uint32_t> rnd(spec.numFiles);
    std::iota(rnd.begin(), rnd.end(), 0);
    for (std::size_t i = rnd.size(); i > 1; --i)
        std::swap(rnd[i - 1], rnd[rng.uniformInt(i)]);

    // 3. Popularity and the mixture weight theta that hits the target
    //    average requested size.
    util::ZipfSampler zipf(spec.numFiles, spec.zipfAlpha);
    double e_asc = 0, e_rnd = 0;
    for (std::size_t i = 0; i < spec.numFiles; ++i) {
        double p = zipf.probability(i);
        e_asc += p * sizes[asc[i]];
        e_rnd += p * sizes[rnd[i]];
    }

    double theta = 0.0;
    bool descending = false;
    if (spec.avgRequestSize > 0) {
        double target = spec.avgRequestSize;
        if (target <= e_rnd) {
            // Popular files smaller than average (all Table 1 traces).
            if (e_rnd - e_asc > 1e-9)
                theta = std::clamp((e_rnd - target) / (e_rnd - e_asc),
                                   0.0, 1.0);
        } else {
            // Popular files larger than average: use descending order.
            descending = true;
            double e_desc = 0;
            for (std::size_t i = 0; i < spec.numFiles; ++i)
                e_desc +=
                    zipf.probability(i) * sizes[asc[spec.numFiles - 1 - i]];
            if (e_desc - e_rnd > 1e-9)
                theta = std::clamp((target - e_rnd) / (e_desc - e_rnd),
                                   0.0, 1.0);
        }
    }

    // 4. The request stream: Zipf popularity plus optional LRU-stack
    //    temporal locality.
    Trace trace;
    trace.name = spec.name;
    trace.files = FileSet(std::move(sizes));
    trace.requests.reserve(spec.numRequests);
    std::size_t window = std::max<std::size_t>(spec.temporalWindow, 1);
    for (std::uint64_t r = 0; r < spec.numRequests; ++r) {
        std::uint32_t file;
        if (spec.temporalLocality > 0 && !trace.requests.empty() &&
            rng.uniform() < spec.temporalLocality) {
            std::size_t depth = std::min(window, trace.requests.size());
            file = trace.requests[trace.requests.size() - 1 -
                                  rng.uniformInt(depth)];
        } else {
            std::size_t rank = zipf.sample(rng);
            bool ordered = rng.uniform() < theta;
            if (!ordered)
                file = rnd[rank];
            else if (descending)
                file = asc[spec.numFiles - 1 - rank];
            else
                file = asc[rank];
        }
        trace.requests.push_back(file);
    }
    return trace;
}

namespace {

TraceSpec
makeSpec(const char *name, std::size_t files, double avg_file_kb,
         std::uint64_t requests, double avg_req_kb, std::uint64_t seed)
{
    TraceSpec s;
    s.name = name;
    s.numFiles = files;
    s.avgFileSize = avg_file_kb * 1000.0;
    s.numRequests = requests;
    s.avgRequestSize = avg_req_kb * 1000.0;
    s.seed = seed;
    return s;
}

} // namespace

// Table 1 of the paper.
TraceSpec
clarknetSpec()
{
    return makeSpec("Clarknet", 28864, 14.2, 2978121, 9.7, 101);
}

TraceSpec
forthSpec()
{
    return makeSpec("Forth", 11931, 19.3, 400335, 8.8, 102);
}

TraceSpec
nasaSpec()
{
    return makeSpec("Nasa", 9129, 27.6, 3147684, 21.8, 103);
}

TraceSpec
rutgersSpec()
{
    return makeSpec("Rutgers", 18370, 27.3, 498646, 19.0, 104);
}

std::vector<TraceSpec>
paperTraceSpecs()
{
    return {clarknetSpec(), forthSpec(), nasaSpec(), rutgersSpec()};
}

std::optional<TraceSpec>
findPaperTrace(std::string_view name)
{
    auto lower = [](unsigned char c) { return std::tolower(c); };
    for (TraceSpec &spec : paperTraceSpecs())
        if (std::ranges::equal(spec.name, name, {}, lower, lower))
            return std::move(spec);
    return std::nullopt;
}

} // namespace press::workload
