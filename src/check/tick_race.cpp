#include "tick_race.hpp"

#include <atomic>
#include <exception>
#include <mutex>
#include <sstream>
#include <thread>

#include "obs/trace_event.hpp"
#include "util/logging.hpp"
#include "util/random.hpp"

namespace press::check {

namespace {

/** Field-wise equality; TraceEvent is packed plain data but padding-free
 *  memcmp is what the static_assert guarantees, not what we rely on. */
bool
sameEvent(const obs::TraceEvent &a, const obs::TraceEvent &b)
{
    return a.tick == b.tick && a.arg == b.arg && a.req == b.req &&
           a.code == b.code && a.phase == b.phase && a.node == b.node;
}

/**
 * Run fn(0..n-1) across up to @p jobs threads, each index exactly once
 * (same shape as the bench harness's pool: shared claim counter, first
 * exception rethrown after all workers stop).
 */
template <typename Fn>
void
forEachIndex(std::size_t n, int jobs, Fn &&fn)
{
    if (n == 0)
        return;
    if (jobs > static_cast<int>(n))
        jobs = static_cast<int>(n);
    if (jobs <= 1) {
        for (std::size_t i = 0; i < n; ++i)
            fn(i);
        return;
    }

    std::atomic<std::size_t> next{0};
    std::mutex error_mutex;
    std::exception_ptr first_error;
    auto worker = [&]() {
        for (;;) {
            std::size_t i = next.fetch_add(1, std::memory_order_relaxed);
            if (i >= n)
                return;
            try {
                fn(i);
            } catch (...) {
                std::lock_guard<std::mutex> lock(error_mutex);
                if (!first_error)
                    first_error = std::current_exception();
            }
        }
    };

    std::vector<std::thread> pool;
    pool.reserve(static_cast<std::size_t>(jobs));
    for (int t = 0; t < jobs; ++t)
        pool.emplace_back(worker);
    for (auto &th : pool)
        th.join();
    if (first_error)
        std::rethrow_exception(first_error);
}

} // namespace

std::string
formatTraceEvent(const obs::TraceEvent &event)
{
    std::ostringstream os;
    os << "tick " << event.tick << " node "
       << static_cast<int>(event.node) << " "
       << obs::evName(event.code) << "/" << obs::phaseName(event.phase)
       << " req " << event.req << " arg " << event.arg;
    return os.str();
}

std::string
RaceFinding::format() const
{
    std::ostringstream os;
    os << scenario << " seed 0x" << std::hex << seed << std::dec << " "
       << what;
    if (node >= 0)
        os << " node " << node << " event#" << index;
    os << ": fifo={" << baseline << "} permuted={" << observed << "}";
    return os.str();
}

TickRaceHunter::TickRaceHunter(Options opts) : _opts(std::move(opts))
{
    PRESS_ASSERT(_opts.seeds >= 1, "need at least one permutation seed");
    if (_opts.jobs < 1)
        _opts.jobs = 1;
}

void
TickRaceHunter::addScenario(std::string name, Scenario scenario)
{
    PRESS_ASSERT(!_ran, "TickRaceHunter::addScenario after run");
    PRESS_ASSERT(scenario != nullptr, "null scenario");
    _scenarios.push_back(Entry{std::move(name), std::move(scenario)});
}

std::uint64_t
TickRaceHunter::seedForRun(std::uint64_t base, int k)
{
    std::uint64_t seed =
        util::mix64(base ^ (static_cast<std::uint64_t>(k) << 32));
    return seed ? seed : 0x9e3779b97f4a7c15ULL;
}

bool
TickRaceHunter::run()
{
    if (_ran)
        return clean();
    _ran = true;

    // Run the full (scenario x run) grid first — one FIFO baseline plus
    // opts.seeds permutations each — then compare sequentially, so the
    // findings order is a pure function of the grid, not of thread
    // scheduling.
    const std::size_t per = static_cast<std::size_t>(_opts.seeds) + 1;
    const std::size_t total = _scenarios.size() * per;
    std::vector<RunFingerprint> grid(total);
    forEachIndex(total, _opts.jobs, [&](std::size_t i) {
        const Entry &entry = _scenarios[i / per];
        const std::size_t k = i % per;
        if (k == 0)
            grid[i] = entry.scenario(sim::TieBreak::Fifo, 0);
        else
            grid[i] = entry.scenario(
                sim::TieBreak::SeededPermute,
                seedForRun(_opts.baseSeed, static_cast<int>(k)));
    });
    _runs = static_cast<int>(total);

    for (std::size_t s = 0; s < _scenarios.size(); ++s) {
        const RunFingerprint &base = grid[s * per];
        for (std::size_t k = 1; k < per; ++k)
            compare(_scenarios[s].name,
                    seedForRun(_opts.baseSeed, static_cast<int>(k)), base,
                    grid[s * per + k]);
    }
    return clean();
}

void
TickRaceHunter::compare(const std::string &name, std::uint64_t seed,
                        const RunFingerprint &base,
                        const RunFingerprint &alt)
{
    if (base.eventsExecuted != alt.eventsExecuted) {
        RaceFinding f;
        f.scenario = name;
        f.seed = seed;
        f.what = "events-executed";
        f.baseline = std::to_string(base.eventsExecuted);
        f.observed = std::to_string(alt.eventsExecuted);
        record(std::move(f));
    }
    if (base.finalTick != alt.finalTick) {
        RaceFinding f;
        f.scenario = name;
        f.seed = seed;
        f.what = "final-tick";
        f.baseline = std::to_string(base.finalTick);
        f.observed = std::to_string(alt.finalTick);
        record(std::move(f));
    }
    if (base.resultsHash != alt.resultsHash) {
        RaceFinding f;
        f.scenario = name;
        f.seed = seed;
        f.what = "results";
        f.baseline = base.headline.empty()
                         ? "hash " + std::to_string(base.resultsHash)
                         : base.headline;
        f.observed = alt.headline.empty()
                         ? "hash " + std::to_string(alt.resultsHash)
                         : alt.headline;
        record(std::move(f));
    }
    if (base.trace && alt.trace)
        diffTraces(name, seed, *base.trace, *alt.trace);
}

void
TickRaceHunter::diffTraces(const std::string &name, std::uint64_t seed,
                           const obs::TraceData &base,
                           const obs::TraceData &alt)
{
    if (base.nodes != alt.nodes) {
        RaceFinding f;
        f.scenario = name;
        f.seed = seed;
        f.what = "trace-nodes";
        f.baseline = std::to_string(base.nodes) + " nodes";
        f.observed = std::to_string(alt.nodes) + " nodes";
        record(std::move(f));
        return;
    }
    for (std::uint32_t n = 0; n < base.nodes; ++n) {
        const auto &be = base.events[n];
        const auto &ae = alt.events[n];
        const std::size_t common = std::min(be.size(), ae.size());
        bool diverged = false;
        // The first differing pair on a node names the colliding
        // events: under a domain-aware permutation the per-node stream
        // is invariant unless same-tick cross-domain work raced.
        for (std::size_t i = 0; i < common; ++i) {
            if (sameEvent(be[i], ae[i]))
                continue;
            RaceFinding f;
            f.scenario = name;
            f.seed = seed;
            f.what = "trace";
            f.node = static_cast<int>(n);
            f.index = i;
            f.baseline = formatTraceEvent(be[i]);
            f.observed = formatTraceEvent(ae[i]);
            record(std::move(f));
            diverged = true;
            break;
        }
        if (!diverged && be.size() != ae.size()) {
            RaceFinding f;
            f.scenario = name;
            f.seed = seed;
            f.what = "trace-length";
            f.node = static_cast<int>(n);
            f.index = common;
            f.baseline = std::to_string(be.size()) + " events";
            f.observed = std::to_string(ae.size()) + " events";
            record(std::move(f));
        }
    }
    if (base.spanBusy != alt.spanBusy) {
        RaceFinding f;
        f.scenario = name;
        f.seed = seed;
        f.what = "span-busy";
        f.baseline = "per-node CPU attribution";
        f.observed = "differs from the FIFO baseline";
        record(std::move(f));
    }
}

void
TickRaceHunter::record(RaceFinding finding)
{
    ++_totalFindings;
    if (_findings.size() < MaxRetained)
        _findings.push_back(std::move(finding));
}

std::string
TickRaceHunter::report() const
{
    std::ostringstream os;
    os << "TickRaceHunter: " << _totalFindings << " divergence"
       << (_totalFindings == 1 ? "" : "s") << " across " << _runs
       << " runs (" << _scenarios.size() << " scenario"
       << (_scenarios.size() == 1 ? "" : "s") << " x (1 fifo + "
       << _opts.seeds << " seeds))\n";
    for (const RaceFinding &f : _findings)
        os << "  " << f.format() << "\n";
    if (_totalFindings > _findings.size())
        os << "  ... and " << _totalFindings - _findings.size()
           << " more\n";
    return os.str();
}

} // namespace press::check
