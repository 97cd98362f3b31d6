/**
 * @file
 * press_perfbench: the PRESS benchmark program.
 *
 *   press_perfbench --workload NAME --seed N --seconds S --trace 0|1
 *                   [--spans FILE] [--commit ID]
 *
 * Runs one workload (workloads.hpp) for about S seconds of host time,
 * as repetitions of the same seeded cells on one thread, and prints
 * every metric as `name value unit`, then one JSON result line.
 *
 * --trace 0 times plain runs and reports the end-to-end metrics, the
 * host cost of the simulator (setup_s, host_req_per_s, peak_rss_mb).
 * It also prints the simulated cluster's outcome (sim_*), which is
 * deterministic for a seed. Host times are the thread's CPU time,
 * scaled to a reference host speed by a calibration loop run around
 * every repetition (calibrationS).
 *
 * --trace 1 rotates four variants of the same runs (plain, obs tracer
 * on, VIA checker on, causality checker on, both checkers in Abort
 * mode), runs the per-layer probes, and reports the per-layer metrics;
 * the variants' host-time differences are the obs and check overheads.
 * Benchmark-side spans (name, start, end, parent, run id) and the
 * per-layer metrics go to --spans.
 *
 * Every run passes the correctness gate (metrics.hpp): per-cell loss
 * and conservation checks, byte-identical sim results across every
 * repetition and variant, and obs::crossCheck on traced runs. Any miss
 * prints the failures, reports "correct": false and exits 1.
 */

#include <sys/resource.h>
#include <time.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <memory>
#include <new>
#include <sstream>
#include <string>
#include <thread>
#include <queue>
#include <vector>

#include "core/cluster.hpp"
#include "metrics.hpp"
#include "obs/summary.hpp"
#include "probes.hpp"
#include "util/cli.hpp"
#include "workloads.hpp"

namespace {
std::atomic<std::uint64_t> g_allocs{0};
}

// Counts every heap allocation: core.allocs_per_req.
void *
operator new(std::size_t n)
{
    g_allocs.fetch_add(1, std::memory_order_relaxed);
    if (void *p = std::malloc(n))
        return p;
    throw std::bad_alloc();
}

void
operator delete(void *p) noexcept
{
    std::free(p);
}

void
operator delete(void *p, std::size_t) noexcept
{
    std::free(p);
}

namespace {

using namespace press;
using namespace perfbench;
using Clock = std::chrono::steady_clock;

constexpr std::size_t MinSetups = 7;

const Clock::time_point g_epoch = Clock::now();

double
nowS()
{
    return std::chrono::duration<double>(Clock::now() - g_epoch).count();
}

/** CPU seconds this thread has run. The simulator is single-threaded,
 *  so this is its host cost without the time a shared host gives to
 *  other processes. */
double
cpuS()
{
    timespec ts{};
    clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
    return static_cast<double>(ts.tv_sec) +
           static_cast<double>(ts.tv_nsec) * 1e-9;
}

/**
 * A fixed amount of CPU work that runs none of the simulator's code:
 * churn on a 64 Ki-entry binary heap, the same kind of work as the
 * event queue. Returns its CPU seconds, which track how fast a shared
 * host runs at the moment: host slowdowns here last from seconds to
 * minutes and reach 1.8x, more than any repetition count averages out.
 */
double
calibrationS()
{
    std::priority_queue<std::uint32_t> heap;
    std::uint64_t x = 0x9e3779b97f4a7c15ull;
    auto next = [&x] {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        return static_cast<std::uint32_t>(x);
    };
    double t0 = cpuS();
    for (int i = 0; i < (1 << 16); ++i)
        heap.push(next());
    std::uint64_t sum = 0;
    for (int i = 0; i < 400'000; ++i) {
        sum += heap.top();
        heap.pop();
        heap.push(next());
    }
    double t = cpuS() - t0;
    // Keep the loop observable.
    if (sum == 1)
        std::cout << "";
    return t;
}

/** calibrationS() on the host the baseline was taken on. Host times are
 *  reported scaled by CalibrationRefS / calibrationS() measured around
 *  each repetition: the time the work would take at the reference
 *  host speed. */
constexpr double CalibrationRefS = 0.045;

/** The host-speed scale for work bracketed by calibrations @p c0, @p c1. */
double
hostScale(double c0, double c1)
{
    return CalibrationRefS / ((c0 + c1) / 2);
}

/** Benchmark-side spans around each public call, kept in memory and
 *  written once at the end. */
class SpanLog
{
  public:
    struct Span {
        std::string name;
        int parent = -1;
        int run = 0;
        double start = 0, end = 0; ///< wall clock, s since start-up
        double cpuStart = 0, cpu = 0; ///< thread CPU time, s
    };

    int
    begin(std::string name, int parent, int run)
    {
        _spans.push_back({std::move(name), parent, run, nowS(), 0, cpuS(), 0});
        return static_cast<int>(_spans.size()) - 1;
    }

    /** Close span @p id; returns the CPU seconds it took. */
    double
    end(int id)
    {
        Span &s = _spans.at(id);
        s.end = nowS();
        s.cpu = cpuS() - s.cpuStart;
        return s.cpu;
    }

    const std::vector<Span> &spans() const { return _spans; }

  private:
    std::vector<Span> _spans;
};

enum class Variant { Plain, Traced, ViaChecked, CausalityChecked };

const char *
variantName(Variant v)
{
    switch (v) {
      case Variant::Plain:
        return "plain";
      case Variant::Traced:
        return "traced";
      case Variant::ViaChecked:
        return "via_checked";
      case Variant::CausalityChecked:
        return "causality_checked";
    }
    return "?";
}

/** One repetition of every cell of the workload. */
struct Rep {
    Variant variant = Variant::Plain;
    /** CPU seconds scaled to the reference host speed. */
    double genS = 0, buildS = 0, runS = 0;
    double scale = 1; ///< hostScale() around this repetition
    std::uint64_t events = 0, issued = 0, allocs = 0;
    std::vector<CellOutcome> outcomes;
    std::vector<core::ClusterResults> results;

    double setupS() const { return genS + buildS; }
};

CellOutcome
outcomeOf(const Cell &cell, const core::ClusterResults &r,
          std::uint64_t bad, std::uint64_t events)
{
    CellOutcome o;
    o.label = cell.label;
    o.openLoop =
        cell.config.clientMode == core::PressConfig::ClientMode::OpenLoop;
    o.measured = r.requestsMeasured;
    o.lost = r.requestsLost;
    o.bad = bad;
    o.offered = r.offeredRequests;
    o.dropped = r.droppedRequests;
    o.inFlightEnd = r.inFlightEnd;
    if (cell.config.warmupFraction > 0)
        o.warmupClients = static_cast<std::uint64_t>(
            cell.config.nodes * cell.config.clientsPerNode);

    auto u = [](std::uint64_t v) { return static_cast<double>(v); };
    o.exact = {
        {"sim_rps", r.throughput},
        {"sim_p50_ms", r.p50LatencyMs},
        {"sim_p99_ms", r.p99LatencyMs},
        {"sim_p999_ms", r.p999LatencyMs},
        {"sim_avg_ms", r.avgLatencyMs},
        {"measured_s", r.measuredSeconds},
        {"measured", u(r.requestsMeasured)},
        {"events", u(events)},
        {"cpu_util", r.cpuUtilization},
        {"disk_util", r.diskUtilization},
        {"forward_fraction", r.forwardFraction},
        {"local_hit_fraction", r.localHitFraction},
        {"disk_reads", u(r.diskReads)},
        {"cache_insertions", u(r.cacheInsertions)},
        {"dir_entries_max", u(r.dirEntriesMaxPerNode)},
        {"dir_entries_total", u(r.dirEntriesTotal)},
        {"gossip_rounds", u(r.gossipRounds)},
        {"gossip_rumor_sends", u(r.gossipRumorSends)},
        {"load_waves", u(r.loadWaves)},
        {"caching_waves", u(r.cachingWaves)},
        {"dir_lookups", u(r.dirLookups)},
        {"dir_home_returns", u(r.dirHomeReturns)},
        {"requests_retried", u(r.requestsRetried)},
        {"client_retries", u(r.clientRetries)},
        {"stale_drops", u(r.staleDrops)},
        {"membership_sends", u(r.membershipSends)},
        {"reannounced_files", u(r.reAnnouncedFiles)},
        {"dropped_sends", u(r.droppedSends)},
        {"rx_errors", u(r.rxErrors)},
        {"view_converge_ms", r.viewConvergeMs},
        {"offered", u(r.offeredRequests)},
        {"inflight_peak", u(r.inFlightPeak)},
        {"measure_start_tick", u(static_cast<std::uint64_t>(
                                   r.measureStartTick))},
        {"overload_serves", u(r.overloadServes)},
    };
    for (int k = 0; k < static_cast<int>(core::MsgKind::NumKinds); ++k) {
        std::string kind = core::msgKindName(static_cast<core::MsgKind>(k));
        o.exact.emplace_back("msgs." + kind, u(r.comm.byKind[k].msgs));
        o.exact.emplace_back("bytes." + kind, u(r.comm.byKind[k].bytes));
    }
    for (int c = 0; c < osnode::NumCpuCategories; ++c)
        o.exact.emplace_back(
            std::string("cpu_share.") + osnode::cpuCategoryName(c),
            r.cpuShare[c]);
    return o;
}

class Bench
{
  public:
    Bench(Workload w, Gate &gate) : _w(std::move(w)), _gate(gate) {}

    /** Generate, build and run every cell once under @p v. */
    Rep
    rep(Variant v)
    {
        const int run_id = _runs++;
        const double c0 = calibrationS();
        Rep rep;
        rep.variant = v;
        int root = _log.begin(std::string("rep.") + variantName(v), -1,
                              run_id);
        int g = _log.begin("workload.generateTrace", root, run_id);
        workload::Trace trace = workload::generateTrace(_w.trace);
        rep.genS = _log.end(g);

        for (const Cell &cell : _w.cells) {
            core::PressConfig config = cell.config;
            config.trace = v == Variant::Traced;
            if (v == Variant::ViaChecked)
                config.viaCheck = core::ViaCheck::Abort;
            if (v == Variant::CausalityChecked)
                config.causality = core::ViaCheck::Abort;

            int b = _log.begin("core.PressCluster", root, run_id);
            auto cluster =
                std::make_unique<core::PressCluster>(config, trace);
            rep.buildS += _log.end(b);

            std::uint64_t a0 = g_allocs.load(std::memory_order_relaxed);
            int r = _log.begin("core.PressCluster.run", root, run_id);
            core::ClusterResults res = cluster->run(cell.requests);
            rep.runS += _log.end(r);
            rep.allocs += g_allocs.load(std::memory_order_relaxed) - a0;

            std::uint64_t events = cluster->simulator().eventsExecuted();
            std::uint64_t issued =
                issuedRequests(cell, trace.requests.size());
            rep.events += events;
            rep.issued += issued;

            std::string where = "run " + std::to_string(run_id) + " (" +
                                variantName(v) + ")";
            CellOutcome o =
                outcomeOf(cell, res, cluster->badRequests(), events);
            _gate.checkCell(o, where);
            if (v == Variant::Traced) {
                std::ostringstream diag;
                _gate.require(res.trace && obs::crossCheck(*res.trace, &diag),
                              where + " " + cell.label +
                                  ": obs::crossCheck failed " + diag.str());
                res.trace.reset();
            }
            rep.outcomes.push_back(std::move(o));
            rep.results.push_back(std::move(res));
        }
        _log.end(root);
        rep.scale = hostScale(c0, calibrationS());
        rep.genS *= rep.scale;
        rep.buildS *= rep.scale;
        rep.runS *= rep.scale;

        if (_reference.empty())
            _reference = rep.outcomes;
        else
            _gate.checkSame(_reference, rep.outcomes,
                            "run " + std::to_string(run_id) + " (" +
                                variantName(v) + ")");
        return rep;
    }

    /** Set up every cell without running it (extra setup_s samples). */
    double
    setupOnly()
    {
        const int run_id = _runs++;
        const double c0 = calibrationS();
        int root = _log.begin("setup", -1, run_id);
        int g = _log.begin("workload.generateTrace", root, run_id);
        workload::Trace trace = workload::generateTrace(_w.trace);
        double s = _log.end(g);
        for (const Cell &cell : _w.cells) {
            int b = _log.begin("core.PressCluster", root, run_id);
            auto cluster =
                std::make_unique<core::PressCluster>(cell.config, trace);
            s += _log.end(b);
        }
        _log.end(root);
        return s * hostScale(c0, calibrationS());
    }

    /** Time one probe under a span. */
    template <typename Fn>
    double
    probe(const char *name, Fn &&fn)
    {
        int id = _log.begin(name, -1, _runs++);
        double v = fn();
        _log.end(id);
        return v;
    }

    const Workload &workload() const { return _w; }
    const SpanLog &log() const { return _log; }

  private:
    Workload _w;
    Gate &_gate;
    SpanLog _log;
    int _runs = 0;
    std::vector<CellOutcome> _reference;
};

double
peakRssMb()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0;
}

double
exact(const CellOutcome &o, const char *name)
{
    for (const auto &[n, v] : o.exact)
        if (n == name)
            return v;
    return 0;
}

template <typename Pick>
std::vector<double>
collect(const std::vector<Rep> &reps, Variant v, Pick &&pick)
{
    std::vector<double> out;
    for (const Rep &r : reps)
        if (r.variant == v)
            out.push_back(pick(r));
    return out;
}

/** Simulated requests (warm-up included) per host CPU second at the
 *  reference host speed. */
double
reqPerS(const Rep &r)
{
    return static_cast<double>(r.issued) / r.runS;
}

/** The end-to-end metrics from the plain repetitions. */
void
endToEnd(MetricSet &m, const std::vector<Rep> &reps,
         std::vector<double> setup)
{
    for (const Rep &r : reps)
        if (r.variant == Variant::Plain)
            setup.push_back(r.setupS());
    m.add("setup_s", median(setup), "s");
    m.add("host_req_per_s", median(collect(reps, Variant::Plain, reqPerS)),
          "req/s");
    m.add("peak_rss_mb", peakRssMb(), "MB");
}

/** The simulated cluster's outcome: deterministic for a seed. */
void
simulated(MetricSet &m, const Bench &bench, const Rep &first)
{
    const CellOutcome &p = first.outcomes[bench.workload().primary];
    for (const char *name :
         {"sim_rps", "sim_p50_ms", "sim_p99_ms", "sim_p999_ms"})
        m.add(name, exact(p, name),
              std::string(name) == "sim_rps" ? "req/s" : "ms");
}

/** The per-layer metrics; @p probes are the isolated layer probes. */
void
perLayer(MetricSet &m, const Bench &bench, const std::vector<Rep> &reps,
         const MetricSet &probes, bool traced)
{
    const Workload &w = bench.workload();
    const Rep &first = reps.front(); // plain, first in the process
    const core::ClusterResults &r = first.results[w.primary];
    const CellOutcome &p = first.outcomes[w.primary];
    const double measured = static_cast<double>(r.requestsMeasured);
    const double issued = static_cast<double>(first.issued);
    auto per_req = [&](double v) { return v / measured; };
    auto msgs = [&](core::MsgKind k) {
        return per_req(static_cast<double>(r.comm.of(k).msgs));
    };
    auto med = [&](Variant v, auto pick) {
        auto s = collect(reps, v, pick);
        return s.empty() ? 0.0 : median(s);
    };
    auto run_s = [](const Rep &x) { return x.runS; };
    auto overhead = [&](Variant v) {
        double base = med(Variant::Plain, run_s);
        double with = med(v, run_s);
        return with > 0 ? (with / base - 1) * 100 : 0.0;
    };

    simulated(m, bench, first);
    m.add("workload.gen_s",
          med(Variant::Plain, [](const Rep &x) { return x.genS; }), "s");
    m.add("core.build_s",
          med(Variant::Plain, [](const Rep &x) { return x.buildS; }), "s");
    m.add("sim.events_per_req", static_cast<double>(first.events) / issued,
          "events/req");
    m.add("sim.ns_per_event", med(Variant::Plain, [](const Rep &x) {
              return x.runS * 1e9 / static_cast<double>(x.events);
          }),
          "ns");
    for (const Metric &pm : probes.all())
        m.add(pm.name, pm.value, pm.unit);
    m.add("core.allocs_per_req", static_cast<double>(first.allocs) / issued,
          "allocs/req");

    m.add("core.load_msgs_per_req", msgs(core::MsgKind::Load), "msgs/req");
    m.add("core.flow_msgs_per_req", msgs(core::MsgKind::Flow), "msgs/req");
    m.add("core.forward_msgs_per_req", msgs(core::MsgKind::Forward),
          "msgs/req");
    m.add("core.caching_msgs_per_req", msgs(core::MsgKind::Caching),
          "msgs/req");
    m.add("core.file_msgs_per_req", msgs(core::MsgKind::File), "msgs/req");
    m.add("core.membership_msgs_per_req", msgs(core::MsgKind::Membership),
          "msgs/req");
    m.add("core.intra_bytes_per_req",
          per_req(static_cast<double>(r.comm.total().bytes)), "B/req");
    m.add("core.intra_comm_share", r.intraCommShare(), "ratio");
    m.add("osnode.cpu_util", r.cpuUtilization, "ratio");
    m.add("osnode.cpu_share.service", r.cpuShare[osnode::CatService],
          "ratio");
    m.add("osnode.cpu_share.client_comm", r.cpuShare[osnode::CatClientComm],
          "ratio");
    m.add("osnode.cpu_share.other", r.cpuShare[osnode::CatOther], "ratio");
    m.add("core.forward_fraction", r.forwardFraction, "ratio");
    m.add("core.dir_entries_max_per_node",
          static_cast<double>(r.dirEntriesMaxPerNode), "entries");
    m.add("core.gossip_rumor_sends_per_req",
          per_req(static_cast<double>(r.gossipRumorSends)), "sends/req");
    m.add("core.dir_lookups_per_req",
          per_req(static_cast<double>(r.dirLookups)), "lookups/req");
    m.add("core.dir_home_returns", static_cast<double>(r.dirHomeReturns),
          "count");
    m.add("osnode.disk_util", r.diskUtilization, "ratio");
    m.add("storage.local_hit_fraction", r.localHitFraction, "ratio");
    m.add("storage.disk_reads_per_req",
          per_req(static_cast<double>(r.diskReads)), "reads/req");
    m.add("storage.cache_insertions_per_req",
          per_req(static_cast<double>(r.cacheInsertions)), "inserts/req");
    m.add("traffic.inflight_peak", static_cast<double>(r.inFlightPeak),
          "requests");
    m.add("traffic.overload_serves", static_cast<double>(r.overloadServes),
          "count");
    m.add("fault.requests_retried", static_cast<double>(r.requestsRetried),
          "count");
    m.add("fault.client_retries", static_cast<double>(r.clientRetries),
          "count");
    m.add("fault.dropped_sends", static_cast<double>(r.droppedSends),
          "count");
    m.add("fault.reannounced_files", static_cast<double>(r.reAnnouncedFiles),
          "count");
    m.add("fault.view_converge_ms", r.viewConvergeMs, "ms");
    m.add("obs.overhead_pct", traced ? overhead(Variant::Traced) : 0.0, "%");
    m.add("check.via_overhead_pct", overhead(Variant::ViaChecked), "%");
    m.add("check.causality_overhead_pct",
          overhead(Variant::CausalityChecked), "%");

    double offered = p.openLoop ? static_cast<double>(p.offered) : measured;
    m.add("fail_ratio", static_cast<double>(p.failed()) / offered, "ratio");
    // The paper's headline: VIA/cLAN-V5 beats TCP/cLAN by 26 % on
    // average (Figure 6). Only paper8 runs both cells.
    double err = 0;
    if (w.baseline >= 0) {
        double gain = r.throughput / first.results[w.baseline].throughput;
        err = std::fabs(gain - 1 - 0.26) * 100;
    }
    m.add("paper_err_pp", err, "pp");
}

void
writeSpans(const std::string &path, const Bench &bench, std::uint64_t seed,
           const MetricSet &layer)
{
    std::ofstream os(path);
    if (!os)
        util::fatal("cannot write spans to ", path);
    os << "{\"workload\": \"" << bench.workload().name
       << "\", \"seed\": " << seed << ", \"spans\": [";
    const auto &spans = bench.log().spans();
    for (std::size_t i = 0; i < spans.size(); ++i) {
        const auto &s = spans[i];
        os << (i ? ",\n" : "\n") << "{\"id\": " << i << ", \"name\": \""
           << s.name << "\", \"parent\": " << s.parent
           << ", \"run\": " << s.run
           << ", \"start_s\": " << formatNumber(s.start)
           << ", \"end_s\": " << formatNumber(s.end)
           << ", \"cpu_s\": " << formatNumber(s.cpu) << "}";
    }
    os << "],\n\"metrics\": " << resultJson(true, 1, 0, layer) << "}\n";
}

struct Args {
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10;
    int trace = 0;
    std::string spans;
    std::string commit = "unknown";
};

Args
parseArgs(int argc, char **argv)
{
    Args a;
    for (int i = 1; i < argc; ++i) {
        std::string flag = argv[i];
        if (flag == "--workload")
            a.workload = util::cliValue(argc, argv, i);
        else if (flag == "--seed")
            a.seed = util::cliU64(argc, argv, i);
        else if (flag == "--seconds")
            a.seconds = util::cliDouble(argc, argv, i);
        else if (flag == "--trace")
            a.trace = static_cast<int>(util::cliInt(argc, argv, i, 0, 1));
        else if (flag == "--spans")
            a.spans = util::cliValue(argc, argv, i);
        else if (flag == "--commit")
            a.commit = util::cliValue(argc, argv, i);
        else
            util::fatal("unknown option '", flag, "'");
    }
    if (a.workload.empty())
        util::fatal("--workload is required");
    if (!(a.seconds > 0))
        util::fatal("--seconds must be positive");
    return a;
}

} // namespace

int
main(int argc, char **argv)
{
    Args args = parseArgs(argc, argv);
    Gate gate;
    Bench bench(makeWorkload(args.workload, args.seed), gate);
    const Workload &w = bench.workload();

    std::cout << "host nproc=" << std::thread::hardware_concurrency()
              << " compiler=\"" << __VERSION__
              << "\" build=" << PERFBENCH_BUILD_TYPE
              << " commit=" << args.commit << "\n";
    std::cout << "workload " << w.name << " seed " << args.seed
              << " trace " << args.trace << " cells";
    for (const Cell &c : w.cells)
        std::cout << " [" << c.label << " x" << c.config.nodes << " "
                  << c.requests << " req]";
    std::cout << "\n";

    std::vector<Variant> variants = {Variant::Plain};
    const bool traceable =
        std::all_of(w.cells.begin(), w.cells.end(),
                    [](const Cell &c) { return c.config.nodes <= 255; });
    if (args.trace) {
        // The obs tracer's node field is 8 bits wide (1..255 nodes).
        if (traceable)
            variants.push_back(Variant::Traced);
        else
            std::cout << "note: obs tracer limited to 255 nodes; no "
                         "traced variant\n";
        variants.push_back(Variant::ViaChecked);
        variants.push_back(Variant::CausalityChecked);
    }

    // Rounds of every variant until the next round would overrun.
    std::vector<Rep> reps;
    const double start = nowS();
    double round_s = 0;
    do {
        double t = nowS();
        for (Variant v : variants) {
            reps.push_back(bench.rep(v));
            const Rep &r = reps.back();
            std::cout << "rep " << reps.size() - 1 << " " << variantName(v)
                      << " setup_s " << formatNumber(r.setupS())
                      << " run_s " << formatNumber(r.runS) << " scale "
                      << formatNumber(r.scale) << " events "
                      << r.events;
            for (const CellOutcome &o : r.outcomes)
                std::cout << " [" << o.label << " sim_rps "
                          << formatNumber(exact(o, "sim_rps")) << " p99 "
                          << formatNumber(exact(o, "sim_p99_ms")) << "]";
            std::cout << "\n";
        }
        round_s = nowS() - t;
    } while (gate.ok() && nowS() - start + round_s <= args.seconds);

    // setup_s is a median of at least MinSetups set-ups.
    std::vector<double> extra_setup;
    while (gate.ok() && reps.size() + extra_setup.size() < MinSetups)
        extra_setup.push_back(bench.setupOnly());

    MetricSet e2e, sim, layer;
    if (gate.ok()) {
        endToEnd(e2e, reps, extra_setup);
        if (!args.trace) {
            simulated(sim, bench, reps.front());
        } else {
            MetricSet probes;
            workload::Trace trace = workload::generateTrace(w.trace);
            probes.add("sim.kernel_ns_per_event",
                       bench.probe("sim.probe", kernelNsPerEvent), "ns");
            probes.add("via.msg_host_ns",
                       bench.probe("via.probe", viaMsgHostNs), "ns");
            probes.add("tcpnet.msg_host_ns",
                       bench.probe("tcpnet.probe", tcpMsgHostNs), "ns");
            probes.add("storage.cache_op_ns",
                       bench.probe("storage.probe",
                                   [&] { return cacheOpNs(trace); }),
                       "ns");
            perLayer(layer, bench, reps, probes, traceable);
        }
    }

    std::uint64_t attempted = 0, failed = 0;
    for (const Rep &r : reps) {
        attempted += r.issued;
        for (const CellOutcome &o : r.outcomes)
            failed += o.failed();
    }
    for (const auto &f : gate.failures())
        std::cout << "GATE FAIL: " << f << "\n";

    e2e.print(std::cout, "e2e ");
    auto host = collect(reps, Variant::Plain, reqPerS);
    if (host.size() >= 2)
        std::cout << "spread host_req_per_s "
                  << formatNumber(relativeSpread(host)) << " (IQR/median over "
                  << host.size() << " repetitions)\n";
    std::cout << "host_scale "
              << formatNumber(median(collect(reps, Variant::Plain,
                                             [](const Rep &r) {
                                                 return r.scale;
                                             })))
              << " (host times above are CPU times x this)\n";
    sim.print(std::cout, "sim ");
    layer.print(std::cout, "layer ");
    if (args.trace && gate.ok() && !args.spans.empty())
        writeSpans(args.spans, bench, args.seed, layer);
    std::cout << resultJson(gate.ok(), std::max<std::uint64_t>(attempted, 1),
                            failed, args.trace ? layer : e2e)
              << std::endl;
    return gate.ok() ? 0 : 1;
}
