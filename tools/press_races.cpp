/**
 * @file
 * press_races: the determinism race detector + causality check CLI.
 *
 * Phase 1 (hunt): reruns the golden-test cluster scenarios under K
 * seeded permutations of the equal-tick cross-domain event order
 * (check::TickRaceHunter) and diffs every run against the FIFO
 * baseline. Any divergence is a latent tick-race: code whose results
 * depend on an event ordering a parallel kernel would not guarantee.
 *
 * Phase 2 (causality): one sequential Record-mode causality run per
 * scenario (check::CausalityChecker) verifying that every cross-domain
 * scheduling edge carries at least its link's wire latency and every
 * fabric delivery at least its unloaded latency. Every finding is a
 * pure function of the simulation, so the output below the header
 * line (which names the job count) is byte-identical for any --jobs;
 * scripts/check.sh diffs it across jobs counts.
 *
 * Exit status: 0 when both phases are clean, 1 otherwise.
 */

#include <bit>
#include <cstring>
#include <iostream>
#include <sstream>
#include <string>

#include "check/causality_checker.hpp"
#include "check/tick_race.hpp"
#include "core/cluster.hpp"
#include "util/cli.hpp"
#include "util/logging.hpp"
#include "workload/trace_gen.hpp"

using namespace press;

namespace {

struct RaceOptions {
    int seeds = 8;
    std::uint64_t baseSeed = 1;
    int jobs = 1;
    std::uint64_t requests = 20000;
    std::string filter; ///< keep scenarios whose label contains this

    static RaceOptions
    parse(int argc, char **argv)
    {
        RaceOptions o;
        for (int i = 1; i < argc; ++i) {
            if (!std::strcmp(argv[i], "--seeds")) {
                o.seeds =
                    static_cast<int>(util::cliInt(argc, argv, i, 1, 4096));
            } else if (!std::strcmp(argv[i], "--seed")) {
                o.baseSeed = util::cliU64(argc, argv, i);
            } else if (!std::strcmp(argv[i], "--jobs")) {
                o.jobs =
                    static_cast<int>(util::cliInt(argc, argv, i, 1, 4096));
            } else if (!std::strcmp(argv[i], "--requests")) {
                o.requests = util::cliU64(argc, argv, i);
            } else if (!std::strcmp(argv[i], "--filter")) {
                o.filter = util::cliValue(argc, argv, i);
            } else if (!std::strcmp(argv[i], "--help")) {
                std::cout
                    << "usage: " << (argc > 0 ? argv[0] : "press_races")
                    << " [options]\n"
                       "  --seeds K     permutation seeds per scenario "
                       "(default 8)\n"
                       "  --seed S      root of the seed schedule "
                       "(default 1)\n"
                       "  --jobs N      worker threads for the hunt "
                       "(default 1); findings are\n"
                       "                byte-identical for any N\n"
                       "  --requests N  measured requests per run "
                       "(default 20000)\n"
                       "  --filter S    only scenarios whose label "
                       "contains S\n"
                       "  --help        this text\n";
                std::exit(0);
            } else {
                util::fatal("unknown option ", argv[i], " (try --help)");
            }
        }
        return o;
    }
};

/** The hunted scenarios: golden-test cluster configurations, whose
 *  FIFO results the tier-1 suite pins exactly, plus the scalable
 *  dissemination and directory paths. */
std::vector<core::PressConfig>
scenarioConfigs()
{
    std::vector<core::PressConfig> configs;
    {
        core::PressConfig c;
        c.protocol = core::Protocol::ViaClan;
        c.version = core::Version::V5;
        c.nodes = 8;
        configs.push_back(c);
    }
    {
        core::PressConfig c;
        c.protocol = core::Protocol::TcpFastEthernet;
        c.nodes = 8;
        configs.push_back(c);
    }
    {
        core::PressConfig c;
        c.protocol = core::Protocol::ViaClan;
        c.version = core::Version::V0;
        c.nodes = 4;
        configs.push_back(c);
    }
    {
        // The scalable dissemination path: gossip rounds plus a
        // sharded cache directory (docs/simulation.md, "Scalable
        // dissemination"). Not golden-pinned, but the hunter compares
        // every permutation against its own FIFO baseline.
        core::PressConfig c;
        c.protocol = core::Protocol::ViaClan;
        c.version = core::Version::V0;
        c.nodes = 8;
        c.dissemination = core::Dissemination::gossip();
        c.directoryMode = core::DirectoryMode::Sharded;
        configs.push_back(c);
    }
    {
        // Gossip with the replicated directory — isolates the gossip
        // engine from the sharded-directory forwarding protocol.
        core::PressConfig c;
        c.protocol = core::Protocol::ViaClan;
        c.version = core::Version::V0;
        c.nodes = 8;
        c.dissemination = core::Dissemination::gossip();
        configs.push_back(c);
    }
    {
        // Tree waves with the replicated directory: load and caching
        // news relayed down source-rooted k-ary subtrees.
        core::PressConfig c;
        c.protocol = core::Protocol::ViaClan;
        c.version = core::Version::V0;
        c.nodes = 8;
        c.dissemination = core::Dissemination::tree();
        configs.push_back(c);
    }
    {
        // Sharded directory under the paper's piggyback strategy —
        // isolates the owner-lookup path from gossip.
        core::PressConfig c;
        c.protocol = core::Protocol::ViaClan;
        c.version = core::Version::V0;
        c.nodes = 8;
        c.directoryMode = core::DirectoryMode::Sharded;
        configs.push_back(c);
    }
    {
        // VIA V3 with RMW load broadcasts (golden row "V3-load-word"):
        // the forward/caching rings, the two-message RMW file transfer
        // with its receive copy, and the overwritable load word.
        core::PressConfig c;
        c.protocol = core::Protocol::ViaClan;
        c.version = core::Version::V3;
        c.nodes = 8;
        c.dissemination = core::Dissemination::broadcast(1, /*rmw=*/true);
        configs.push_back(c);
    }
    return configs;
}

check::RunFingerprint
runScenario(const core::PressConfig &base, const workload::Trace &trace,
            std::uint64_t requests, sim::TieBreak policy,
            std::uint64_t seed)
{
    core::PressConfig config = base;
    config.tieBreak = policy;
    config.tieBreakSeed = seed;
    // The per-node trace rings are the race fingerprint; the protocol
    // checkers stay out of the way (they are exercised elsewhere and
    // must not abort a diagnostic permutation run).
    config.trace = true;
    config.viaCheck = core::ViaCheck::Off;
    config.causality = core::ViaCheck::Off;

    core::PressCluster cluster(config, trace);
    core::ClusterResults r = cluster.run(requests);

    check::RunFingerprint fp;
    fp.eventsExecuted = cluster.simulator().eventsExecuted();
    fp.finalTick = cluster.simulator().now();

    std::uint64_t h = 0;
    h = check::hashCombine(h, std::bit_cast<std::uint64_t>(r.throughput));
    h = check::hashCombine(h,
                           std::bit_cast<std::uint64_t>(r.avgLatencyMs));
    h = check::hashCombine(h,
                           std::bit_cast<std::uint64_t>(r.p99LatencyMs));
    h = check::hashCombine(h, r.requestsMeasured);
    h = check::hashCombine(
        h, std::bit_cast<std::uint64_t>(r.forwardFraction));
    h = check::hashCombine(
        h, std::bit_cast<std::uint64_t>(r.localHitFraction));
    h = check::hashCombine(h, r.diskReads);
    fp.resultsHash = h;

    std::ostringstream headline;
    headline.precision(17);
    headline << "tput " << r.throughput << " lat " << r.avgLatencyMs
             << " p99 " << r.p99LatencyMs << " reqs "
             << r.requestsMeasured << " fwd " << r.forwardFraction
             << " disk " << r.diskReads;
    fp.headline = headline.str();
    fp.trace = r.trace;
    return fp;
}

/** One FIFO Record-mode causality run; prints its verdict line. */
bool
runCausality(const core::PressConfig &base, const workload::Trace &trace,
             std::uint64_t requests)
{
    core::PressConfig config = base;
    config.causality = core::ViaCheck::Record;
    config.viaCheck = core::ViaCheck::Off;
    config.trace = false;

    core::PressCluster cluster(config, trace);
    cluster.run(requests);

    const check::CausalityChecker *checker = cluster.causalityChecker();
    PRESS_ASSERT(checker, "causality checker was not created");
    std::cout << config.label() << "/" << config.nodes << "n: "
              << checker->crossDomainEdges() << " cross-domain edges, "
              << checker->checksPerformed() << " checks, "
              << checker->totalViolations() << " violations\n";
    if (!checker->clean())
        std::cerr << checker->report();
    return checker->clean();
}

} // namespace

int
main(int argc, char **argv)
{
    RaceOptions opts = RaceOptions::parse(argc, argv);

    auto spec = workload::clarknetSpec();
    spec.numRequests = 30000;
    workload::Trace trace = workload::generateTrace(spec);

    std::vector<core::PressConfig> configs = scenarioConfigs();
    if (!opts.filter.empty()) {
        std::erase_if(configs, [&](const core::PressConfig &c) {
            return c.label().find(opts.filter) == std::string::npos;
        });
        if (configs.empty())
            util::fatal("--filter ", opts.filter,
                        " matches no scenario");
    }

    std::cout << "== press_races: tick-race hunt ==\n"
              << "(" << configs.size() << " scenarios x (1 fifo + "
              << opts.seeds << " permutation seeds), " << opts.requests
              << " requests each, " << opts.jobs << " jobs)\n";

    check::TickRaceHunter::Options hopts;
    hopts.seeds = opts.seeds;
    hopts.baseSeed = opts.baseSeed;
    hopts.jobs = opts.jobs;
    check::TickRaceHunter hunter(hopts);
    for (const core::PressConfig &config : configs)
        hunter.addScenario(
            config.label() + "/" + std::to_string(config.nodes) + "n",
            [&config, &trace, &opts](sim::TieBreak policy,
                                     std::uint64_t seed) {
                return runScenario(config, trace, opts.requests, policy,
                                   seed);
            });
    bool races_clean = hunter.run();
    std::cout << hunter.report();

    std::cout << "\n== press_races: causality check ==\n";
    bool causality_clean = true;
    for (const core::PressConfig &config : configs)
        causality_clean &= runCausality(config, trace, opts.requests);

    std::cout << "\nraces: " << (races_clean ? "clean" : "DIVERGED")
              << ", causality: "
              << (causality_clean ? "clean" : "VIOLATED") << "\n";
    return races_clean && causality_clean ? 0 : 1;
}
