/**
 * @file
 * PRESS server and experiment configuration.
 */

#ifndef PRESS_CORE_CONFIG_HPP
#define PRESS_CORE_CONFIG_HPP

#include <cstdint>
#include <string>
#include <vector>

#include "core/calibration.hpp"
#include "fault/fault_plan.hpp"
#include "sim/event_queue.hpp"
#include "traffic/traffic_model.hpp"
#include "util/units.hpp"

namespace press::core {

/** Intra-cluster protocol/network combination (Section 3.2). */
enum class Protocol {
    TcpFastEthernet, ///< TCP over switched Fast Ethernet ("TCP/FE")
    TcpClan,         ///< the complete TCP stack over cLAN ("TCP/cLAN")
    ViaClan,         ///< VIA over cLAN ("VIA/cLAN")
};

const char *protocolName(Protocol p);

/**
 * Server version: the extent to which remote memory writes and zero-copy
 * are used (Table 3). Only meaningful with Protocol::ViaClan.
 */
enum class Version {
    V0, ///< regular messages for everything
    V1, ///< + RMW flow control
    V2, ///< + RMW forward and caching messages
    V3, ///< + RMW file transfers (two messages per file)
    V4, ///< + zero-copy receive (reply straight from the comm buffer)
    V5, ///< + zero-copy transmit (cache pages registered with VIA)
};

const char *versionName(Version v);

/**
 * How requests are distributed across the cluster. The paper's server
 * is the locality-conscious PRESS; the other modes are the comparison
 * points its introduction and Section 2.2 discuss.
 */
enum class Distribution {
    /** PRESS: content-aware, locality-conscious distribution with
     *  intra-cluster forwarding (the paper's system). */
    LocalityConscious,

    /** Content-oblivious cluster: every node serves what it receives
     *  from its own cache/disk; no intra-cluster communication. */
    LocalOnly,

    /**
     * LARD-style front-end (Pai et al., ASPLOS'98): a content-aware
     * front-end routes each request to a back-end that caches the file
     * (building replica sets under load), and back-ends reply straight
     * to clients — efficient but non-portable (TCP hand-off). PRESS's
     * main published comparator: its 8-node throughput is within 7% of
     * scalable LARD.
     */
    FrontEndLard,
};

const char *distributionName(Distribution d);

/**
 * VIA protocol-invariant checking (check::ViaChecker). Off costs
 * nothing; Abort panics with a structured report on the first violation
 * (the CI mode); Record accumulates reports for inspection.
 */
enum class ViaCheck {
    Off,
    Abort,
    Record,
};

const char *viaCheckName(ViaCheck c);

/**
 * Default checking level from the PRESS_CHECK environment variable:
 * unset/"0"/"off" = Off, "record"/"report" = Record, anything else
 * (e.g. "1") = Abort. Lets scripts/check.sh run every existing test and
 * bench fully checked without touching their sources.
 */
ViaCheck viaCheckDefault();

/**
 * Default causality/lookahead checking level (check::CausalityChecker)
 * from the PRESS_CAUSALITY environment variable, with the same grammar
 * as PRESS_CHECK: unset/"0"/"off" = Off, "record"/"report" = Record,
 * anything else = Abort.
 */
ViaCheck causalityDefault();

/**
 * Default tracing flag from the PRESS_TRACE environment variable:
 * unset/"0"/"off" = disabled, anything else = enabled. Lets
 * scripts/check.sh trace any existing bench without touching its
 * sources.
 */
bool traceDefault();

/** Load-information dissemination strategy (Section 3.3, extended with
 *  the scalable gossip and tree kinds — see docs/simulation.md
 *  "Scalable dissemination"). */
struct Dissemination {
    enum class Kind {
        PiggyBack, ///< load carried in every intra-cluster message ("PB")
        Broadcast, ///< explicit broadcasts on threshold ("L1"/"L4"/"L16")
        None,      ///< no load information at all ("NLB")
        Gossip,    ///< rumors pushed to fanout-k peer samples per round
        Tree,      ///< static k-ary multicast tree per source
    };
    Kind kind = Kind::PiggyBack;
    int threshold = 1;     ///< connections delta triggering an update
    bool useRmw = false;   ///< broadcast loads with RMW instead of sends

    /** Gossip/Tree fanout k: peers sampled per gossip round, tree
     *  arity. */
    int fanout = 4;

    /** Gossip round period / minimum gap between tree load waves. The
     *  coalescing this buys is where the O(N^2) -> O(N log N) win
     *  comes from: L1 broadcasts on every load change, these kinds
     *  announce at most once per interval. */
    sim::Tick interval = 20 * util::MS;

    static Dissemination piggyBack() { return {Kind::PiggyBack, 1, false}; }
    static Dissemination
    broadcast(int threshold, bool rmw = false)
    {
        return {Kind::Broadcast, threshold, rmw};
    }
    static Dissemination none() { return {Kind::None, 1, false}; }
    static Dissemination
    gossip(int fanout = 4, sim::Tick interval = 20 * util::MS)
    {
        Dissemination d{Kind::Gossip, 1, false};
        d.fanout = fanout;
        d.interval = interval;
        return d;
    }
    static Dissemination
    tree(int fanout = 4, sim::Tick interval = 20 * util::MS)
    {
        Dissemination d{Kind::Tree, 1, false};
        d.fanout = fanout;
        d.interval = interval;
        return d;
    }

    std::string label() const;
};

/** Gossip rounds each holder re-pushes a fresh rumor. Every due rumor
 *  goes out every round — packed into at most one Load plus one
 *  Caching digest per sampled peer, so the wire carries at most
 *  2 * fanout messages per node per interval however many rumors are
 *  pending. */
inline constexpr int GossipRepeats = 2;

/** LARD front-end thresholds (Pai et al.): a back-end above LardHigh
 *  triggers replication when another sits below LardLow. */
inline constexpr int LardLow = 25;
inline constexpr int LardHigh = 65;

/** CPU cost of one front-end routing decision + TCP hand-off. */
inline constexpr sim::Tick LardRouteCost = 40 * util::US;

/** Requests for files at least this large are always served by the
 *  initial node (Section 2.2). */
inline constexpr std::uint64_t LargeFileCutoff = 512 * util::KB;

/**
 * Cache-directory organisation. Replicated is the paper's design:
 * every node tracks every cached file (O(F) memory per node, updates
 * broadcast to N-1 nodes). Sharded hashes each file to one of
 * `dirShards` shards, each owned by one node: updates are unicast to
 * the owner, lookups that miss the local shard and hot-set are
 * resolved through the owner (ForwardMsg Lookup/Serve/Home routes),
 * cutting per-node directory memory to O(F / min(S, N)) plus a
 * bounded hot-set.
 */
enum class DirectoryMode {
    Replicated,
    Sharded,
};

const char *directoryModeName(DirectoryMode m);

/** Everything needed to instantiate a PRESS cluster. */
struct PressConfig {
    int nodes = 8;
    Protocol protocol = Protocol::ViaClan;
    Version version = Version::V0;
    Distribution distribution = Distribution::LocalityConscious;
    Dissemination dissemination = Dissemination::piggyBack();

    /** Cache-directory organisation (LocalityConscious only). */
    DirectoryMode directoryMode = DirectoryMode::Replicated;

    /** Shard count S for DirectoryMode::Sharded; shard s is owned by
     *  node floor(s * nodes / S) % nodes. */
    int dirShards = 16;

    /** Sharded mode: per-node hot-set capacity (LRU entries caching
     *  remote lookup results). */
    std::uint32_t dirHotSet = 1024;

    /**
     * Per-node file-cache budget. The paper's nodes have 512 MB of
     * RAM and PRESS caches aggressively; Table 2's near-zero steady-
     * state caching traffic implies almost no churn, which 400 MB per
     * node reproduces. (The *analytical model* instead uses C = 128 MB
     * per Table 5 — see model::ModelParams.)
     */
    std::uint64_t cacheBytes = 400 * util::MB;

    /** Overload threshold T on open connections (Section 2.2). */
    int overloadThreshold = 80;

    /**
     * Closed-loop client connections per server node. 88 puts node
     * loads just above the overload threshold T = 80, the regime whose
     * replication/forwarding balance matches the paper's Table 2
     * (forwarding fraction ~0.3) and Figures 3/5 gains.
     */
    int clientsPerNode = 88;

    /** Client behaviour. The paper's methodology is closed-loop
     *  ("clients issue new requests as soon as possible"); the
     *  open-loop mode offers a fixed Poisson arrival rate instead,
     *  for latency-under-load studies. */
    enum class ClientMode { ClosedLoop, OpenLoop };
    ClientMode clientMode = ClientMode::ClosedLoop;

    /** Total offered load in requests/second (OpenLoop only); used
     *  when traffic.curve is empty. The default — and every other
     *  arrival-rate constant — lives in src/traffic (lint-enforced). */
    double openLoopRate = traffic::DefaultOpenLoopRate;

    /**
     * Open-loop traffic shaping: offered-load curve, popularity drift,
     * keep-alive sessions, request-class mix (OpenLoop only). The
     * default TrafficModel is unshaped, reproducing the single-knob
     * Poisson stream byte-for-byte.
     */
    traffic::TrafficModel traffic;

    /** Flow-control window: receive buffers per channel per direction,
     *  and the batch size for returning credits. */
    int controlWindow = 8;
    int controlCreditBatch = 4;
    int fileWindow = 8;
    int fileCreditBatch = 4;

    /**
     * Cache warm-up, as a multiple of the measured request count: the
     * stream is replayed (wrapping around the trace) for
     * warmupFraction * measured requests before measurement starts.
     * The default of 1.0 — one full extra pass — approximates the
     * paper's 5-minute warm-up.
     */
    double warmupFraction = 1.0;

    /**
     * Per-node relative CPU speeds (empty = homogeneous cluster). A
     * heterogeneous cluster is where load-aware distribution earns its
     * keep; see the heterogeneity ablation bench.
     */
    std::vector<double> cpuSpeeds;

    /** Seed for client node-selection randomness. */
    std::uint64_t seed = 7;

    /**
     * Equal-tick tie-break policy of the event kernel. Fifo is the
     * determinism contract (bit-identical runs); SeededPermute is the
     * tick-race detector's diagnostic mode — it permutes equal-tick
     * firing order across scheduling domains under tieBreakSeed (see
     * check::TickRaceHunter).
     */
    sim::TieBreak tieBreak = sim::TieBreak::Fifo;
    std::uint64_t tieBreakSeed = 0;

    /**
     * Causality/lookahead checking (check::CausalityChecker): verifies
     * every cross-domain scheduling edge carries at least the fabric
     * wire latency — the feasibility invariant for parallelizing the
     * kernel. Defaults to the PRESS_CAUSALITY environment variable.
     */
    ViaCheck causality = causalityDefault();

    /** VIA invariant checking (Protocol::ViaClan only). Defaults to the
     *  PRESS_CHECK environment variable; see viaCheckDefault(). */
    ViaCheck viaCheck = viaCheckDefault();

    /** Deterministic tracing & metrics (src/obs). Off costs nothing:
     *  no Tracer is created and every instrumentation site is a single
     *  null test. Defaults to the PRESS_TRACE environment variable. */
    bool trace = traceDefault();

    /** Per-node trace ring capacity (events retained; older events are
     *  overwritten, aggregates stay complete). ~24 bytes per event. */
    std::uint32_t traceEventsPerNode = 16384;

    /**
     * Deterministic fault schedule (crash/restart/leave/join, see
     * fault/fault_plan.hpp). Empty — the default — means a healthy run
     * with zero behavioral difference from builds without the fault
     * subsystem: every fault branch in the cluster is gated on the
     * plan being non-empty.
     */
    fault::FaultPlan fault;

    Calibration calibration = Calibration::defaults();

    /** Short label like "VIA/cLAN-V5" for tables. */
    std::string label() const;
};

} // namespace press::core

#endif // PRESS_CORE_CONFIG_HPP
