/**
 * @file
 * Cluster assembly and experiment driver: the library's main entry
 * point.
 *
 * PressCluster wires together a full experiment the way the paper's
 * testbed does: N nodes with CPUs and disks, an internal network (Fast
 * Ethernet or cLAN) carrying the chosen intra-cluster protocol, an
 * external Fast Ethernet network toward the clients, and a closed-loop
 * client population replaying a trace as fast as possible (timing
 * information discarded, per Section 3.1). run() warms the caches over
 * the first part of the stream, then measures throughput, message
 * traffic per type, and the CPU-time breakdown.
 */

#ifndef PRESS_CORE_CLUSTER_HPP
#define PRESS_CORE_CLUSTER_HPP

#include <array>
#include <memory>
#include <unordered_map>
#include <vector>

#include "core/comm.hpp"
#include "core/config.hpp"
#include "core/press_server.hpp"
#include "net/fabric.hpp"
#include "osnode/node.hpp"
#include "sim/simulator.hpp"
#include "workload/site_map.hpp"
#include "workload/trace.hpp"

namespace press::check {
class CausalityChecker;
class ViaChecker;
}

namespace press::core {

/** Everything a run measures (the quantities behind Figures 1 and 3-6
 *  and Tables 2 and 4). */
struct ClusterResults {
    std::string configLabel;
    std::string traceName;

    double throughput = 0;      ///< replies per second, measured window
    double avgLatencyMs = 0;    ///< mean request latency
    double p50LatencyMs = 0;    ///< median (log-bucket approximation)
    double p99LatencyMs = 0;    ///< tail  (log-bucket approximation)
    double p999LatencyMs = 0;   ///< extreme tail (log-bucket approx.)
    std::uint64_t requestsMeasured = 0;
    double measuredSeconds = 0;

    CommStats comm; ///< aggregated sender-side traffic (Tables 2/4)

    /** Fractions of *busy* CPU time by osnode::CpuCategory. */
    std::array<double, osnode::NumCpuCategories> cpuShare{};
    double cpuUtilization = 0;  ///< mean across nodes
    double diskUtilization = 0; ///< mean across nodes

    double forwardFraction = 0;   ///< forwarded-out / requests
    double localHitFraction = 0;  ///< initial-node cache hits / requests
    std::uint64_t diskReads = 0;
    std::uint64_t cacheInsertions = 0;

    /** Cache-directory footprint at end of run: the replicated mode
     *  stores every known (file, mask) pair on every node, the sharded
     *  mode one shard plus a bounded hot set per node. */
    std::uint64_t dirEntriesMaxPerNode = 0;
    std::uint64_t dirEntriesTotal = 0;

    /** Gossip/tree dissemination totals (0 for the paper's kinds). */
    std::uint64_t gossipRounds = 0;
    std::uint64_t gossipRumorSends = 0;
    std::uint64_t loadWaves = 0;
    std::uint64_t cachingWaves = 0;
    std::uint64_t dirLookups = 0;     ///< shard-owner lookups answered
    std::uint64_t dirHomeReturns = 0; ///< lookups bounced home

    // Fault tolerance (populated when PressConfig::fault is non-empty).

    /** Width of one replyBuckets slot of simulated time. */
    static constexpr sim::Tick ReplyBucket = 100 * util::MS;

    std::uint64_t requestsRetried = 0;  ///< server-side retries
    std::uint64_t clientRetries = 0;    ///< client re-issues (dead node)
    std::uint64_t requestsLost = 0;     ///< in flight, never answered
    std::uint64_t staleDrops = 0;       ///< stale deliveries dropped
    std::uint64_t membershipSends = 0;  ///< MembershipMsg rumors sent
    std::uint64_t reAnnouncedFiles = 0; ///< recovery caching announcements
    std::uint64_t droppedSends = 0;     ///< sends suppressed (peer down)
    std::uint64_t rxErrors = 0;         ///< error/flushed completions

    /** Worst survivor lag marking a dead/left node down, ms. */
    double viewConvergeMs = 0;

    /** Valid replies per ReplyBucket of measured time — the fault
     *  bench derives throughput-dip depth and recovery time from
     *  these. Empty in healthy runs. */
    std::vector<std::uint64_t> replyBuckets;

    // Open-loop traffic engine (ClientMode::OpenLoop; zero otherwise).

    std::uint64_t offeredRequests = 0; ///< engine arrivals while measuring
    double offeredRate = 0;            ///< offeredRequests / measuredSeconds
    std::uint64_t droppedRequests = 0; ///< arrivals shed at the client cap
    std::uint32_t inFlightPeak = 0;    ///< peak client in-flight depth
    std::uint32_t inFlightEnd = 0;     ///< still unanswered at drain
    sim::Tick measureStartTick = 0;    ///< sim time of the warm-up barrier
                                       ///< (curve time 0; trace ticks are
                                       ///< absolute sim time)
    std::uint64_t sessionsClosed = 0;  ///< keep-alive sessions completed
    std::uint64_t keepAliveRequests = 0; ///< requests on reused connections
    std::uint64_t dynamicRequests = 0;   ///< dynamic-content class served
    std::uint64_t overloadServes = 0;  ///< replica-creating local serves
                                       ///< (always filled; the T = 80
                                       ///< pivot evidence for X11)

    /** The run's trace snapshot (null unless config.trace was set).
     *  Shared so results stay cheap to copy through sweep runners. */
    std::shared_ptr<obs::TraceData> trace;

    /** Intra-cluster share of busy CPU time (the Figure 1 metric). */
    double intraCommShare() const;
};

/** A ready-to-run PRESS cluster. */
class PressCluster
{
  public:
    /**
     * Build the full system for @p config serving @p trace. The trace
     * must outlive the cluster.
     */
    PressCluster(const PressConfig &config, const workload::Trace &trace);

    ~PressCluster();

    PressCluster(const PressCluster &) = delete;
    PressCluster &operator=(const PressCluster &) = delete;

    /**
     * Replay the trace to completion and return measurements.
     *
     * @param max_requests  truncate the stream (0 = whole trace);
     *                      useful for quick runs — the paper-fidelity
     *                      benches replay everything.
     */
    ClusterResults run(std::uint64_t max_requests = 0);

    /**
     * Write a gem5-style end-of-run statistics dump: per-node CPU
     * category breakdowns, disk and NIC utilizations, per-server
     * request counters and comm traffic. Call after run().
     */
    void dumpStats(std::ostream &os) const;

    /** Access for tests and examples. @{ */
    sim::Simulator &simulator() { return _sim; }
    PressServer &server(int i) { return *_servers.at(i); }
    ClusterComm &comm(int i) { return *_comms.at(i); }
    const PressConfig &config() const { return _config; }
    net::Fabric &internalFabric() { return *_internal; }
    net::Fabric &externalFabric() { return *_external; }
    const workload::SiteMap &siteMap() const { return _site; }
    /** @} */

    /** The cluster-wide VIA invariant checker; null unless the config
     *  enables checking and the protocol is VIA/cLAN. */
    const check::ViaChecker *viaChecker() const { return _viaChecker.get(); }

    /** The causality/lookahead checker; null unless config.causality
     *  enables it. */
    const check::CausalityChecker *causalityChecker() const
    {
        return _causality.get();
    }

    /** The scheduling domain of the client population (and the LARD
     *  front-end); node i's domain is i. */
    sim::Domain clientDomain() const { return _config.nodes; }

    /** The observability hub; null unless config.trace is set. */
    obs::Tracer *tracer() { return _tracer.get(); }

    /** HTTP requests that failed to parse or resolve (0 for generated
     *  clients; exposed for fault-injection tests). */
    std::uint64_t badRequests() const { return _badRequests; }

  private:
    /**
     * One client request in flight, from draw to completion. Closed-
     * loop slot c owns record c for the whole run and re-arms it on
     * every reply; open-loop arrivals (session requests included) take
     * a free record and hand it back when their reply lands.
     */
    struct ClientRequest {
        storage::FileId file = storage::InvalidFile;
        int node = -1;       ///< target back-end (LARD: the front-end's pick)
        int clientPort = 0;  ///< external port the request left from
        RequestOptions opts; ///< traffic-engine shaping (default: classic)
        bool keepAliveHeader = false; ///< parsed from the GET, echoed back
        bool inFlight = false;
        /** Bumped by a client retry, so a reply to a superseded attempt
         *  is dropped; never bumped in healthy runs. */
        std::uint32_t generation = 0;
        int slot = -1; ///< owning closed-loop slot, or -1 (open loop)
    };

    /** Closed-loop slot @p id: draw its next request and issue it, or
     *  retire the slot (feed exhausted, open-loop warm-up over). */
    void issueNext(std::uint32_t id);
    /** Draw the next file from the feed; open-loop arrivals also take
     *  the popularity redraw and the request class. False once the
     *  feed is exhausted. */
    bool draw(ClientRequest &req);
    /** Give @p req an open-loop record; returns its id. */
    std::uint32_t admit(const ClientRequest &req);
    /** Put record @p id on the external wire toward its node (or the
     *  LARD front-end). */
    void issue(std::uint32_t id);
    /** The GET landed on external port @p port: parse and resolve it,
     *  then hand it to the front-end or the server. */
    void ingress(std::uint32_t id, std::uint32_t gen, int port,
                 const net::Payload &wire);
    void serve(std::uint32_t id, std::uint32_t gen, int node);
    /** Build the HTTP response and send it back to the client. */
    void egress(std::uint32_t id, std::uint32_t gen, int node);
    /** The reply reached the client: re-arm the closed-loop slot, or
     *  retire the open-loop record and advance its session. */
    void complete(std::uint32_t id, std::uint32_t gen);
    void scheduleArrival();
    void resetForMeasurement();

    // --- open-loop traffic engine ------------------------------------

    /** One engine arrival: draw, apply the drop cap, start a session
     *  or issue. */
    void openArrival();
    /** A session request's reply landed: finish or schedule the next
     *  request after think time. */
    void sessionAdvance(std::uint32_t sid);
    void sessionNext(std::uint32_t sid);
    /** The node a fresh connection lands on (uniform + fault probe). */
    int pickClientNode();
    /** The cached per-file HTTP GET payload (built on first use). */
    net::Payload requestWire(storage::FileId file);
    /** Map trace popularity ranks to file ids for the Zipf redraw. */
    void buildPopularityRanking();

    // --- fault tolerance ---------------------------------------------

    /** Pre-schedule every FaultPlan event (per-domain, before run()):
     *  crash/restart/leave on the target node, detector suspicion and
     *  confirmation on every survivor, dead-node marks and stuck-slot
     *  scans on the client domain. */
    void setupFaults();
    void clientMarkDead(int node);
    void clientMarkAlive(int node);
    /** Re-aim requests stuck on @p node (it died with them). */
    void clientScanDead(int node);

    PressConfig _config;
    const workload::Trace &_trace;
    sim::Simulator _sim;
    std::unique_ptr<net::Fabric> _internal;
    std::unique_ptr<net::Fabric> _external;
    std::unique_ptr<check::ViaChecker> _viaChecker;
    std::unique_ptr<check::CausalityChecker> _causality;
    std::unique_ptr<obs::Tracer> _tracer;
    std::vector<std::unique_ptr<obs::ResourceProbe>> _probes;
    std::vector<std::unique_ptr<osnode::Node>> _nodes;
    std::vector<std::unique_ptr<ClusterComm>> _comms;
    std::vector<std::unique_ptr<PressServer>> _servers;
    std::vector<ClientRequest> _requests; ///< closed-loop slots first
    std::vector<std::uint32_t> _freeRequests; ///< retired open records
    std::unique_ptr<workload::RequestFeed> _feed;
    util::Rng _clientRng;
    workload::SiteMap _site;
    std::vector<net::Payload> _requestWire; ///< per-file GET, lazily built
    std::vector<std::uint32_t> _requestWireBytes;
    std::uint64_t _badRequests = 0;

    // LARD front-end state (Distribution::FrontEndLard only).
    std::unique_ptr<sim::FifoResource> _feCpu;
    std::vector<int> _feLoad; ///< per-back-end active connections
    std::unordered_map<storage::FileId, std::vector<int>> _feSets;

    /** The external port the front-end listens on (after the servers'
     *  ports 0..N-1 and the client ports N..2N-1). */
    int frontEndPort() const { return 2 * _config.nodes; }
    /** Route record @p id to a back-end and hand the connection off. */
    void frontEndRoute(std::uint32_t id, std::uint32_t gen);
    int lardPick(storage::FileId file);

    // Fault-mode client state (all untouched when the plan is empty).
    bool _faultEnabled = false;
    std::vector<char> _clientAlive; ///< client view of node liveness
    std::uint64_t _clientRetries = 0;
    std::vector<std::uint64_t> _replyBuckets;

    // Open-loop traffic engine state (ClientMode::OpenLoop only; all
    // of it lives on the client domain).
    struct OpenSession {
        int node = 0;             ///< back-end the connection sticks to
        std::uint32_t length = 1; ///< requests this session will issue
        std::uint32_t done = 0;   ///< replies received so far
    };
    std::unique_ptr<traffic::ArrivalEngine> _arrivals;
    std::unique_ptr<traffic::PopulationModel> _population;
    std::unique_ptr<traffic::SessionModel> _sessionModel;
    std::vector<storage::FileId> _rankToFile; ///< popularity rank -> file
    std::unordered_map<std::uint32_t, OpenSession> _sessions;
    std::uint32_t _sessionSeq = 0; ///< session ids handed out
    std::uint64_t _openSeq = 0;    ///< engine requests issued (counter
                                   ///< for class/popularity draws)
    std::uint64_t _offered = 0;    ///< engine arrivals (incl. dropped)
    std::uint64_t _dropped = 0;    ///< arrivals shed at maxInFlight
    std::uint32_t _inFlight = 0;   ///< open-loop requests in flight
    std::uint32_t _inFlightPeak = 0;

    std::uint64_t _warmupBoundary = 0;
    bool _measuring = false;
    sim::Tick _measureStart = 0;
    sim::Tick _lastReply = 0;
};

} // namespace press::core

#endif // PRESS_CORE_CLUSTER_HPP
