/**
 * @file
 * The PRESS server logic running on one cluster node.
 *
 * This is the paper's Section 2.2 verbatim: a request arriving at its
 * *initial node* is parsed and either serviced locally or forwarded to a
 * *service node* chosen for cache locality and load. Large files
 * (>= 512 KB) and first-touch files are always local; otherwise the
 * least-loaded node caching the file serves it unless it is overloaded
 * while the initial node is not — in which case the initial node serves
 * from disk, creating a replica (the mechanism that spreads popular
 * files). The initial node never caches a file received from a service
 * node, to avoid excessive replication.
 *
 * All protocol/version differences live behind ClusterComm; the server
 * code is identical for TCP/FE, TCP/cLAN and VIA V0-V5.
 */

#ifndef PRESS_CORE_PRESS_SERVER_HPP
#define PRESS_CORE_PRESS_SERVER_HPP

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <unordered_map>
#include <vector>

#include "core/comm.hpp"
#include "core/config.hpp"
#include "core/directories.hpp"
#include "core/dissemination.hpp"
#include "fault/membership.hpp"
#include "osnode/node.hpp"
#include "stats/accumulator.hpp"
#include "stats/histogram.hpp"
#include "storage/file_cache.hpp"
#include "storage/file_set.hpp"
#include "util/random.hpp"

namespace press::core {

/** Invoked when the reply for a client request is ready to transmit;
 *  @p bytes is the full reply size (headers + file). */
using ReplyFn = std::function<void(std::uint64_t bytes)>;

/**
 * Per-request options the open-loop traffic engine threads through the
 * client path. The defaults reproduce the classic request exactly —
 * fresh connection, static content, no session — so closed-loop runs
 * and unshaped open-loop runs are untouched.
 */
struct RequestOptions {
    bool keepAlive = false;  ///< reused connection: parse skips connSetup
    bool dynamic = false;    ///< dynamic-content class: CPU-generated page
    std::uint8_t sessionPhase = 0; ///< bit 0: first request of a session,
                                   ///< bit 1: last request of a session
    std::uint32_t sessionTag = 0;  ///< obs session-span tag (with phase)
};

/** Counters one server instance accumulates, the carriers' included. */
struct ServerStats : DisseminationStats {
    std::uint64_t requests = 0;     ///< client requests accepted
    std::uint64_t replies = 0;      ///< replies handed to the client net
    std::uint64_t localCacheHits = 0;
    std::uint64_t localDiskReads = 0; ///< disk reads as initial node
    std::uint64_t forwardedOut = 0;   ///< requests sent to a service node
    std::uint64_t forwardedIn = 0;    ///< requests serviced for others
    std::uint64_t serviceDiskReads = 0;
    std::uint64_t overloadLocalServes = 0; ///< replica-creating serves
    std::uint64_t cacheInsertions = 0;
    std::uint64_t cacheEvictions = 0;
    std::uint64_t largeFileServes = 0;

    // Sharded cache directory (DirectoryMode::Sharded).
    std::uint64_t dirLookupsOut = 0;   ///< requests routed via an owner
    std::uint64_t dirLookupsIn = 0;    ///< lookups processed as owner
    std::uint64_t dirHomeReturns = 0;  ///< lookups bounced home to serve

    // Fault tolerance (PressConfig::fault non-empty).
    std::uint64_t requestsRetried = 0;  ///< retries after a peer death
    std::uint64_t staleReplies = 0;     ///< post-crash/stale deliveries dropped
    std::uint64_t reAnnouncedFiles = 0; ///< caching re-announcements sent

    // Open-loop traffic engine (PressConfig::traffic).
    std::uint64_t keepAliveRequests = 0; ///< requests on reused connections
    std::uint64_t dynamicRequests = 0;   ///< dynamic-content class served
    std::uint64_t sessionsOpened = 0;    ///< keep-alive sessions accepted
    std::uint64_t sessionsClosed = 0;    ///< sessions whose last reply left
    stats::Accumulator latency;      ///< request latency, ns
    stats::LogHistogram latencyHist; ///< same samples, for percentiles

    void reset() { *this = ServerStats{}; }
};

/** One PRESS node. */
class PressServer
{
  public:
    /**
     * @param sim     simulator
     * @param config  cluster configuration
     * @param id      this node's id
     * @param node    CPU/disk resources
     * @param files   the served file population
     * @param comm    intra-cluster communication endpoint
     * @param seed    per-node randomness (NLB service-node choice)
     */
    PressServer(sim::Simulator &sim, const PressConfig &config, int id,
                osnode::Node &node, const storage::FileSet &files,
                ClusterComm &comm, std::uint64_t seed);

    PressServer(const PressServer &) = delete;
    PressServer &operator=(const PressServer &) = delete;

    /**
     * A client request for @p file arrived at this node (it is the
     * initial node). @p on_reply fires when the reply is ready for the
     * external network. @p opts carries the traffic engine's request
     * shaping (keep-alive, class, session span); the default is the
     * classic request.
     */
    void handleClientRequest(storage::FileId file, ReplyFn on_reply,
                             const RequestOptions &opts = {});

    /** This node's load metric: client connections it is handling plus
     *  forwarded requests it is servicing. */
    int load() const { return _openConnections + _servicingRemote; }

    const ServerStats &stats() const { return _stats; }

    /** Reset counters; latency samples of requests already in flight
     *  are excluded from the new window. */
    void
    resetStats()
    {
        _stats.reset();
        _statsEpoch = _sim.now();
    }

    const storage::FileCache &cache() const { return _cache; }
    const CacheDirectory &cacheDirectory() const { return _dir; }
    const LoadDirectory &loadDirectory() const { return _loadDir; }
    int id() const { return _id; }

    /** Attach the observability hub (null detaches). */
    void setTracer(obs::Tracer *tracer) { _tracer = tracer; }

    // --- fault tolerance (driven by Cluster::setupFaults) -------------

    /**
     * Activate the fault machinery: allocate the membership view and
     * switch on the fault-gated branches. Called once per server before
     * run() when PressConfig::fault is non-empty; without this call the
     * server behaves bit-identically to a build without the subsystem.
     */
    void enableFaultMode();

    /** This node crashes now: pending requests dropped, cache and
     *  directories lost, comm endpoint down. @p epoch is the fault
     *  epoch from FaultPlan::timeline(). */
    void faultCrash(std::uint32_t epoch);

    /** This node returns cold after a crash (or rejoins after leave). */
    void faultRestart(std::uint32_t epoch);

    /** This node leaves gracefully: announce Left now, keep serving;
     *  the cluster schedules the actual teardown after drainDelay. */
    void faultLeave(std::uint32_t epoch);

    /** Teardown half of a graceful leave (after the drain window). */
    void faultLeaveDown();

    /** Failure detector: @p peer has been silent for suspectDelay. */
    void peerSuspected(int peer, std::uint32_t epoch);

    /** Failure detector verdict: @p peer is now @p state (Dead once a
     *  suspicion hardens after confirmDelay, Alive once a restarted
     *  peer is seen again). Applies it, running recovery, and
     *  announces it when it was news. */
    void peerDetected(int peer, std::uint32_t epoch, fault::NodeState state);

    /** A leaver's drain window closed: tear down the connection and
     *  run recovery (the Left rumor itself only stops new work). */
    void peerLeftTeardown(int peer, std::uint32_t epoch);
    void leftHardTeardown(int peer, std::uint32_t epoch);

    /** True while this node is down (crashed or left-and-drained). */
    bool crashed() const { return _crashed; }

    /** Membership view (null until enableFaultMode()). */
    const fault::MembershipView *membership() const { return _view.get(); }

  private:
    struct Pending {
        storage::FileId file;
        ReplyFn onReply;
        sim::Tick start;
        /** Fault mode: peer this request waits on (-1 = none); death of
         *  that peer triggers a retry at this, the initial node. */
        int awaitingNode = -1;
        int retries = 0;
    };

    /** Distribution decision for a parsed request (rules 1-4): serve
     *  locally, forward to a service node, or ask the shard owner. */
    void dispatch(storage::FileId file, std::uint32_t tag);

    /** Shard owner processes a ForwardRoute::Lookup: route the request
     *  to a service node, serve it here, or bounce it home. */
    void handleDirLookup(int from, const ForwardMsg &msg);

    /** Rules 3/4 input: the nodes caching @p file as far as this node
     *  can tell (replicated directory, owned shard or hot set), or
     *  nullopt when only the shard owner knows. */
    std::optional<NodeMask> cachingMask(storage::FileId file) const;

    /** Rule 4's pick among @p mask minus @p exclude and (fault mode)
     *  nodes not believed Alive: least-loaded, or random under NLB;
     *  -1 when nobody is left. */
    int chooseService(NodeMask mask, int exclude);

    /** Rule 4's overload pivot: false when @p candidate is overloaded
     *  while the requester (whose load is @p requester_load) or the
     *  cluster's least-loaded node is not — the requester then serves
     *  and replicates the file. */
    bool worthForwarding(int candidate, int requester_load) const;

    /** Service a request on this node (as initial node). */
    void serveLocal(storage::FileId file, std::uint32_t tag);

    /** Dynamic-content class: generate the page on the CPU, bypassing
     *  dispatch, cache, and disk entirely. */
    void serveDynamic(storage::FileId file, std::uint32_t tag);

    /** Send the reply for a pending request to the client. */
    void reply(std::uint32_t tag, std::uint64_t file_bytes,
               int buffer_owner);

    /** Intra-cluster message upcall. */
    void onMessage(const Incoming &incoming);
    /** Engine upcall: apply @p news to a directory or the view; false
     *  only for membership news the view already knew. */
    bool learned(const News &news);
    void handleForward(int from, const ForwardMsg &msg);
    void handleFileArrival(int from, const FileMsg &msg);

    /** Service a request forwarded by @p home (the initial node). */
    void serviceRemote(int home, storage::FileId file, std::uint32_t tag);

    // --- fault recovery ----------------------------------------------

    /** Merge membership news into the view; when it changed, trace
     *  it, run the comm/directory transition and recovery, and return
     *  true (the news is worth spreading). */
    bool applyMembership(const News &news);

    /** @p peer is confirmed Dead/Left: repair the directory, mark its
     *  load unusable, re-announce shard-handoff files, retry pending
     *  requests that waited on it. */
    void recoverFromDeath(int peer);

    /** @p peer came back Alive: reset its load, re-announce cached
     *  files it should know about (shard handback / directory warm). */
    void recoverFromRejoin(int peer);

    /** Re-dispatch a retried request (scheduled after backoff). */
    void retryNow(std::uint32_t tag);

    /** Record which peer a pending request waits on (no-op unless the
     *  fault machinery is active; -1 clears). */
    void noteAwaiting(std::uint32_t tag, int peer);

    /** Nodes currently believed Alive (fault mode only). */
    NodeMask aliveMask() const;

    /** Shared crash/leave teardown: drop all volatile state (pending
     *  requests, cache, directories, load counters) and take the comm
     *  endpoint down. */
    void teardownVolatile();

    /** The alive set went from @p before to @p after: re-announce
     *  resident files to the nodes that gained their ownership
     *  (capped at FaultPlan::announceCap, in cache snapshot order). */
    void reannounceGained(const NodeMask &before, const NodeMask &after);

    /** Fault mode: true when @p node may be given new work. */
    bool nodeUsable(int node) const
    {
        return !_faultActive || _view->aliveNode(node);
    }

    /** Insert @p file into the cache: bookkeeping, V5 registration,
     *  caching news to the file's owners. */
    void insertIntoCache(storage::FileId file);

    /** Recompute the load metric and announce it. */
    void loadChanged();

    /** CPU cost of replying to a client with @p bytes of data. */
    sim::Tick replyCost(std::uint64_t bytes) const;

    sim::Simulator &_sim;
    const PressConfig &_config;
    const Calibration &_cal;
    int _id;
    osnode::Node &_node;
    const storage::FileSet &_files;
    ClusterComm &_comm;
    util::Rng _rng;

    storage::FileCache _cache;
    CacheDirectory _dir;
    LoadDirectory _loadDir;

    obs::Tracer *_tracer = nullptr;

    bool _faultActive = false; ///< enableFaultMode() was called
    bool _crashed = false;     ///< this node is currently down
    std::unique_ptr<fault::MembershipView> _view;
    /** Highest leave epoch already hard-torn-down, per peer: the rumor
     *  path and the pre-scheduled peerLeftTeardown() both lead here,
     *  and the teardown must run exactly once per departure. */
    std::vector<std::uint32_t> _leftTeardown;

    sim::Tick _statsEpoch = 0;
    int _openConnections = 0;
    int _servicingRemote = 0;
    std::uint32_t _nextTag = 1;
    std::unordered_map<std::uint32_t, Pending> _pending;
    ServerStats _stats;
    DisseminationEngine _dissem;
    std::vector<News> _cachingNews; ///< insertIntoCache() batch scratch
};

} // namespace press::core

#endif // PRESS_CORE_PRESS_SERVER_HPP
