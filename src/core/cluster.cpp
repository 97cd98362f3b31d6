#include "cluster.hpp"

#include <algorithm>
#include <ostream>

#include "check/causality_checker.hpp"
#include "check/via_checker.hpp"
#include "http/message.hpp"
#include "http/mime.hpp"
#include "http/url.hpp"
#include "util/logging.hpp"
#include "util/random.hpp"

namespace press::core {

double
ClusterResults::intraCommShare() const
{
    return cpuShare[osnode::CatIntraComm];
}

void
PressCluster::dumpStats(std::ostream &os) const
{
    os << "---------- " << _config.label() << " on " << _trace.name
       << " ----------\n";
    os << "sim.now_s " << sim::nsToSeconds(_sim.now()) << "\n";
    os << "sim.events " << _sim.eventsExecuted() << "\n";
    os << "clients.bad_requests " << _badRequests << "\n";
    // Open-loop arrivals do not back off, so overload shows up here —
    // offered vs. in-flight growth vs. shed arrivals — rather than in
    // a sagging request count. Gated so the paper's closed-loop dumps
    // stay byte-identical.
    if (_config.clientMode == PressConfig::ClientMode::OpenLoop) {
        os << "clients.offered " << _offered << "\n";
        os << "clients.dropped " << _dropped << "\n";
        os << "clients.inflight_peak " << _inFlightPeak << "\n";
        os << "clients.inflight_end " << _inFlight << "\n";
        if (_config.traffic.session.enabled)
            os << "clients.sessions " << _sessionSeq << "\n";
    }
    if (_viaChecker) {
        os << "check.mode "
           << (_viaChecker->mode() == check::CheckMode::Record ? "record"
                                                               : "abort")
           << "\n";
        os << "check.checks " << _viaChecker->checksPerformed() << "\n";
        os << "check.violations " << _viaChecker->totalViolations()
           << "\n";
    }
    if (_causality) {
        os << "causality.mode "
           << (_causality->mode() == check::CheckMode::Record ? "record"
                                                              : "abort")
           << "\n";
        os << "causality.checks " << _causality->checksPerformed()
           << "\n";
        os << "causality.cross_edges " << _causality->crossDomainEdges()
           << "\n";
        os << "causality.violations " << _causality->totalViolations()
           << "\n";
    }
    for (int i = 0; i < _config.nodes; ++i) {
        const auto &node = *_nodes[i];
        std::string p = "node" + std::to_string(i) + ".";
        os << p << "cpu.util " << node.cpu().utilization() << "\n";
        for (int c = 0; c < osnode::NumCpuCategories; ++c)
            os << p << "cpu.busy_s." << osnode::cpuCategoryName(c)
               << " " << sim::nsToSeconds(node.cpu().busyTime(c))
               << "\n";
        os << p << "cpu.jobs " << node.cpu().completed() << "\n";
        os << p << "cpu.max_depth " << node.cpu().maxDepth() << "\n";
        os << p << "disk.util " << node.disk().utilization() << "\n";
        os << p << "disk.reads " << node.disk().reads() << "\n";
        os << p << "net.int.tx_util "
           << _internal->txUtilization(i) << "\n";
        os << p << "net.int.msgs_tx "
           << _internal->stats(i).messagesSent << "\n";
        os << p << "net.int.bytes_tx "
           << _internal->stats(i).bytesSent << "\n";
        os << p << "net.ext.tx_util "
           << _external->txUtilization(i) << "\n";

        const auto &s = _servers[i]->stats();
        os << p << "press.requests " << s.requests << "\n";
        os << p << "press.replies " << s.replies << "\n";
        os << p << "press.local_hits " << s.localCacheHits << "\n";
        os << p << "press.forwarded_out " << s.forwardedOut << "\n";
        os << p << "press.forwarded_in " << s.forwardedIn << "\n";
        os << p << "press.disk_reads "
           << s.localDiskReads + s.serviceDiskReads << "\n";
        os << p << "press.cache.files "
           << _servers[i]->cache().files() << "\n";
        os << p << "press.cache.used_mb "
           << _servers[i]->cache().usedBytes() / 1e6 << "\n";
        os << p << "press.latency.p99_ms "
           << s.latencyHist.quantile(0.99) / 1e6 << "\n";
        os << p << "press.latency.p999_ms "
           << s.latencyHist.quantile(0.999) / 1e6 << "\n";
        // New-subsystem lines appear only for configs that use them, so
        // dumps of the paper's configurations stay byte-identical.
        if (_config.directoryMode == DirectoryMode::Sharded ||
            _config.dissemination.kind == Dissemination::Kind::Gossip ||
            _config.dissemination.kind == Dissemination::Kind::Tree) {
            os << p << "press.dir.entries "
               << _servers[i]->cacheDirectory().entries() << "\n";
            os << p << "press.dir.lookups_in " << s.dirLookupsIn << "\n";
            os << p << "press.dir.home_returns " << s.dirHomeReturns
               << "\n";
            os << p << "press.gossip.rounds " << s.gossipRounds << "\n";
            os << p << "press.gossip.rumor_sends " << s.gossipRumorSends
               << "\n";
            os << p << "press.tree.load_waves " << s.loadWaves << "\n";
            os << p << "press.tree.caching_waves " << s.cachingWaves
               << "\n";
        }
        if (_config.traffic.shaped()) {
            os << p << "press.overload_serves " << s.overloadLocalServes
               << "\n";
            os << p << "press.keepalive " << s.keepAliveRequests << "\n";
            os << p << "press.dynamic " << s.dynamicRequests << "\n";
            os << p << "press.sessions_opened " << s.sessionsOpened
               << "\n";
            os << p << "press.sessions_closed " << s.sessionsClosed
               << "\n";
        }
        if (!_config.fault.empty()) {
            os << p << "press.fault.retried " << s.requestsRetried
               << "\n";
            os << p << "press.fault.stale_drops " << s.staleReplies
               << "\n";
            os << p << "press.fault.membership_sends "
               << s.membershipSends << "\n";
            os << p << "press.fault.reannounced " << s.reAnnouncedFiles
               << "\n";
            os << p << "comm.dropped_sends " << _comms[i]->droppedSends()
               << "\n";
            os << p << "comm.rx_errors " << _comms[i]->rxErrors() << "\n";
        }
        const auto &tx = _comms[i]->txStats();
        for (int k = 0; k < static_cast<int>(MsgKind::NumKinds); ++k)
            os << p << "comm.tx."
               << msgKindName(static_cast<MsgKind>(k)) << ".msgs "
               << tx.byKind[k].msgs << "\n";
    }
}

PressCluster::PressCluster(const PressConfig &config,
                           const workload::Trace &trace)
    : _config(config),
      _trace(trace),
      _clientRng(config.seed),
      _site(trace.files, config.seed + 0x5173)
{
    _requestWire.resize(trace.files.count());
    _requestWireBytes.resize(trace.files.count(), 0);
    PRESS_ASSERT(_config.nodes >= 1, "cluster needs nodes");

    // Equal-tick tie-break policy, set before anything can schedule.
    // Fifo (the default) keeps runs bit-identical to every previous
    // kernel; SeededPermute is the tick-race detector's diagnostic
    // ordering (check::TickRaceHunter).
    _sim.setTieBreak(_config.tieBreak, _config.tieBreakSeed);

    // The external network is always switched Fast Ethernet (clients
    // talk TCP/FE in every paper configuration); ports 0..N-1 are the
    // servers, ports N..2N-1 the client side of each switch path. One
    // extra external port hosts the LARD front-end when configured.
    _external = std::make_unique<net::Fabric>(
        _sim, net::FabricConfig::fastEthernet(), frontEndPort() + 1);

    // Scheduling domains: node i's events live in domain i, the whole
    // client population (and the LARD front-end, which sits on the
    // client side of the external switch) in domain N. The external
    // fabric's server ports keep their default port-index domains; its
    // client-side ports all collapse onto the client domain.
    for (int p = _config.nodes; p < _external->ports(); ++p)
        _external->setPortDomain(p, clientDomain());

    if (_config.distribution == Distribution::FrontEndLard) {
        _feCpu = std::make_unique<sim::FifoResource>(_sim, "lard.fe");
        _feLoad.assign(_config.nodes, 0);
    }

    // Nodes.
    PRESS_ASSERT(_config.cpuSpeeds.empty() ||
                     _config.cpuSpeeds.size() ==
                         static_cast<std::size_t>(_config.nodes),
                 "cpuSpeeds must be empty or have one entry per node");
    // Per-node construction runs under that node's domain so any
    // setup-time scheduling is attributed to its owner; the client
    // domain is restored for run()'s initial request wave.
    for (int i = 0; i < _config.nodes; ++i) {
        _sim.setCurrentDomain(i);
        _nodes.push_back(std::make_unique<osnode::Node>(_sim, i));
        if (!_config.cpuSpeeds.empty())
            _nodes.back()->cpu().setSpeed(_config.cpuSpeeds[i]);
    }
    _sim.setCurrentDomain(sim::NoDomain);

    // Intra-cluster communication: the internal network, the VIA
    // checker and one linked endpoint per node.
    CommMesh mesh = buildCommMesh(_sim, _config, _nodes);
    _internal = std::move(mesh.fabric);
    _viaChecker = std::move(mesh.checker);
    _comms = std::move(mesh.comms);

    // Servers.
    for (int i = 0; i < _config.nodes; ++i) {
        _sim.setCurrentDomain(i);
        _servers.push_back(std::make_unique<PressServer>(
            _sim, _config, i, *_nodes[i], _trace.files, *_comms[i],
            _config.seed * 1315423911u + i));
    }
    _sim.setCurrentDomain(sim::NoDomain);

    // Observability: one tracer for the whole cluster, probes on every
    // CPU and disk, and the comm/server instrumentation pointed at it.
    // When tracing is off nothing is created and every site stays a
    // null test.
    if (_config.trace) {
        std::vector<std::string> categories;
        for (int c = 0; c < osnode::NumCpuCategories; ++c)
            categories.emplace_back(osnode::cpuCategoryName(c));
        _tracer = std::make_unique<obs::Tracer>(
            _sim, _config.nodes, _config.traceEventsPerNode,
            std::move(categories));
        for (int i = 0; i < _config.nodes; ++i) {
            _probes.push_back(std::make_unique<obs::ResourceProbe>(
                *_tracer, i, obs::ResourceProbe::Kind::Cpu));
            _nodes[i]->cpu().setListener(_probes.back().get());
            _probes.push_back(std::make_unique<obs::ResourceProbe>(
                *_tracer, i, obs::ResourceProbe::Kind::Disk));
            _nodes[i]->disk().resource().setListener(_probes.back().get());
            _comms[i]->setTracer(_tracer.get());
            _servers[i]->setTracer(_tracer.get());
        }
    }

    // Causality/lookahead checking: every cross-domain scheduling edge
    // must carry at least the wire latency of the fabric the causality
    // physically travels on — server<->server over the internal fabric,
    // anything touching the client side over the external Fast
    // Ethernet. This is the invariant a conservative parallel kernel's
    // lookahead window would be built on.
    if (_config.causality != ViaCheck::Off) {
        _causality = std::make_unique<check::CausalityChecker>(
            _sim, _config.causality == ViaCheck::Record
                      ? check::CheckMode::Record
                      : check::CheckMode::Abort);
        const sim::Tick internal_wire = _internal->config().wireLatency;
        const sim::Tick external_wire = _external->config().wireLatency;
        for (int f = 0; f <= _config.nodes; ++f)
            for (int t = 0; t <= _config.nodes; ++t) {
                if (f == t)
                    continue;
                bool internal_link =
                    f < _config.nodes && t < _config.nodes;
                _causality->setBound(
                    f, t, internal_link ? internal_wire : external_wire);
            }
        _causality->watchFabric(*_internal);
        _causality->watchFabric(*_external);
        _causality->attach();
    }

    // Closed-loop client slots: slot c owns request record c.
    _requests.resize(static_cast<std::size_t>(_config.clientsPerNode) *
                     static_cast<std::size_t>(_config.nodes));
    for (std::size_t c = 0; c < _requests.size(); ++c)
        _requests[c].slot = static_cast<int>(c);
}

PressCluster::~PressCluster() = default;

// Session spans live above the request-tag id space: a session
// request's sessionTag is this bit plus its session id.
namespace {
constexpr std::uint32_t SessionTagBit = 0x800000u;
} // namespace

void
PressCluster::scheduleArrival()
{
    if (_feed->exhausted())
        return;
    // Arrival k is a pure function of (seed, curve, k): counter-based
    // splitmix64 -> exponential mass -> integrated-rate inversion. The
    // schedule cannot shift whatever else consumes RNG state, which
    // keeps open-loop runs byte-identical across reruns and --jobs.
    sim::Tick at = _measureStart + _arrivals->next();
    sim::Tick now = _sim.now();
    _sim.schedule(at > now ? at - now : 0, [this]() {
        openArrival();
        scheduleArrival();
    });
}

bool
PressCluster::draw(ClientRequest &req)
{
    req.file = _feed->next();
    if (req.file == storage::InvalidFile)
        return false;
    if (req.slot >= 0)
        return true; // closed loop replays the trace as is
    // Open-loop draws are pure functions of the arrival counter k, so
    // a dropped arrival's draws shift nothing.
    std::uint64_t k = _openSeq++;
    ++_offered;
    if (_population)
        req.file = _rankToFile[_population->sampleRank(
            _sim.now() - _measureStart, k)];
    req.opts.dynamic =
        _config.traffic.dynamicFraction > 0 &&
        traffic::unitFromHash(util::mix64(
            _config.seed ^ 0xC1A55F1EDull ^ (k + 1))) <
            _config.traffic.dynamicFraction;
    return true;
}

void
PressCluster::openArrival()
{
    ClientRequest req;
    if (!draw(req))
        return;
    std::uint32_t cap = _config.traffic.maxInFlight;
    if (cap != 0 && _inFlight >= cap) {
        // Client-side load shedding: the arrival consumed its feed
        // budget (open-loop demand does not wait) and is counted.
        ++_dropped;
        return;
    }
    req.node = pickClientNode();
    if (_sessionModel) {
        std::uint32_t sid = _sessionSeq++;
        PRESS_ASSERT(sid < SessionTagBit, "session id space exhausted");
        std::uint32_t len = _sessionModel->length(sid);
        _sessions.emplace(sid, OpenSession{req.node, len, 0});
        req.opts.sessionTag = SessionTagBit | sid;
        req.opts.sessionPhase = len == 1 ? 3 : 1;
    }
    issue(admit(req));
}

void
PressCluster::sessionAdvance(std::uint32_t sid)
{
    auto it = _sessions.find(sid);
    if (it == _sessions.end())
        return;
    OpenSession &s = it->second;
    ++s.done;
    if (s.done >= s.length) {
        _sessions.erase(it);
        return;
    }
    sim::Tick gap = _sessionModel->thinkGap(sid, s.done);
    _sim.schedule(gap, [this, sid]() { sessionNext(sid); });
}

void
PressCluster::sessionNext(std::uint32_t sid)
{
    auto it = _sessions.find(sid);
    if (it == _sessions.end())
        return;
    ClientRequest req;
    if (!draw(req)) {
        // Budget exhausted mid-session: the connection just closes.
        _sessions.erase(it);
        return;
    }
    OpenSession &s = it->second;
    if (_faultEnabled && !_clientAlive[static_cast<std::size_t>(s.node)])
        s.node = pickClientNode(); // the connection died with its node
    req.node = s.node;
    req.opts.keepAlive = true;
    req.opts.sessionTag = SessionTagBit | sid;
    req.opts.sessionPhase = s.done + 1 >= s.length ? 2 : 0;
    issue(admit(req));
}

std::uint32_t
PressCluster::admit(const ClientRequest &req)
{
    ++_inFlight;
    _inFlightPeak = std::max(_inFlightPeak, _inFlight);
    if (_freeRequests.empty()) {
        _requests.push_back(req);
        return static_cast<std::uint32_t>(_requests.size() - 1);
    }
    std::uint32_t id = _freeRequests.back();
    _freeRequests.pop_back();
    // Generations only ever grow, so a reply to a superseded attempt
    // on the record's previous use can never match.
    std::uint32_t gen = _requests[id].generation;
    _requests[id] = req;
    _requests[id].generation = gen;
    return id;
}

int
PressCluster::pickClientNode()
{
    int node = static_cast<int>(_clientRng.uniformInt(_config.nodes));
    if (_faultEnabled && !_clientAlive[static_cast<std::size_t>(node)]) {
        // Linear probe to the next node the clients believe up (a
        // real client's connect() to the dead node would fail over).
        for (int s = 1; s < _config.nodes; ++s) {
            int cand = (node + s) % _config.nodes;
            if (_clientAlive[static_cast<std::size_t>(cand)]) {
                node = cand;
                break;
            }
        }
    }
    return node;
}

void
PressCluster::buildPopularityRanking()
{
    // The Zipf redraw needs "rank r = the r-th most requested file".
    // Derive the ranking from the trace itself so the hot set lands on
    // files the caches already know and love.
    std::vector<std::uint64_t> count(_trace.files.count(), 0);
    for (storage::FileId f : _trace.requests)
        ++count[f];
    _rankToFile.resize(count.size());
    for (std::size_t i = 0; i < _rankToFile.size(); ++i)
        _rankToFile[i] = static_cast<storage::FileId>(i);
    std::stable_sort(_rankToFile.begin(), _rankToFile.end(),
                     [&count](storage::FileId a, storage::FileId b) {
                         return count[a] > count[b];
                     });
}

void
PressCluster::issueNext(std::uint32_t id)
{
    // Open-loop runs warm up in closed loop (saturating the caches
    // quickly); at the warm-up boundary the closed-loop slots retire
    // without consuming any of the measured feed budget, and the
    // Poisson process takes over. offeredRequests then accounts for
    // every measured-window request exactly.
    if (_config.clientMode == PressConfig::ClientMode::OpenLoop &&
        (_measuring || _feed->issued() >= _warmupBoundary)) {
        if (!_measuring)
            resetForMeasurement();
        return;
    }
    if (!draw(_requests[id]))
        return;
    if (!_measuring && _feed->issued() > _warmupBoundary)
        resetForMeasurement();
    _requests[id].node = pickClientNode();
    issue(id);
}

net::Payload
PressCluster::requestWire(storage::FileId file)
{
    // Real HTTP on the wire: the GET for each file is built once and
    // reused (clients are replaying a trace).
    if (!_requestWire[file]) {
        http::Request get =
            http::makeGet(_site.path(file), "press.cluster");
        std::string text = get.serialize();
        _requestWireBytes[file] =
            static_cast<std::uint32_t>(text.size());
        _requestWire[file] = net::makePayload<std::string>(
            std::move(text));
    }
    return _requestWire[file];
}

void
PressCluster::issue(std::uint32_t id)
{
    ClientRequest &req = _requests[id];
    req.clientPort = _config.nodes + req.node;
    req.inFlight = true;
    net::Payload wire = requestWire(req.file);
    std::uint64_t req_bytes = _requestWireBytes[req.file];
    // A fresh connection's TCP handshake rides the external wire ahead
    // of the request; keep-alive requests skip it. Only the session
    // path models connections explicitly, so unshaped runs keep their
    // exact wire byte counts.
    if (req.opts.sessionTag != 0 && !req.opts.keepAlive)
        req_bytes += _config.calibration.sizes.tcpHandshake;
    // Under LARD every request enters through the front-end's port.
    int port = _config.distribution == Distribution::FrontEndLard
                   ? frontEndPort()
                   : req.node;
    _external->send(req.clientPort, port, req_bytes,
                    [this, id, gen = req.generation, port,
                     wire = std::move(wire)]() {
                        ingress(id, gen, port, wire);
                    });
}

void
PressCluster::ingress(std::uint32_t id, std::uint32_t gen, int port,
                      const net::Payload &wire)
{
    // Parse the request text and resolve the path, exactly as the real
    // server's accept path would (the simulated cost of this work is
    // the parse step mu_p charged inside handleClientRequest). The
    // LARD front-end is content-aware: it parses before picking a
    // back-end (that is the whole point of LARD).
    const auto *text = net::payloadAs<std::string>(wire);
    PRESS_ASSERT(text, "client sent a non-HTTP payload");
    auto parsed = http::parseRequest(*text);
    if (!parsed) {
        ++_badRequests;
        return;
    }
    auto split = http::splitTarget(parsed.request->target);
    auto resolved = split ? _site.resolve(split->path) : std::nullopt;
    if (!resolved || *resolved != _requests[id].file) {
        ++_badRequests;
        return;
    }
    _requests[id].keepAliveHeader = parsed.request->keepAlive();
    if (port == frontEndPort())
        frontEndRoute(id, gen);
    else
        serve(id, gen, port);
}

int
PressCluster::lardPick(storage::FileId file)
{
    // LARD/R assignment (Pai et al., ASPLOS'98): serve from the file's
    // server set; replicate onto the cluster's least-loaded node when
    // the set's best member is overloaded while spare capacity exists.
    int cluster_least = 0;
    for (int i = 1; i < _config.nodes; ++i)
        if (_feLoad[i] < _feLoad[cluster_least])
            cluster_least = i;

    auto &set = _feSets[file];
    if (set.empty()) {
        set.push_back(cluster_least);
        return cluster_least;
    }
    int best = set[0];
    for (int b : set)
        if (_feLoad[b] < _feLoad[best])
            best = b;
    if (_feLoad[best] > LardHigh &&
        _feLoad[cluster_least] < LardLow) {
        set.push_back(cluster_least);
        best = cluster_least;
    }
    return best;
}

void
PressCluster::frontEndRoute(std::uint32_t id, std::uint32_t gen)
{
    _feCpu->submit(LardRouteCost, 0, [this, id, gen]() {
        ClientRequest &req = _requests[id];
        int backend = lardPick(req.file);
        ++_feLoad[backend];
        req.node = backend;
        // TCP hand-off: the connection migrates to the back-end, which
        // replies on it, straight to the client port it came from.
        _external->send(frontEndPort(), backend,
                        _requestWireBytes[req.file],
                        [this, id, gen, backend]() {
                            serve(id, gen, backend);
                        });
    });
}

void
PressCluster::serve(std::uint32_t id, std::uint32_t gen, int node)
{
    const ClientRequest &req = _requests[id];
    _servers[node]->handleClientRequest(
        req.file,
        [this, id, gen, node](std::uint64_t) { egress(id, gen, node); },
        req.opts);
}

void
PressCluster::egress(std::uint32_t id, std::uint32_t gen, int node)
{
    const ClientRequest &req = _requests[id];
    if (_config.distribution == Distribution::FrontEndLard)
        --_feLoad[node];
    // Build the HTTP response; its wire size replaces the server's
    // header estimate.
    http::Response resp = http::makeFileResponse(
        200, _trace.files.size(req.file),
        http::mimeType(_site.path(req.file)), req.keepAliveHeader);
    _external->send(node, req.clientPort, resp.wireBytes(),
                    [this, id, gen]() { complete(id, gen); });
}

void
PressCluster::complete(std::uint32_t id, std::uint32_t gen)
{
    ClientRequest &req = _requests[id];
    if (gen != req.generation)
        return; // a client retry superseded this attempt
    req.inFlight = false;
    if (_faultEnabled && _measuring) {
        auto idx = static_cast<std::size_t>(
            (_sim.now() - _measureStart) / ClusterResults::ReplyBucket);
        if (_replyBuckets.size() <= idx)
            _replyBuckets.resize(idx + 1, 0);
        ++_replyBuckets[idx];
    }
    _lastReply = _sim.now();
    if (req.slot >= 0) {
        issueNext(id);
        return;
    }
    // Open-loop bookkeeping runs on the client domain (the reply just
    // landed on a client port), same as the arrival side.
    --_inFlight;
    _freeRequests.push_back(id);
    if (req.opts.sessionTag != 0)
        sessionAdvance(req.opts.sessionTag & ~SessionTagBit);
}

void
PressCluster::resetForMeasurement()
{
    _measuring = true;
    _measureStart = _sim.now();
    if (_config.clientMode == PressConfig::ClientMode::OpenLoop)
        scheduleArrival();
    for (auto &node : _nodes) {
        node->cpu().resetStats();
        node->disk().resetStats();
    }
    for (auto &server : _servers)
        server->resetStats();
    for (auto &comm : _comms)
        comm->txStats().reset();
    _internal->resetStats();
    _external->resetStats();
    // The span-derived CPU aggregation resets at the same boundary as
    // the resource counters, keeping the Figure-1 cross-check exact.
    if (_tracer)
        _tracer->resetAggregates();
}

void
PressCluster::clientMarkDead(int node)
{
    _clientAlive[static_cast<std::size_t>(node)] = 0;
}

void
PressCluster::clientMarkAlive(int node)
{
    _clientAlive[static_cast<std::size_t>(node)] = 1;
}

void
PressCluster::clientScanDead(int node)
{
    // Requests in flight to the dead node died with it (their pending
    // entries are gone); re-aim each at a node believed up, whichever
    // client mode issued it. Record order is fixed, so the scan is
    // deterministic, and the generation bump makes any late reply from
    // the old attempt a no-op.
    for (std::uint32_t id = 0; id < _requests.size(); ++id) {
        ClientRequest &req = _requests[id];
        if (!req.inFlight || req.node != node)
            continue;
        ++req.generation;
        ++_clientRetries;
        req.node = pickClientNode();
        issue(id);
    }
}

void
PressCluster::setupFaults()
{
    const auto &plan = _config.fault;
    if (plan.empty()) {
        _faultEnabled = false;
        return; // healthy run: no fault machinery activates at all
    }
    PRESS_ASSERT(_config.distribution != Distribution::FrontEndLard,
                 "fault plans are not supported with the LARD "
                 "front-end (its hand-off state has no recovery path)");
    plan.validate(_config.nodes);

    _faultEnabled = true;
    _clientAlive.assign(static_cast<std::size_t>(_config.nodes), 1);
    _clientRetries = 0;
    _replyBuckets.clear();
    for (auto &server : _servers)
        server->enableFaultMode();

    // Every fault-driven action is pre-scheduled here, before run(),
    // on the domain that owns it: the event on the target node, the
    // failure detector's suspicion/confirmation on every survivor, and
    // the dead-node marks plus stuck-slot scans on the client domain.
    // That makes churn runs exactly as deterministic as healthy ones —
    // nothing about fault timing depends on execution order.
    //
    // Each observer's detector fires with a small per-node skew.
    // Without it every survivor would act at the exact same tick in a
    // different domain — a synchronized multi-domain burst healthy
    // traffic never produces, whose equal-tick cross-domain ordering
    // is undefined (the tick-race hunter flags it). Real failure
    // detectors are not clock-synchronized either; the skew is a pure
    // function of the observer id, so runs stay byte-identical.
    auto skew = [](int s) {
        return static_cast<sim::Tick>(s + 1) * 131;
    };
    for (const auto &ev : plan.timeline()) {
        const int x = ev.node;
        const std::uint32_t e = ev.epoch;
        switch (ev.kind) {
          case fault::FaultKind::Crash: {
            _sim.setCurrentDomain(x);
            _sim.schedule(ev.at,
                          [this, x, e]() { _servers[x]->faultCrash(e); });
            for (int s = 0; s < _config.nodes; ++s) {
                if (s == x)
                    continue;
                _sim.setCurrentDomain(s);
                _sim.schedule(ev.at + plan.suspectDelay + skew(s),
                              [this, s, x, e]() {
                                  _servers[s]->peerSuspected(x, e);
                              });
                _sim.schedule(ev.at + plan.suspectDelay +
                                  plan.confirmDelay + skew(s),
                              [this, s, x, e]() {
                                  _servers[s]->peerDetected(
                                      x, e, fault::NodeState::Dead);
                              });
            }
            _sim.setCurrentDomain(clientDomain());
            _sim.schedule(ev.at + plan.suspectDelay, [this, x]() {
                clientMarkDead(x);
                clientScanDead(x);
            });
            break;
          }
          case fault::FaultKind::Restart:
          case fault::FaultKind::Join: {
            _sim.setCurrentDomain(x);
            _sim.schedule(ev.at, [this, x, e]() {
                _servers[x]->faultRestart(e);
            });
            for (int s = 0; s < _config.nodes; ++s) {
                if (s == x)
                    continue;
                _sim.setCurrentDomain(s);
                _sim.schedule(ev.at + plan.suspectDelay + skew(s),
                              [this, s, x, e]() {
                                  _servers[s]->peerDetected(
                                      x, e, fault::NodeState::Alive);
                              });
            }
            _sim.setCurrentDomain(clientDomain());
            _sim.schedule(ev.at + plan.suspectDelay,
                          [this, x]() { clientMarkAlive(x); });
            break;
          }
          case fault::FaultKind::Leave: {
            _sim.setCurrentDomain(x);
            _sim.schedule(ev.at, [this, x, e]() {
                _servers[x]->faultLeave(e);
            });
            _sim.schedule(ev.at + plan.drainDelay, [this, x]() {
                _servers[x]->faultLeaveDown();
            });
            for (int s = 0; s < _config.nodes; ++s) {
                if (s == x)
                    continue;
                _sim.setCurrentDomain(s);
                _sim.schedule(ev.at + plan.drainDelay +
                                  plan.suspectDelay + skew(s),
                              [this, s, x, e]() {
                                  _servers[s]->peerLeftTeardown(x, e);
                              });
            }
            _sim.setCurrentDomain(clientDomain());
            _sim.schedule(ev.at, [this, x]() { clientMarkDead(x); });
            _sim.schedule(ev.at + plan.drainDelay + plan.suspectDelay,
                          [this, x]() { clientScanDead(x); });
            break;
          }
        }
    }
    _sim.setCurrentDomain(sim::NoDomain);
}

ClusterResults
PressCluster::run(std::uint64_t max_requests)
{
    std::uint64_t measured =
        max_requests ? std::min<std::uint64_t>(max_requests,
                                               _trace.requests.size())
                     : _trace.requests.size();
    _warmupBoundary = static_cast<std::uint64_t>(
        _config.warmupFraction * static_cast<double>(measured));
    // Warm-up wraps around the trace so short traces still reach their
    // steady state before measurement.
    _feed = std::make_unique<workload::RequestFeed>(
        _trace, _warmupBoundary + measured, /*wrap=*/true);
    _measuring = false;
    _measureStart = 0;
    _lastReply = 0;

    if (_config.clientMode == PressConfig::ClientMode::OpenLoop) {
        const auto &tm = _config.traffic;
        PRESS_ASSERT(!(_config.distribution == Distribution::FrontEndLard &&
                       (tm.session.enabled || tm.dynamicFraction > 0 ||
                        tm.population.active())),
                     "the LARD front-end supports only rate-curve "
                     "shaping (sessions/classes/popularity bypass its "
                     "hand-off path)");
        traffic::RateCurve curve =
            tm.curve.empty() ? traffic::RateCurve::constant(
                                   _config.openLoopRate)
                             : tm.curve;
        double scale =
            tm.session.enabled ? 1.0 / tm.session.meanRequests : 1.0;
        _arrivals = std::make_unique<traffic::ArrivalEngine>(
            std::move(curve), _config.seed ^ 0x41525256414Cull, scale);
        _sessionModel.reset();
        if (tm.session.enabled)
            _sessionModel = std::make_unique<traffic::SessionModel>(
                tm.session, _config.seed ^ 0x53455353ull);
        _population.reset();
        if (tm.population.active()) {
            _population = std::make_unique<traffic::PopulationModel>(
                tm.population, _trace.files.count(),
                _config.seed ^ 0x504F50ull);
            buildPopularityRanking();
        }
        _sessions.clear();
        _sessionSeq = 0;
        _openSeq = 0;
        _offered = 0;
        _dropped = 0;
        _inFlight = 0;
        _inFlightPeak = 0;
    }

    // Pre-schedule every fault event (no-op for an empty plan) so the
    // kernel sees churn as ordinary same-domain events, keeping runs
    // byte-identical.
    setupFaults();

    // The initial request wave (and everything issueNext touches — the
    // client RNG, the request feed) belongs to the client domain.
    _sim.setCurrentDomain(clientDomain());
    for (int c = 0; c < _config.clientsPerNode * _config.nodes; ++c)
        issueNext(static_cast<std::uint32_t>(c));
    _sim.run();

    if (!_measuring) {
        // Tiny runs can finish inside the warm-up window.
        util::warn("run finished before the warm-up boundary; measuring "
                   "the whole run");
        _measureStart = 0;
    }

    ClusterResults r;
    r.configLabel = _config.label();
    r.traceName = _trace.name;

    sim::Tick window = std::max<sim::Tick>(_lastReply - _measureStart, 1);
    r.measuredSeconds = sim::nsToSeconds(window);

    std::uint64_t replies = 0;
    double latency_sum = 0;
    std::uint64_t latency_n = 0;
    stats::LogHistogram latency_hist;
    for (auto &server : _servers) {
        const auto &s = server->stats();
        replies += s.replies;
        latency_sum += s.latency.sum();
        latency_n += s.latency.count();
        latency_hist.merge(s.latencyHist);
        r.forwardFraction += static_cast<double>(s.forwardedOut);
        r.localHitFraction += static_cast<double>(s.localCacheHits);
        r.diskReads += s.localDiskReads + s.serviceDiskReads;
        r.cacheInsertions += s.cacheInsertions;
        r.gossipRounds += s.gossipRounds;
        r.gossipRumorSends += s.gossipRumorSends;
        r.loadWaves += s.loadWaves;
        r.cachingWaves += s.cachingWaves;
        r.dirLookups += s.dirLookupsIn;
        r.dirHomeReturns += s.dirHomeReturns;
        r.overloadServes += s.overloadLocalServes;
        r.sessionsClosed += s.sessionsClosed;
        r.keepAliveRequests += s.keepAliveRequests;
        r.dynamicRequests += s.dynamicRequests;
        auto entries =
            static_cast<std::uint64_t>(server->cacheDirectory().entries());
        r.dirEntriesTotal += entries;
        r.dirEntriesMaxPerNode = std::max(r.dirEntriesMaxPerNode, entries);
    }
    r.requestsMeasured = replies;
    r.throughput = static_cast<double>(replies) / r.measuredSeconds;
    if (_config.clientMode == PressConfig::ClientMode::OpenLoop) {
        r.offeredRequests = _offered;
        r.offeredRate =
            static_cast<double>(_offered) / r.measuredSeconds;
        r.droppedRequests = _dropped;
        r.inFlightPeak = _inFlightPeak;
        r.inFlightEnd = _inFlight;
        r.measureStartTick = _measureStart;
    }
    r.avgLatencyMs =
        latency_n ? latency_sum / static_cast<double>(latency_n) / 1e6
                  : 0.0;
    r.p50LatencyMs = latency_hist.quantile(0.50) / 1e6;
    r.p99LatencyMs = latency_hist.quantile(0.99) / 1e6;
    r.p999LatencyMs = latency_hist.quantile(0.999) / 1e6;
    std::uint64_t reqs = 0;
    for (auto &server : _servers)
        reqs += server->stats().requests;
    if (reqs > 0) {
        r.forwardFraction /= static_cast<double>(reqs);
        r.localHitFraction /= static_cast<double>(reqs);
    }

    for (auto &comm : _comms) {
        const auto &tx = comm->txStats();
        for (int k = 0; k < static_cast<int>(MsgKind::NumKinds); ++k) {
            r.comm.byKind[k].msgs += tx.byKind[k].msgs;
            r.comm.byKind[k].bytes += tx.byKind[k].bytes;
        }
        r.comm.stalls += tx.stalls;
    }

    if (_faultEnabled) {
        for (auto &server : _servers) {
            const auto &s = server->stats();
            r.requestsRetried += s.requestsRetried;
            r.staleDrops += s.staleReplies;
            r.membershipSends += s.membershipSends;
            r.reAnnouncedFiles += s.reAnnouncedFiles;
        }
        for (auto &comm : _comms) {
            r.droppedSends += comm->droppedSends();
            r.rxErrors += comm->rxErrors();
        }
        for (const ClientRequest &req : _requests)
            if (req.inFlight)
                ++r.requestsLost;
        r.clientRetries = _clientRetries;
        r.replyBuckets = _replyBuckets;
        // View convergence: the worst lag between a node going down and
        // the last survivor marking it Dead/Left in its local view.
        // Nodes that were themselves down when the event happened only
        // learn of it from the rejoin view-sync; they are not
        // detection-lag observers and are skipped.
        auto down_at = [this](int node, sim::Tick when) {
            bool down = false;
            for (const auto &e : _config.fault.timeline()) {
                if (e.node != node || e.at > when)
                    continue;
                down = e.kind == fault::FaultKind::Crash ||
                       e.kind == fault::FaultKind::Leave;
            }
            return down;
        };
        sim::Tick worst = 0;
        for (const auto &ev : _config.fault.timeline()) {
            if (ev.kind != fault::FaultKind::Crash &&
                ev.kind != fault::FaultKind::Leave)
                continue;
            for (int s = 0; s < _config.nodes; ++s) {
                if (s == ev.node || _servers[s]->crashed() ||
                    down_at(s, ev.at))
                    continue;
                const auto *view = _servers[s]->membership();
                if (!view)
                    continue;
                sim::Tick at = view->deadSince(ev.node);
                if (at >= ev.at)
                    worst = std::max(worst, at - ev.at);
            }
        }
        r.viewConvergeMs = static_cast<double>(worst) / 1e6;
    }

    sim::Tick busy_total = 0;
    std::array<sim::Tick, osnode::NumCpuCategories> busy_by{};
    double util_sum = 0, disk_sum = 0;
    for (auto &node : _nodes) {
        busy_total += node->cpu().busyTime();
        for (int c = 0; c < osnode::NumCpuCategories; ++c)
            busy_by[c] += node->cpu().busyTime(c);
        util_sum +=
            static_cast<double>(node->cpu().busyTime()) /
            static_cast<double>(window);
        disk_sum += static_cast<double>(node->disk().busyTime()) /
                    static_cast<double>(window);
    }
    if (busy_total > 0)
        for (int c = 0; c < osnode::NumCpuCategories; ++c)
            r.cpuShare[c] = static_cast<double>(busy_by[c]) /
                            static_cast<double>(busy_total);
    r.cpuUtilization = util_sum / _config.nodes;
    r.diskUtilization = disk_sum / _config.nodes;

    if (_tracer) {
        auto trace = std::make_shared<obs::TraceData>(_tracer->snapshot());
        for (int i = 0; i < _config.nodes; ++i)
            for (int c = 0; c < osnode::NumCpuCategories; ++c)
                trace->counterBusy[i][c] = _nodes[i]->cpu().busyTime(c);
        // Every metric row is read from the counter its layer keeps:
        // per-node rows, then a cluster rollup (the sum; for the
        // queue-depth high-water marks, the max).
        auto rows = [&](const char *name, bool peak, auto value) {
            std::uint64_t rollup = 0;
            for (int i = 0; i < _config.nodes; ++i) {
                std::uint64_t v = value(i);
                trace->metrics.push_back({name, i, v});
                rollup = peak ? std::max(rollup, v) : rollup + v;
            }
            trace->metrics.push_back({name, -1, rollup});
        };
        auto tx = [&](int i) -> const CommStats & {
            return _comms[i]->txStats();
        };
        auto server = [&](int i) -> const ServerStats & {
            return _servers[i]->stats();
        };
        if (_config.protocol == Protocol::ViaClan)
            rows("comm.stalls", false, [&](int i) { return tx(i).stalls; });
        rows("comm.tx.bytes", false,
             [&](int i) { return tx(i).total().bytes; });
        rows("comm.tx.msgs", false,
             [&](int i) { return tx(i).total().msgs; });
        rows("server.forwards", false,
             [&](int i) { return server(i).forwardedOut; });
        rows("server.replies", false,
             [&](int i) { return server(i).replies; });
        rows("server.requests", false,
             [&](int i) { return server(i).requests; });
        rows("cpu.queue_depth", true, [&](int i) {
            return std::uint64_t{_nodes[i]->cpu().maxDepth()};
        });
        rows("disk.queue_depth", true, [&](int i) {
            return std::uint64_t{_nodes[i]->disk().resource().maxDepth()};
        });
        rows("disk.read_ns", false,
             [&](int i) { return _nodes[i]->disk().reads(); });
        rows("server.latency_ns", false,
             [&](int i) { return server(i).latency.count(); });
        r.trace = std::move(trace);
    }

    return r;
}

} // namespace press::core
