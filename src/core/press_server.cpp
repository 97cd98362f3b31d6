#include "press_server.hpp"

#include <algorithm>

#include "core/wire.hpp"
#include "util/logging.hpp"

namespace press::core {

using osnode::CatClientComm;
using osnode::CatIntraComm;
using osnode::CatService;
using storage::FileId;

namespace {

/** Load sentinel for nodes believed down: large enough that a dead
 *  node can never win a least-loaded pick, small enough to never
 *  overflow load arithmetic. */
constexpr int DeadLoad = 1 << 29;

} // namespace

PressServer::PressServer(sim::Simulator &sim, const PressConfig &config,
                         int id, osnode::Node &node,
                         const storage::FileSet &files, ClusterComm &comm,
                         std::uint64_t seed)
    : _sim(sim),
      _config(config),
      _cal(config.calibration),
      _id(id),
      _node(node),
      _files(files),
      _comm(comm),
      _rng(seed),
      _cache(config.cacheBytes),
      _dir(config, id),
      _loadDir(config.nodes, id),
      _dissem(sim, config, id, comm, _stats, [this]() { return load(); })
{
    _comm.setHandler([this](const Incoming &in) { onMessage(in); });
}

sim::Tick
PressServer::replyCost(std::uint64_t bytes) const
{
    return _cal.service.replyFixed +
           static_cast<sim::Tick>(_cal.service.replyPerByte *
                                  static_cast<double>(bytes));
}

void
PressServer::handleClientRequest(FileId file, ReplyFn on_reply,
                                 const RequestOptions &opts)
{
    if (_crashed)
        return; // connection refused; the client's dead-node scan retries
    ++_stats.requests;
    ++_openConnections;
    loadChanged();

    if (opts.sessionPhase & 1) {
        ++_stats.sessionsOpened;
        PRESS_TRACE_ASYNC_BEGIN(_tracer, _id, obs::Ev::SessionLife,
                                obs::requestId(_id, opts.sessionTag), file);
    }
    if (opts.sessionPhase & 2) {
        // The session span closes when this, its last reply, leaves.
        on_reply = [this, inner = std::move(on_reply),
                    stag = opts.sessionTag](std::uint64_t bytes) {
            ++_stats.sessionsClosed;
            PRESS_TRACE_ASYNC_END(_tracer, _id, obs::Ev::SessionLife,
                                  obs::requestId(_id, stag), bytes);
            if (inner)
                inner(bytes);
        };
    }

    std::uint32_t tag = _nextTag++;
    _pending.emplace(tag, Pending{file, std::move(on_reply), _sim.now()});

    PRESS_TRACE_ASYNC_BEGIN(_tracer, _id, obs::Ev::ReqLife,
                            obs::requestId(_id, tag), file);

    sim::Tick cost = _cal.service.parse + _cal.service.loopPass +
                     _comm.perRequestOverhead();
    if (opts.keepAlive) {
        // Reused connection: no accept/teardown inside mu_p.
        ++_stats.keepAliveRequests;
        cost -= _cal.service.connSetup;
    }
    bool dynamic = opts.dynamic;
    if (dynamic)
        ++_stats.dynamicRequests;
    _node.cpu().submit(cost, CatService, [this, file, tag, dynamic]() {
        if (dynamic)
            serveDynamic(file, tag);
        else
            dispatch(file, tag);
    });
}

void
PressServer::serveDynamic(FileId file, std::uint32_t tag)
{
    PRESS_TRACE_INSTANT(
        _tracer, _id, obs::Ev::ReqDispatch, obs::requestId(_id, tag),
        static_cast<std::uint64_t>(obs::DispatchDecision::Dynamic));
    // The generated page is sized like the file it replaces; the work
    // is pure CPU on the initial node — locality-conscious distribution
    // has nothing to offer content that is produced, not cached.
    std::uint64_t size = _files.size(file);
    sim::Tick cost =
        _cal.service.dynamicFixed +
        static_cast<sim::Tick>(_cal.service.dynamicPerByte *
                               static_cast<double>(size));
    _node.cpu().submit(cost, CatService,
                       [this, tag, size]() { reply(tag, size, -1); });
}

std::optional<NodeMask>
PressServer::cachingMask(FileId file) const
{
    NodeMask mask;
    if (_dir.lookup(file, mask) == CacheDirectory::Answer::Unknown)
        return std::nullopt;
    return mask;
}

int
PressServer::chooseService(NodeMask mask, int exclude)
{
    // Fault mode masks out nodes not currently believed Alive (the
    // suspect window, before the directory itself is repaired).
    if (_faultActive)
        for (int j = 0; j < _config.nodes; ++j)
            if (mask.test(j) && !_view->aliveNode(j))
                mask.clear(j);
    // No load information: any caching node will do.
    if (!_dissem.loadKnown())
        return randomIn(mask, _rng, _config.nodes, exclude);
    return leastLoadedIn(mask, _loadDir, _config.nodes, exclude);
}

bool
PressServer::worthForwarding(int candidate, int requester_load) const
{
    if (!_dissem.loadKnown())
        return true; // no load information to pivot on
    // Candidate overloaded: forward anyway only when the requester and
    // the cluster's least-loaded node are overloaded too; otherwise the
    // requester serves, replicating the file.
    int t = _config.overloadThreshold;
    if (_loadDir.load(candidate) <= t)
        return true;
    return requester_load > t && _loadDir.load(_loadDir.leastLoaded()) > t;
}

void
PressServer::dispatch(FileId file, std::uint32_t tag)
{
    std::uint64_t size = _files.size(file);
    auto decided = [this, tag](obs::DispatchDecision d) {
        PRESS_TRACE_INSTANT(_tracer, _id, obs::Ev::ReqDispatch,
                            obs::requestId(_id, tag),
                            static_cast<std::uint64_t>(d));
    };
    auto forward = [this, file, tag](int dst, ForwardRoute route) {
        ++_stats.forwardedOut;
        PRESS_TRACE_ASYNC_BEGIN(_tracer, _id, obs::Ev::ReqForward,
                                obs::requestId(_id, tag), file);
        _comm.send(dst, ForwardMsg{file, tag, _id, route});
        noteAwaiting(tag, dst);
    };

    // Content-oblivious / front-end-routed modes: whatever arrives is
    // served here, from the local cache or disk.
    if (_config.distribution != Distribution::LocalityConscious) {
        decided(obs::DispatchDecision::Oblivious);
        serveLocal(file, tag);
        return;
    }

    // Rule 1: large files are always serviced by the initial node.
    if (size >= LargeFileCutoff) {
        ++_stats.largeFileServes;
        decided(obs::DispatchDecision::LargeFile);
        serveLocal(file, tag);
        return;
    }
    // Rule 2: already cached here -> local.
    if (_cache.contains(file)) {
        decided(obs::DispatchDecision::CachedLocal);
        serveLocal(file, tag);
        return;
    }

    std::optional<NodeMask> mask = cachingMask(file);
    if (!mask) {
        // Sharded, not our shard and not hot: ask the owner to route
        // the request (rules 3/4 run there). One extra short message
        // on the miss path buys O(F/S) directory state per node.
        int owner = _dir.ownerOf(file);
        PRESS_ASSERT(owner != _id, "owned file reported Unknown");
        ++_stats.dirLookupsOut;
        decided(obs::DispatchDecision::DirLookup);
        forward(owner, ForwardRoute::Lookup);
        return;
    }

    // Rule 3: nobody (alive) caches it -> local, bringing it into the
    // cluster cache. A stale hot entry only costs a disk read at the
    // service node (its handleForward falls back to disk).
    int candidate = chooseService(*mask, -1);
    if (candidate < 0) {
        decided(obs::DispatchDecision::FirstTouch);
        serveLocal(file, tag);
        return;
    }
    // Rule 4: the chosen service node, unless that is this node or
    // the overload pivot says replicate here.
    if (candidate == _id) {
        decided(obs::DispatchDecision::SelfBest);
        serveLocal(file, tag);
    } else if (worthForwarding(candidate, load())) {
        decided(obs::DispatchDecision::Forward);
        forward(candidate, ForwardRoute::Serve);
    } else {
        ++_stats.overloadLocalServes;
        decided(obs::DispatchDecision::OverloadLocal);
        serveLocal(file, tag);
    }
}

void
PressServer::handleDirLookup(int from, const ForwardMsg &msg)
{
    ++_stats.dirLookupsIn;
    FileId file = msg.file;
    std::uint32_t tag = msg.tag;
    int origin = msg.origin >= 0 ? msg.origin : from;

    // Probe the owned shard and route; charged as one directory lookup.
    _node.cpu().submit(
        _cal.service.dirLookup, CatService, [this, file, tag, origin]() {
            if (_crashed)
                return;
            // Bounce home: the initial node serves (first touch or
            // overload replication) from its own disk.
            auto send_home = [&]() {
                _comm.send(origin,
                           ForwardMsg{file, tag, origin, ForwardRoute::Home});
            };

            if (!_dir.owns(file)) {
                // Only possible mid-churn: ownership moved while the
                // lookup was in flight. The initial node serves rather
                // than chasing owners.
                PRESS_ASSERT(_faultActive,
                             "lookup routed to non-owner for file ",
                             file);
                send_home();
                return;
            }

            // The pick excludes the initial node: if it were the best
            // caching node its rule 2 would have kept the request, so
            // its directory bit is stale and it serves from disk at
            // home just the same.
            int candidate = chooseService(*cachingMask(file), origin);
            if (candidate == _id) {
                // The owner itself is the service node: no third hop.
                serviceRemote(origin, file, tag);
            } else if (candidate >= 0 && !_faultActive &&
                       worthForwarding(candidate, _loadDir.load(origin))) {
                _comm.send(candidate,
                           ForwardMsg{file, tag, origin, ForwardRoute::Serve});
            } else {
                // Nobody (else) caches it, or the candidate is
                // overloaded while the initial node is not. Under churn
                // there is no third hop at all: the initial node tracks
                // only the owner it asked, so a three-party chain would
                // fall outside its retry bookkeeping.
                send_home();
            }
        });
}

void
PressServer::serveLocal(FileId file, std::uint32_t tag)
{
    std::uint64_t size = _files.size(file);

    if (_cache.contains(file)) {
        ++_stats.localCacheHits;
        _cache.touch(file);
        reply(tag, size, /*buffer_owner=*/-1);
        return;
    }

    ++_stats.localDiskReads;
    _node.disk().read(size, [this, file, tag, size]() {
        // Disk helper thread hands the buffer back to the main thread.
        _node.cpu().submit(_cal.service.cacheOp, CatService,
                           [this, file, tag, size]() {
                               if (size < LargeFileCutoff)
                                   insertIntoCache(file);
                               reply(tag, size, /*buffer_owner=*/-1);
                           });
    });
}

void
PressServer::reply(std::uint32_t tag, std::uint64_t file_bytes,
                   int buffer_owner)
{
    auto it = _pending.find(tag);
    if (it == _pending.end()) {
        // Only fault mode loses tags: a crash clears _pending while
        // disk reads / file transfers for those requests are still in
        // flight, and a retried request may race its original reply.
        PRESS_ASSERT(_faultActive, "reply for unknown tag ", tag);
        ++_stats.staleReplies;
        if (buffer_owner >= 0)
            _comm.fileBufferDone(buffer_owner);
        return;
    }
    Pending pending = std::move(it->second);
    _pending.erase(it);

    std::uint64_t bytes = file_bytes + _cal.sizes.httpReplyHeader;
    // Capture only the two Pending fields the completion needs; the
    // whole struct would overflow EventFn's inline storage. The tag and
    // buffer owner share one word for the same reason (the owner is a
    // node id or -1, biased by one into the low half).
    std::uint64_t tag_owner =
        (static_cast<std::uint64_t>(tag) << 32) |
        static_cast<std::uint32_t>(buffer_owner + 1);
    _node.cpu().submit(
        replyCost(bytes), CatClientComm,
        [this, start = pending.start,
         on_reply = std::move(pending.onReply), bytes, tag_owner]() {
            int buffer_owner =
                static_cast<int>(tag_owner & 0xffffffffu) - 1;
            auto tag = static_cast<std::uint32_t>(tag_owner >> 32);
            if (buffer_owner >= 0)
                _comm.fileBufferDone(buffer_owner);
            ++_stats.replies;
            PRESS_TRACE_INSTANT(_tracer, _id, obs::Ev::ReqReply,
                                obs::requestId(_id, tag), bytes);
            PRESS_TRACE_ASYNC_END(_tracer, _id, obs::Ev::ReqLife,
                                  obs::requestId(_id, tag), bytes);
            if (start >= _statsEpoch) {
                auto ns = static_cast<double>(_sim.now() - start);
                _stats.latency.add(ns);
                _stats.latencyHist.add(ns);
            }
            // Fault mode: a crash zeroes the counter while replies are
            // still in the CPU queue, so clamp instead of going
            // negative.
            if (!_faultActive || _openConnections > 0)
                --_openConnections;
            loadChanged();
            if (on_reply)
                on_reply(bytes);
        });
}

void
PressServer::onMessage(const Incoming &in)
{
    if (_crashed) {
        // A dead node processes nothing; deliveries already past the
        // comm layer when the crash hit are dropped here.
        ++_stats.staleReplies;
        return;
    }

    // Membership news is exempt from the stale-sender drop: the Alive
    // announcement of a restarted node arrives while the view still
    // says Dead.
    if (in.kind != MsgKind::Membership && _faultActive && in.from != _id &&
        !_view->aliveNode(in.from)) {
        // In-flight traffic from a node this view believes down:
        // dropping it keeps the load/cache directories from resurrect-
        // ing dead state (the TCP analogue of a RST on a dead socket).
        ++_stats.staleReplies;
        return;
    }

    if (_dissem.receive(in, [this](const News &n) { return learned(n); }))
        return;

    switch (in.kind) {
      case MsgKind::Forward: {
        const auto *msg = bodyAs<ForwardMsg>(in);
        PRESS_ASSERT(msg, "Forward message without body");
        switch (msg->route) {
          case ForwardRoute::Serve:
            handleForward(in.from, *msg);
            break;
          case ForwardRoute::Lookup:
            handleDirLookup(in.from, *msg);
            break;
          case ForwardRoute::Home:
            // The shard owner bounced the request home: serve it here
            // (first touch or overload replication). The request no
            // longer depends on any peer.
            ++_stats.dirHomeReturns;
            noteAwaiting(msg->tag, -1);
            PRESS_TRACE_ASYNC_END(_tracer, _id, obs::Ev::ReqForward,
                                  obs::requestId(_id, msg->tag),
                                  msg->file);
            serveLocal(msg->file, msg->tag);
            break;
        }
        break;
      }
      case MsgKind::File: {
        const auto *msg = bodyAs<FileMsg>(in);
        PRESS_ASSERT(msg, "File message without body");
        handleFileArrival(in.from, *msg);
        break;
      }
      case MsgKind::Flow:
        break; // handled inside the comm layer
      default:
        util::panic("unexpected message kind");
    }
}

bool
PressServer::learned(const News &n)
{
    if (n.kind == News::Kind::Membership)
        return _view && applyMembership(n);
    // News about a node believed down must neither clobber the
    // DeadLoad sentinel nor resurrect directory bits recoverFromDeath()
    // just dropped; a rumor is still relayed, so it dies out normally.
    if (n.kind == News::Kind::Load) {
        if (nodeUsable(n.origin))
            _loadDir.update(n.origin, n.load);
    } else if (!_dir.owns(n.file)) {
        // A sharded owner update that lost a race with churn: the
        // shard moved away between send and arrival.
        PRESS_ASSERT(_faultActive, "caching news for a file not owned");
        ++_stats.staleReplies;
    } else if (nodeUsable(n.origin)) {
        _dir.update(n.origin, n.file, n.cached);
    }
    return true;
}

void
PressServer::handleForward(int from, const ForwardMsg &msg)
{
    // origin >= 0 names the initial node when the request came via a
    // shard owner; the classic two-party forward has origin == -1 and
    // the sender *is* the initial node.
    serviceRemote(msg.origin >= 0 ? msg.origin : from, msg.file, msg.tag);
}

void
PressServer::serviceRemote(int home, FileId file, std::uint32_t tag)
{
    ++_stats.forwardedIn;
    ++_servicingRemote;
    loadChanged();

    std::uint32_t size = _files.size(file);

    // The forwarded request keeps its cluster-wide id: derived from the
    // *initial* node and its tag, so this span joins the originating
    // ReqLife/ReqForward spans in the exported trace.
    PRESS_TRACE_ASYNC_BEGIN(_tracer, _id, obs::Ev::ReqService,
                            obs::requestId(home, tag), file);

    auto send_back = [this, home, file, size, tag]() {
        PRESS_TRACE_ASYNC_END(_tracer, _id, obs::Ev::ReqService,
                              obs::requestId(home, tag), file);
        _comm.send(home, FileMsg{file, tag, size});
        // Clamp under fault: a crash zeroes the counter while disk
        // reads for forwarded requests are still in flight.
        if (!_faultActive || _servicingRemote > 0)
            --_servicingRemote;
        loadChanged();
    };

    if (_cache.contains(file)) {
        _cache.touch(file);
        send_back();
        return;
    }

    // Not cached (stale directory at the initial node, or we evicted
    // it): read from disk, cache it, then transfer.
    ++_stats.serviceDiskReads;
    _node.disk().read(size, [this, file, send_back]() {
        _node.cpu().submit(_cal.service.cacheOp, CatService,
                           [this, file, send_back]() {
                               insertIntoCache(file);
                               send_back();
                           });
    });
}

void
PressServer::handleFileArrival(int from, const FileMsg &msg)
{
    // The initial node got the file; reply to the client straight away
    // (it deliberately does not cache the file).
    PRESS_TRACE_ASYNC_END(_tracer, _id, obs::Ev::ReqForward,
                          obs::requestId(_id, msg.tag), msg.file);
    _dir.hotLearn(msg.file, from, true); // sender serves it
    reply(msg.tag, msg.bytes, /*buffer_owner=*/from);
}

void
PressServer::insertIntoCache(FileId file)
{
    std::uint32_t size = _files.size(file);
    auto evicted = _cache.insert(file, size);
    if (!_cache.contains(file))
        return; // larger than the whole cache: streamed, not cached

    ++_stats.cacheInsertions;

    // Version 5 pins the new pages for VIA; evictions unpin.
    sim::Tick reg = _comm.cacheInsertCost(size);
    for (const auto &ev : evicted)
        reg += _comm.cacheEvictCost(ev.size);
    if (reg > 0)
        _node.cpu().submit(reg, CatIntraComm);

    // The only place the directory organisation matters here: a
    // replicated directory hears every change from the carrier, as
    // one batch of the insertion and its evictions; a sharded one
    // hears each change from a unicast to the file's owner, O(1)
    // messages per change instead of N-1.
    bool announce = !_dir.sharded();
    _cachingNews.clear();
    auto changed = [this, announce](FileId f, bool cached) {
        News news = News::ofCaching(_id, f, cached);
        if (_dir.owns(f))
            _dir.update(_id, f, cached);
        else
            _dissem.tell(_dir.ownerOf(f), news);
        if (announce)
            _cachingNews.push_back(news);
    };
    changed(file, true);
    for (const auto &ev : evicted) {
        ++_stats.cacheEvictions;
        changed(ev.file, false);
    }
    if (announce)
        _dissem.announce(_cachingNews);
}

void
PressServer::loadChanged()
{
    // Nobody reads the load directory under non-locality-conscious
    // distributions and Kind::None, so the per-request hot path is a
    // single branch there.
    if (!_dissem.publishesLoad())
        return;
    int current = load();
    _loadDir.setSelf(current);
    _dissem.announce(News::ofLoad(_id, current));
}

// ---------------------------------------------------------------------
// Fault tolerance
// ---------------------------------------------------------------------

void
PressServer::enableFaultMode()
{
    if (_faultActive)
        return;
    _faultActive = true;
    _view = std::make_unique<fault::MembershipView>(_config.nodes, _id);
    _dissem.setMembershipView(_view.get());
    _leftTeardown.assign(static_cast<std::size_t>(_config.nodes), 0);
}

NodeMask
PressServer::aliveMask() const
{
    NodeMask m;
    for (int j = 0; j < _config.nodes; ++j)
        if (_view->aliveNode(j))
            m.set(j);
    return m;
}

void
PressServer::noteAwaiting(std::uint32_t tag, int peer)
{
    if (!_faultActive)
        return;
    auto it = _pending.find(tag);
    if (it != _pending.end())
        it->second.awaitingNode = peer;
}

void
PressServer::teardownVolatile()
{
    _pending.clear();
    for (const auto &r : _cache.snapshot())
        _cache.erase(r.file);
    _dir = CacheDirectory(_config, _id);
    _dissem.crash();
    _openConnections = 0;
    _servicingRemote = 0;
    _loadDir.setSelf(0);
    _comm.selfDown();
}

void
PressServer::faultCrash(std::uint32_t epoch)
{
    PRESS_ASSERT(_faultActive, "faultCrash without enableFaultMode");
    PRESS_ASSERT(!_crashed, "crash of a node that is already down");
    _crashed = true;
    _view->apply(_id, fault::NodeState::Dead, epoch, _sim.now());
    PRESS_TRACE_INSTANT(_tracer, _id, obs::Ev::NodeCrashed,
                        obs::requestId(_id, 0), epoch);
    teardownVolatile();
}

void
PressServer::faultRestart(std::uint32_t epoch)
{
    PRESS_ASSERT(_faultActive, "faultRestart without enableFaultMode");
    PRESS_ASSERT(_crashed, "restart of a node that is up");
    _crashed = false;
    _dissem.restart();
    _comm.selfUp();
    _view->apply(_id, fault::NodeState::Alive, epoch, _sim.now());
    PRESS_TRACE_INSTANT(_tracer, _id, obs::Ev::ViewChanged,
                        obs::requestId(_id, 0),
                        obs::packKindBytes(_id, epoch));
    _loadDir.setSelf(0);
    _dir.setAlive(aliveMask());
    // Announce Alive only after the survivors have revived their
    // endpoints toward this node (their peerDetected(Alive) events run
    // suspectDelay after the restart); an earlier announcement would
    // just die on their still-broken VIs.
    _sim.schedule(_config.fault.suspectDelay, [this, epoch]() {
        if (_crashed)
            return;
        _dissem.announce(News::ofMembership(_id, fault::NodeState::Alive,
                                            epoch, _id, /*hops=*/0));
    });
}

void
PressServer::faultLeave(std::uint32_t epoch)
{
    PRESS_ASSERT(_faultActive, "faultLeave without enableFaultMode");
    PRESS_ASSERT(!_crashed, "leave of a node that is already down");
    // Announce first, keep serving through the drain window; the
    // cluster schedules faultLeaveDown() drainDelay later.
    _view->apply(_id, fault::NodeState::Left, epoch, _sim.now());
    PRESS_TRACE_INSTANT(_tracer, _id, obs::Ev::ViewChanged,
                        obs::requestId(_id, 0),
                        obs::packKindBytes(_id, epoch));
    _dissem.announce(News::ofMembership(_id, fault::NodeState::Left, epoch,
                                        _id, /*hops=*/0));
}

void
PressServer::faultLeaveDown()
{
    if (_crashed)
        return;
    _crashed = true;
    teardownVolatile();
}

void
PressServer::peerSuspected(int peer, std::uint32_t epoch)
{
    if (_crashed)
        return;
    if (!_view->apply(peer, fault::NodeState::Suspected, epoch,
                      _sim.now()))
        return;
    PRESS_TRACE_INSTANT(_tracer, _id, obs::Ev::NodeSuspected,
                        obs::requestId(_id, 0),
                        obs::packKindBytes(peer, epoch));
    // Tear down this end of the connection: in-flight completions
    // surface as errors, new sends are suppressed. Not a recovery
    // trigger yet — a suspicion may still be revoked by a higher-
    // epoch Alive.
    _comm.peerDown(peer);
}

void
PressServer::peerDetected(int peer, std::uint32_t epoch,
                          fault::NodeState state)
{
    if (_crashed)
        return;
    News news = News::ofMembership(peer, state, epoch, _id, /*hops=*/0);
    if (applyMembership(news))
        _dissem.announce(news);
}

void
PressServer::peerLeftTeardown(int peer, std::uint32_t epoch)
{
    if (_crashed)
        return;
    // Force the view in case the Left rumor never arrived, then tear
    // down through the once-per-departure gate (the rumor path may
    // already have scheduled the same teardown).
    applyMembership(News::ofMembership(peer, fault::NodeState::Left, epoch,
                                       _id, /*hops=*/0));
    leftHardTeardown(peer, epoch);
}

void
PressServer::leftHardTeardown(int peer, std::uint32_t epoch)
{
    if (_crashed || _leftTeardown[static_cast<std::size_t>(peer)] >= epoch)
        return;
    _leftTeardown[static_cast<std::size_t>(peer)] = epoch;
    _comm.peerDown(peer);
    recoverFromDeath(peer);
}

bool
PressServer::applyMembership(const News &n)
{
    int subject = n.subject;
    std::uint32_t epoch = n.epoch;
    auto state = static_cast<fault::NodeState>(n.state);
    if (!_view->apply(subject, state, epoch, _sim.now()))
        return false; // stale or duplicate news
    PRESS_TRACE_INSTANT(_tracer, _id, obs::Ev::ViewChanged,
                        obs::requestId(_id, 0),
                        obs::packKindBytes(subject, epoch));
    if (subject == _id)
        return true;
    switch (state) {
      case fault::NodeState::Suspected:
        _comm.peerDown(subject);
        break;
      case fault::NodeState::Dead:
        _comm.peerDown(subject);
        recoverFromDeath(subject);
        break;
      case fault::NodeState::Left:
        // Graceful departure: stop handing the leaver new work
        // (aliveNode() is now false) but let in-flight traffic drain,
        // then run the hard teardown. Survivors that were up for the
        // departure also get a pre-scheduled peerLeftTeardown(); the
        // epoch gate in leftHardTeardown() makes whichever path fires
        // second a no-op. The rumor path matters for a node that was
        // down during the leave: its pre-scheduled teardown was
        // dropped, and without this it would keep routing to the
        // departed node forever.
        _sim.schedule(_config.fault.drainDelay, [this, subject, epoch]() {
            leftHardTeardown(subject, epoch);
        });
        break;
      case fault::NodeState::Alive:
        _comm.peerUp(subject);
        recoverFromRejoin(subject);
        break;
    }
    return true;
}

void
PressServer::reannounceGained(const NodeMask &before, const NodeMask &after)
{
    if (!_dir.canGain(before, after))
        return;
    int announced = 0;
    for (const auto &r : _cache.snapshot()) {
        if (announced >= _config.fault.announceCap)
            break;
        NodeMask gained = _dir.gainedOwners(r.file, before, after);
        if (gained.none())
            continue;
        ++announced;
        ++_stats.reAnnouncedFiles;
        for (int j = 0; j < _config.nodes; ++j) {
            if (!gained.test(j))
                continue;
            if (j == _id)
                _dir.update(_id, r.file, true);
            else
                _dissem.tell(j, News::ofCaching(_id, r.file, true));
        }
    }
}

void
PressServer::recoverFromDeath(int peer)
{
    // The dead node must never win a least-loaded pick again.
    _loadDir.update(peer, DeadLoad);

    // The dead node's cache died with it. Shard handoff: files whose
    // owner moved away from the dead node are re-announced to the new
    // owner, rebuilding the map it cannot inherit (a replicated death
    // gains nobody).
    _dir.dropNode(peer);
    NodeMask alive = aliveMask();
    NodeMask before = alive;
    before.set(peer);
    _dir.setAlive(alive);
    reannounceGained(before, alive);

    // Retry requests stranded on the dead peer, at this — the initial
    // — node, with capped exponential backoff. Tags are collected and
    // sorted so the scan order never depends on hash-map iteration.
    std::vector<std::uint32_t> stranded;
    stranded.reserve(_pending.size());
    for (auto it = _pending.begin(); it != _pending.end(); ++it)
        if (it->second.awaitingNode == peer)
            stranded.push_back(it->first);
    std::sort(stranded.begin(), stranded.end());
    for (std::uint32_t tag : stranded) {
        Pending &p = _pending[tag];
        p.awaitingNode = -1;
        int attempt = p.retries++;
        ++_stats.requestsRetried;
        PRESS_TRACE_INSTANT(_tracer, _id, obs::Ev::RequestRetried,
                            obs::requestId(_id, tag),
                            static_cast<std::uint64_t>(p.retries));
        if (p.retries > _config.fault.retry.maxAttempts) {
            // Out of budget: stop going remote, serve from local disk.
            serveLocal(p.file, tag);
            continue;
        }
        _sim.schedule(_config.fault.retry.delayFor(attempt),
                      [this, tag]() { retryNow(tag); });
    }
}

void
PressServer::recoverFromRejoin(int peer)
{
    // Rejoin view-sync. While a node is down its membership handlers
    // drop every event, so a rejoiner that overlapped another node's
    // crash or restart wakes up with a stale view: it may keep
    // forwarding to a node that is still dead, or keep treating a
    // node that restarted during its own downtime as dead and drop
    // all its traffic. Replay our belief about every node that has
    // ever transitioned; the epoch merge on the rejoiner's side
    // discards anything it already knows. hops=1 keeps piggy-back
    // floods from re-amplifying the replay.
    for (int n = 0; n < _config.nodes; ++n) {
        if (n == _id || n == peer || _view->epoch(n) == 0)
            continue;
        _dissem.tell(peer, News::ofMembership(n, _view->state(n),
                                              _view->epoch(n), _id,
                                              /*hops=*/1));
    }
    _loadDir.update(peer, 0);
    // The rejoined node's directory is empty. Replicated, it gains
    // every file, so every survivor re-announces its residency to it
    // and one round rebuilds its map; sharded, it gains back the
    // shards that had been walked past it.
    NodeMask alive = aliveMask(); // includes peer again
    NodeMask before = alive;
    before.clear(peer);
    _dir.setAlive(alive);
    reannounceGained(before, alive);
}

void
PressServer::retryNow(std::uint32_t tag)
{
    if (_crashed)
        return;
    auto it = _pending.find(tag);
    if (it == _pending.end() || it->second.awaitingNode >= 0)
        return; // served, or re-forwarded by an earlier retry
    FileId file = it->second.file;
    _node.cpu().submit(_cal.service.loopPass, CatService,
                       [this, file, tag]() {
                           if (_crashed ||
                               _pending.find(tag) == _pending.end())
                               return;
                           dispatch(file, tag);
                       });
}

} // namespace press::core
