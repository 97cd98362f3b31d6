#include "dissemination.hpp"

#include <algorithm>
#include <cstdlib>

#include "util/random.hpp"

namespace press::core {

DisseminationEngine::DisseminationEngine(sim::Simulator &sim,
                                         const PressConfig &config,
                                         int self, ClusterComm &comm,
                                         DisseminationStats &stats,
                                         LoadProvider load)
    : _sim(sim),
      _d(config.dissemination),
      _seed(config.seed), // cluster-wide; samples mix in (round, self)
      _self(self),
      _nodes(config.nodes),
      _comm(comm),
      _stats(stats),
      _load(std::move(load))
{
    PRESS_ASSERT(_nodes > 0, "empty cluster");
    PRESS_ASSERT(self >= 0 && self < _nodes, "bad self id");
    PRESS_ASSERT(_d.fanout >= 1, "fanout must be >= 1");

    using Kind = Dissemination::Kind;
    bool lc = config.distribution == Distribution::LocalityConscious;
    // Gossip and tree need somebody to tell: on one node they
    // degenerate to an idle load carrier and empty floods.
    bool scalable = lc && _nodes > 1 &&
                    (_d.kind == Kind::Gossip || _d.kind == Kind::Tree);
    Carrier wide = !scalable               ? Carrier::Flood
                   : _d.kind == Kind::Gossip ? Carrier::Gossip
                                             : Carrier::Tree;
    // Only the locality-conscious server reads load and caching news.
    Carrier load_carrier = Carrier::Off;
    if (lc && _d.kind == Kind::PiggyBack)
        load_carrier = Carrier::PiggyBack;
    else if (lc && _d.kind == Kind::Broadcast)
        load_carrier = Carrier::Flood;
    else if (scalable)
        load_carrier = wide;
    _carrierOf = {load_carrier, lc ? wide : Carrier::Off, wide};

    // The piggy-backed word is on the wire under Kind::PiggyBack
    // whatever the distribution, as Table 2 sizes it.
    if (_d.kind == Kind::PiggyBack)
        _comm.setLoadProvider(_load);

    if (scalable) {
        auto n = static_cast<std::size_t>(_nodes);
        _loadMaxSeen.assign(n, 0);
        _cachingSeen.assign(n, SeqWindow{});
        _loadSlots.assign(n, Slot{});
    }
}

void
DisseminationEngine::samplePeers(std::uint64_t seed, std::uint64_t round,
                                 int self, int nodes, int fanout,
                                 std::vector<int> &out)
{
    out.clear();
    if (nodes <= 1)
        return;
    int want = fanout < nodes - 1 ? fanout : nodes - 1;
    // Hash chain on (seed, round, self): deterministic, stateless, and
    // different per node and per round. Rejection keeps peers distinct;
    // the chain cannot stall because want <= nodes - 1.
    std::uint64_t x = util::mix64(
        seed ^ util::mix64(round ^ util::mix64(static_cast<std::uint64_t>(
                                       self + 0x51ed2701))));
    while (static_cast<int>(out.size()) < want) {
        x = util::mix64(x);
        int cand = static_cast<int>(x % static_cast<std::uint64_t>(nodes));
        if (cand == self)
            continue;
        bool dup = false;
        for (int p : out)
            if (p == cand) {
                dup = true;
                break;
            }
        if (!dup)
            out.push_back(cand);
    }
}

void
DisseminationEngine::treeChildren(int self, int root, int fanout,
                                  int nodes, std::vector<int> &out)
{
    out.clear();
    PRESS_ASSERT(self >= 0 && self < nodes && root >= 0 && root < nodes,
                 "bad tree node/root id");
    long pos = (self - root + nodes) % nodes;
    for (int c = 1; c <= fanout; ++c) {
        long child = static_cast<long>(fanout) * pos + c;
        if (child >= nodes)
            break;
        out.push_back(static_cast<int>((root + child) % nodes));
    }
}

int
DisseminationEngine::treeDepth(int nodes, int fanout)
{
    // Depth of the deepest heap position (nodes - 1).
    int depth = 0;
    long pos = nodes - 1;
    while (pos > 0) {
        pos = (pos - 1) / fanout;
        ++depth;
    }
    return depth;
}

int
DisseminationEngine::gossipTtl(int nodes, int fanout)
{
    // ceil(log_fanout nodes) + slack. Fanout 1 degenerates to a ring
    // walk; give it a linear budget.
    if (fanout <= 1)
        return nodes + 2;
    int levels = 0;
    long cover = 1;
    while (cover < nodes) {
        cover *= fanout;
        ++levels;
    }
    return levels + 4;
}

bool
DisseminationEngine::sendsBody(Dissemination::Kind kind, std::size_t body)
{
    using Kind = Dissemination::Kind;
    if (body == BodyIndex<LoadMsg>)
        return kind == Kind::Broadcast || kind == Kind::Tree;
    if (body == BodyIndex<LoadDigestMsg> ||
        body == BodyIndex<CachingDigestMsg>)
        return kind == Kind::Gossip;
    return true;
}

News
DisseminationEngine::fromWire(int from, const LoadMsg &m)
{
    return {News::Kind::Load, false, 0, m.origin >= 0 ? m.origin : from,
            m.seq, m.hops, m.load};
}

News
DisseminationEngine::fromWire(int from, const CachingMsg &m)
{
    return {News::Kind::Caching, m.cached, 0,
            m.origin >= 0 ? m.origin : from, m.seq, m.hops, 0, m.file};
}

News
DisseminationEngine::fromWire(int, const MembershipMsg &m)
{
    return {News::Kind::Membership, false, m.state, m.origin, 0, m.hops,
            0, storage::InvalidFile, m.subject, m.epoch};
}

void
DisseminationEngine::tell(int dst, const News &n)
{
    // A wire origin of -1 says "the sender itself".
    int origin = n.seq > 0 ? n.origin : -1;
    switch (n.kind) {
      case News::Kind::Load:
        _comm.send(dst, LoadMsg{n.load, origin, n.seq, n.hops});
        return;
      case News::Kind::Caching:
        _comm.send(dst, CachingMsg{n.file, n.cached, origin, n.seq, n.hops});
        return;
      case News::Kind::Membership:
        ++_stats.membershipSends;
        _comm.send(dst, MembershipMsg{n.subject, n.state, n.epoch,
                                      n.origin, n.hops});
        return;
    }
}

void
DisseminationEngine::announce(std::span<const News> batch)
{
    if (batch.empty())
        return;
    const News &first = batch.front();
    if (first.kind == News::Kind::Membership) {
        for (const News &n : batch)
            spreadMembership(n);
        return;
    }
    bool load = first.kind == News::Kind::Load;
    switch (carrierOf(first.kind)) {
      case Carrier::Off:
      case Carrier::PiggyBack:
        return; // piggy-backed loads ride on outgoing messages
      case Carrier::Flood:
        // The paper's threshold broadcast starts from 0 with no
        // announced-once flag, unlike the rumor carriers' loadDirty().
        if (load) {
            if (std::abs(first.load - _floodLoad) < _d.threshold)
                return;
            _floodLoad = first.load;
        }
        flood(batch);
        return;
      case Carrier::Gossip:
        // A dirty load makes the next round worth running; the round
        // itself stamps and pushes the rumor (temporal coalescing: at
        // most one announcement per interval however fast load moves).
        if (load) {
            if (loadDirty(first.load))
                scheduleRound();
            return;
        }
        for (const News &n : batch)
            _cachingQueue.push_back(Slot{
                stamp(n, gossipTtl(_nodes, _d.fanout)), GossipRepeats});
        scheduleRound();
        return;
      case Carrier::Tree:
        if (load) {
            maybeEmitLoadWave(first.load);
            return;
        }
        for (const News &n : batch) {
            ++_stats.cachingWaves;
            treeRelay(stamp(n, /*hops=*/0));
        }
        return;
    }
}

void
DisseminationEngine::flood(std::span<const News> batch)
{
    for (int j = 0; j < _nodes; ++j) {
        if (j == _self)
            continue;
        for (const News &n : batch)
            tell(j, n);
    }
}

void
DisseminationEngine::spreadMembership(const News &n)
{
    PRESS_ASSERT(_view, "membership news without a membership view");
    News out = n;
    out.hops = n.hops + 1;
    auto push = [&](int dst) {
        if (dst == _self || dst == n.subject || !_view->aliveNode(dst))
            return;
        tell(dst, out);
    };

    switch (carrierOf(News::Kind::Membership)) {
      case Carrier::Gossip:
        // Fanout-k sample, reseeded per (epoch, hop) so successive
        // hops cover different peers; bounded by the same TTL the
        // load/caching rumors use.
        if (out.hops > gossipTtl(_nodes, _d.fanout))
            return;
        samplePeers(_seed ^ 0x6d656d6265727368ull,
                    (static_cast<std::uint64_t>(n.epoch) << 8) |
                        static_cast<std::uint64_t>(out.hops),
                    _self, _nodes, _d.fanout, _peers);
        for (int p : _peers)
            push(p);
        return;
      case Carrier::Tree: {
        // Source-rooted k-ary subtree, like every other tree wave.
        int root = n.origin >= 0 && n.origin < _nodes ? n.origin : _self;
        treeChildren(_self, root, _d.fanout, _nodes, _peers);
        for (int c : _peers)
            push(c);
        return;
      }
      default:
        // One unicast flood from first-hand observers only. Every
        // survivor learns each change from its own detector events
        // anyway; the flood exists for convergence (a rumor can beat
        // the detector) and must not re-amplify.
        if (n.hops > 0)
            return;
        for (int j = 0; j < _nodes; ++j)
            push(j);
        return;
    }
}

bool
DisseminationEngine::loadDirty(int current) const
{
    return !_announcedOnce ||
           std::abs(current - _lastAnnouncedLoad) >= _d.threshold;
}

News
DisseminationEngine::stamp(News n, int hops)
{
    n.origin = _self;
    if (n.kind == News::Kind::Load) {
        _lastAnnouncedLoad = n.load;
        _announcedOnce = true;
        n.seq = ++_loadSeq;
    } else {
        n.seq = ++_cachingSeq;
    }
    n.hops = hops;
    return n;
}

bool
DisseminationEngine::SeqWindow::accept(std::uint32_t seq)
{
    if (seq > maxSeq) {
        std::uint32_t shift = seq - maxSeq;
        recent = shift >= 64 ? 0 : (recent << shift) | (1ULL << (shift - 1));
        maxSeq = seq;
        return true;
    }
    std::uint32_t behind = maxSeq - seq;
    if (behind == 0)
        return false; // maxSeq itself: already seen
    if (behind > 64)
        return false; // older than the window: drop as a duplicate
    std::uint64_t bit = 1ULL << (behind - 1);
    if (recent & bit)
        return false;
    recent |= bit;
    return true;
}

bool
DisseminationEngine::admit(const News &n)
{
    if (n.kind == News::Kind::Membership || n.seq == 0)
        return true;
    PRESS_ASSERT(n.origin >= 0 && n.origin < _nodes && !_loadSlots.empty(),
                 "rumor with bad origin ", n.origin);
    // An own rumor echoed back has nothing to teach.
    auto o = static_cast<std::size_t>(n.origin);
    bool fresh = n.origin != _self &&
                 (n.kind == News::Kind::Load ? n.seq > _loadMaxSeen[o]
                                             : _cachingSeen[o].accept(n.seq));
    if (fresh && n.kind == News::Kind::Load)
        _loadMaxSeen[o] = n.seq;
    // A rejected copy may still widen the queued relay's hop budget
    // (same-tick delivery order is not guaranteed).
    if (!fresh && carrierOf(n.kind) == Carrier::Gossip)
        noteDuplicate(n);
    return fresh;
}

void
DisseminationEngine::relay(const News &n)
{
    if (n.kind == News::Kind::Membership) {
        spreadMembership(n);
        return;
    }
    if (n.seq == 0)
        return; // first-hand report: the sender told everyone itself
    if (carrierOf(n.kind) == Carrier::Gossip) {
        enqueueRelay(n);
        scheduleRound();
    } else {
        treeRelay(n);
    }
}

void
DisseminationEngine::enqueueRelay(const News &n)
{
    if (n.hops <= 0)
        return;
    News relay = n;
    relay.hops = n.hops - 1;
    if (relay.kind == News::Kind::Load) {
        Slot &slot = _loadSlots[static_cast<std::size_t>(relay.origin)];
        // A newer report for the same origin supersedes a queued one.
        if (slot.sendsLeft > 0 && slot.rumor.seq >= relay.seq)
            return;
        slot = Slot{relay, GossipRepeats};
        return;
    }
    _cachingQueue.push_back(Slot{relay, GossipRepeats});
}

void
DisseminationEngine::noteDuplicate(const News &n)
{
    if (n.hops <= 0 || n.origin == _self)
        return;
    int hops = n.hops - 1;
    if (n.kind == News::Kind::Load) {
        Slot &slot = _loadSlots[static_cast<std::size_t>(n.origin)];
        if (slot.sendsLeft > 0 && slot.rumor.seq == n.seq &&
            slot.rumor.hops < hops)
            slot.rumor.hops = hops;
        return;
    }
    for (Slot &slot : _cachingQueue)
        if (slot.rumor.origin == n.origin && slot.rumor.seq == n.seq) {
            if (slot.rumor.hops < hops)
                slot.rumor.hops = hops;
            return;
        }
}

bool
DisseminationEngine::hasWork(int current) const
{
    return loadDirty(current) || !_cachingQueue.empty() ||
           std::any_of(_loadSlots.begin(), _loadSlots.end(),
                       [](const Slot &s) { return s.sendsLeft > 0; });
}

void
DisseminationEngine::scheduleRound()
{
    if (_roundScheduled || _down)
        return;
    _roundScheduled = true;
    // De-phase rounds across nodes: rumor waves would otherwise arm
    // whole peer groups on the same cadence, and the quantized cost
    // model then lands independent chains' deliveries on identical
    // ticks at a shared destination — a genuine tick race (delivery
    // order would decide trace/credit interleaving). The jitter is a
    // pure function of (seed, self, next round) — no RNG state — so
    // runs stay bit-identical for any thread count.
    sim::Tick base = _d.interval;
    std::uint64_t h =
        util::mix64(_seed ^ (static_cast<std::uint64_t>(_self) << 40) ^
                    (_round + 1));
    sim::Tick jitter = static_cast<sim::Tick>(h % (base / 4 + 1));
    _sim.schedule(base + jitter, [this]() { runRound(); });
}

void
DisseminationEngine::runRound()
{
    _roundScheduled = false;
    if (_down)
        return; // armed before the crash; the node is gone
    ++_stats.gossipRounds;
    ++_round;
    int current = _load();
    if (loadDirty(current))
        _loadSlots[static_cast<std::size_t>(_self)] =
            Slot{stamp(News::ofLoad(_self, current),
                       gossipTtl(_nodes, _d.fanout)),
                 GossipRepeats};
    samplePeers(_seed, _round, _self, _nodes, _d.fanout, _peers);

    // Pack the round's rumors into per-peer digests: at most one Load
    // plus one Caching message per sampled peer, instead of one
    // message per (rumor, peer) pair. gossipRumorSends still counts
    // rumor-level pushes — the analytic quantity the table-2 bench
    // cross-checks — while the wire carries O(fanout) messages per
    // round however many rumors are due. Digest i goes to _peers[i]
    // (a multi-node sample is never empty).
    if (_digests.size() < _peers.size())
        _digests.resize(_peers.size());
    for (std::size_t i = 0; i < _peers.size(); ++i) {
        _digests[i].load.rumors.clear();
        _digests[i].caching.rumors.clear();
    }
    auto push = [&](Slot &slot) {
        const News &r = slot.rumor;
        for (std::size_t i = 0; i < _peers.size(); ++i) {
            ++_stats.gossipRumorSends;
            if (r.kind == News::Kind::Load)
                _digests[i].load.rumors.push_back(
                    LoadMsg{r.load, r.origin, r.seq, r.hops});
            else
                _digests[i].caching.rumors.push_back(
                    CachingMsg{r.file, r.cached, r.origin, r.seq, r.hops});
        }
        --slot.sendsLeft;
    };
    // Own load gets the first slot of every round.
    Slot &own = _loadSlots[static_cast<std::size_t>(_self)];
    if (own.sendsLeft > 0)
        push(own);
    // Caching rumors oldest first. The explicit (seq, origin) sort
    // makes the round a pure function of the queued *set*: two
    // same-tick arrivals enqueue in fabric-delivery order, which
    // the tick-race hunter's cross-domain permutations may swap.
    // (origin, seq) is unique per rumor, so the order is total and
    // the sort need not be stable.
    std::sort(_cachingQueue.begin(), _cachingQueue.end(),
              [](const Slot &a, const Slot &b) {
                  if (a.rumor.seq != b.rumor.seq)
                      return a.rumor.seq < b.rumor.seq;
                  return a.rumor.origin < b.rumor.origin;
              });
    for (Slot &slot : _cachingQueue)
        push(slot);
    std::erase_if(_cachingQueue,
                  [](const Slot &s) { return s.sendsLeft == 0; });
    // Relayed load rumors by ascending origin id.
    for (int o = 0; o < _nodes; ++o) {
        Slot &slot = _loadSlots[static_cast<std::size_t>(o)];
        if (o != _self && slot.sendsLeft > 0)
            push(slot);
    }
    for (std::size_t i = 0; i < _peers.size(); ++i) {
        if (!_digests[i].load.rumors.empty())
            _comm.send(_peers[i], _digests[i].load);
        if (!_digests[i].caching.rumors.empty())
            _comm.send(_peers[i], _digests[i].caching);
    }
    // Re-arm only while rumors are pending: an idle cluster goes
    // quiet and the simulation can drain.
    if (hasWork(_load()))
        scheduleRound();
}

void
DisseminationEngine::maybeEmitLoadWave(int current)
{
    if (!loadDirty(current))
        return;
    sim::Tick now = _sim.now();
    if (now >= _nextWaveAt) {
        emitLoadWave(current);
        return;
    }
    if (_waveScheduled)
        return;
    _waveScheduled = true;
    _sim.schedule(_nextWaveAt - now, [this]() {
        _waveScheduled = false;
        if (_down)
            return;
        int load = _load();
        if (loadDirty(load))
            emitLoadWave(load);
    });
}

void
DisseminationEngine::emitLoadWave(int current)
{
    ++_stats.loadWaves;
    News r = stamp(News::ofLoad(_self, current), /*hops=*/0);
    _nextWaveAt = _sim.now() + _d.interval;
    treeRelay(r);
}

void
DisseminationEngine::treeRelay(const News &n)
{
    treeChildren(_self, n.origin, _d.fanout, _nodes, _peers);
    News fwd = n;
    fwd.hops = n.hops + 1;
    for (int child : _peers)
        tell(child, fwd);
}

void
DisseminationEngine::crash()
{
    _down = true;
    _floodLoad = 0;
    _loadSeq = 0;
    _cachingSeq = 0;
    _lastAnnouncedLoad = 0;
    _announcedOnce = false;
    std::fill(_loadMaxSeen.begin(), _loadMaxSeen.end(), 0);
    std::fill(_cachingSeen.begin(), _cachingSeen.end(), SeqWindow{});
    std::fill(_loadSlots.begin(), _loadSlots.end(), Slot{});
    _cachingQueue.clear();
    _round = 0;
}

} // namespace press::core
