#include "directories.hpp"

#include "core/dissemination.hpp"
#include "util/logging.hpp"

namespace press::core {

LoadDirectory::LoadDirectory(int nodes, int self)
    : _loads(nodes, 0), _self(self)
{
    PRESS_ASSERT(nodes > 0, "empty cluster");
    PRESS_ASSERT(self >= 0 && self < nodes, "bad self id");
}

void
LoadDirectory::update(int node, int load)
{
    PRESS_ASSERT(node >= 0 && node < nodes(), "bad node id ", node);
    _loads[node] = load;
}

int
LoadDirectory::load(int node) const
{
    PRESS_ASSERT(node >= 0 && node < nodes(), "bad node id ", node);
    return _loads[node];
}

int
LoadDirectory::leastLoaded() const
{
    int best = 0;
    for (int i = 1; i < nodes(); ++i)
        if (_loads[i] < _loads[best])
            best = i;
    return best;
}

int
leastLoadedIn(const NodeMask &mask, const LoadDirectory &loads, int nodes,
              int exclude)
{
    int best = -1;
    for (int i = 0; i < nodes; ++i) {
        if (i == exclude || !mask.test(i))
            continue;
        if (best < 0 || loads.load(i) < loads.load(best))
            best = i;
    }
    return best;
}

int
randomIn(const NodeMask &mask, util::Rng &rng, int nodes, int exclude)
{
    int count = 0;
    for (int i = 0; i < nodes; ++i)
        if (i != exclude && mask.test(i))
            ++count;
    if (count == 0)
        return -1;
    int pick = static_cast<int>(rng.uniformInt(count));
    for (int i = 0; i < nodes; ++i) {
        if (i == exclude || !mask.test(i))
            continue;
        if (pick == 0)
            return i;
        --pick;
    }
    return -1;
}

namespace {

/** Shard count for @p config: 0 (replicated) unless the sharded
 *  directory is in use. */
int
shardsFor(const PressConfig &config)
{
    if (config.distribution != Distribution::LocalityConscious ||
        config.directoryMode != DirectoryMode::Sharded)
        return 0;
    PRESS_ASSERT(config.dirShards >= 1, "need at least one shard");
    return config.dirShards;
}

} // namespace

CacheDirectory::CacheDirectory(const PressConfig &config, int self)
    : CacheDirectory(config.nodes, self, shardsFor(config),
                     config.dirHotSet)
{
}

CacheDirectory::CacheDirectory(int nodes, int self, int shards,
                               std::uint32_t hot_cap)
    : _nodes(nodes), _self(self), _shards(shards), _hotCap(hot_cap)
{
    PRESS_ASSERT(nodes > 0 && nodes <= MaxNodes,
                 "CacheDirectory supports 1..", MaxNodes, " nodes, got ",
                 nodes);
    PRESS_ASSERT(self >= 0 && self < nodes, "bad self id");
    PRESS_ASSERT(shards >= 0, "negative shard count");
}

int
CacheDirectory::shardOf(storage::FileId file, int shards)
{
    // The same deterministic mix the gossip sampler uses: stable
    // across runs, platforms and thread counts.
    return static_cast<int>(
        DisseminationEngine::mix64(static_cast<std::uint64_t>(file)) %
        static_cast<std::uint64_t>(shards));
}

int
CacheDirectory::ownerOf(storage::FileId file) const
{
    if (!sharded())
        return _self;
    return _faultActive ? ownerIn(file, _alive) : primaryOwner(file);
}

int
CacheDirectory::primaryOwner(storage::FileId file) const
{
    auto s = static_cast<std::uint64_t>(shardOf(file, _shards));
    return static_cast<int>(s * static_cast<std::uint64_t>(_nodes) /
                            static_cast<std::uint64_t>(_shards)) %
           _nodes;
}

int
CacheDirectory::ownerIn(storage::FileId file, const NodeMask &alive) const
{
    int primary = primaryOwner(file);
    if (alive.test(primary))
        return primary;
    // Walk to the next alive id: pure function of (file, alive set),
    // so all survivors agree on the new owner without coordination.
    for (int step = 1; step < _nodes; ++step) {
        int cand = (primary + step) % _nodes;
        if (alive.test(cand))
            return cand;
    }
    return primary; // never-all-down is enforced by FaultPlan::validate
}

NodeMask
CacheDirectory::gainedOwners(storage::FileId file, const NodeMask &before,
                             const NodeMask &after) const
{
    if (!sharded())
        return after.without(before);
    NodeMask gained;
    int now_owner = ownerIn(file, after);
    if (ownerIn(file, before) != now_owner)
        gained.set(now_owner);
    return gained;
}

bool
CacheDirectory::canGain(const NodeMask &before, const NodeMask &after) const
{
    return sharded() || after.without(before).any();
}

void
CacheDirectory::setAlive(const NodeMask &alive)
{
    PRESS_ASSERT(alive.any(), "alive set cannot be empty");
    _faultActive = true;
    _alive = alive;
    // Ownership may have moved away from this node; the new owner
    // rebuilds the entries from re-announcements.
    for (auto it = _owned.begin(); it != _owned.end();) {
        if (!owns(it->first))
            it = _owned.erase(it);
        else
            ++it;
    }
}

void
CacheDirectory::dropNode(int node)
{
    PRESS_ASSERT(node >= 0 && node < _nodes, "bad node id ", node);
    for (auto it = _owned.begin(); it != _owned.end();) {
        it->second.clear(node);
        if (it->second.none())
            it = _owned.erase(it);
        else
            ++it;
    }
    for (auto it = _hot.begin(); it != _hot.end();) {
        it->second.mask.clear(node);
        if (it->second.mask.none()) {
            _hotLru.erase(it->second.lru);
            it = _hot.erase(it);
        } else {
            ++it;
        }
    }
}

void
CacheDirectory::update(int node, storage::FileId file, bool cached)
{
    PRESS_ASSERT(node >= 0 && node < _nodes, "bad node id ", node);
    PRESS_ASSERT(owns(file), "caching update for foreign shard ",
                 shardOf(file, _shards), " at node ", _self);
    if (cached) {
        _owned[file].set(node);
    } else {
        auto it = _owned.find(file);
        if (it == _owned.end())
            return;
        it->second.clear(node);
        if (it->second.none())
            _owned.erase(it);
    }
}

CacheDirectory::Answer
CacheDirectory::lookup(storage::FileId file, NodeMask &out) const
{
    if (owns(file)) {
        auto it = _owned.find(file);
        out = it == _owned.end() ? NodeMask{} : it->second;
        return Answer::Owner;
    }
    auto it = _hot.find(file);
    if (it == _hot.end()) {
        out = NodeMask{};
        return Answer::Unknown;
    }
    out = it->second.mask;
    return Answer::Hot;
}

void
CacheDirectory::touchHot(storage::FileId file, HotEntry &e)
{
    _hotLru.erase(e.lru);
    _hotLru.push_front(file);
    e.lru = _hotLru.begin();
}

void
CacheDirectory::evictHotOverflow()
{
    while (_hot.size() > _hotCap) {
        storage::FileId victim = _hotLru.back();
        _hotLru.pop_back();
        _hot.erase(victim);
    }
}

void
CacheDirectory::hotLearn(storage::FileId file, int node, bool cached)
{
    PRESS_ASSERT(node >= 0 && node < _nodes, "bad node id ", node);
    if (!sharded())
        return;
    if (owns(file)) {
        update(node, file, cached);
        return;
    }
    auto it = _hot.find(file);
    if (it == _hot.end()) {
        if (!cached || _hotCap == 0)
            return;
        _hotLru.push_front(file);
        HotEntry e;
        e.mask.set(node);
        e.lru = _hotLru.begin();
        _hot.emplace(file, std::move(e));
        evictHotOverflow();
        return;
    }
    if (cached) {
        it->second.mask.set(node);
        touchHot(file, it->second);
    } else {
        it->second.mask.clear(node);
        if (it->second.mask.none()) {
            _hotLru.erase(it->second.lru);
            _hot.erase(it);
        }
    }
}

} // namespace press::core
