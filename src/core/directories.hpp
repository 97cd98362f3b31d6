/**
 * @file
 * Per-node directories of cluster-wide locality and load information.
 *
 * Each PRESS node keeps (1) the last load value it heard from every other
 * node and (2) which nodes cache which files. Both views are *eventually
 * consistent*: they are updated only by arriving messages, so they can be
 * stale — exactly the effect Section 3.3 studies.
 *
 * There is one cache-directory class. The paper's fully replicated
 * directory is the organisation in which every node owns every file;
 * the sharded one (docs/simulation.md) gives each file a single owner
 * and keeps a bounded hot set of the rest. The server asks the same
 * questions of both: who owns a file, what is known about it, and who
 * gained ownership when the alive set changed.
 */

#ifndef PRESS_CORE_DIRECTORIES_HPP
#define PRESS_CORE_DIRECTORIES_HPP

#include <array>
#include <cstdint>
#include <list>
#include <unordered_map>
#include <vector>

#include "core/config.hpp"
#include "storage/file_set.hpp"
#include "util/random.hpp"

namespace press::core {

/** Largest cluster the directories (and the scalability benches)
 *  support. */
inline constexpr int MaxNodes = 256;

/** A set of node ids as a fixed 256-bit mask. */
class NodeMask
{
  public:
    void set(int i) { _w[word(i)] |= bit(i); }
    void clear(int i) { _w[word(i)] &= ~bit(i); }
    bool test(int i) const { return (_w[word(i)] & bit(i)) != 0; }

    bool
    any() const
    {
        for (std::uint64_t w : _w)
            if (w)
                return true;
        return false;
    }
    bool none() const { return !any(); }

    int
    count() const
    {
        int n = 0;
        for (std::uint64_t w : _w)
            n += __builtin_popcountll(w);
        return n;
    }

    /** The members of this mask that are not in @p other. */
    NodeMask
    without(const NodeMask &other) const
    {
        NodeMask m;
        for (std::size_t i = 0; i < _w.size(); ++i)
            m._w[i] = _w[i] & ~other._w[i];
        return m;
    }

    bool operator==(const NodeMask &) const = default;

    /** Raw 64-bit word @p i (tests, compact printing). */
    std::uint64_t words(int i) const { return _w[i]; }
    static constexpr int Words = MaxNodes / 64;

  private:
    static std::size_t word(int i)
    {
        return static_cast<std::size_t>(i) / 64;
    }
    static std::uint64_t bit(int i)
    {
        return std::uint64_t{1} << (static_cast<unsigned>(i) % 64);
    }
    std::array<std::uint64_t, Words> _w{};
};

/** A node's view of every node's load (open connections). */
class LoadDirectory
{
  public:
    /** @param nodes  cluster size; @param self  the owning node's id. */
    LoadDirectory(int nodes, int self);

    /** Record a load report from @p node. */
    void update(int node, int load);

    /** Last known load of @p node (the owner's is always current). */
    int load(int node) const;

    /** The owner updates its own entry directly. */
    void setSelf(int load) { _loads[_self] = load; }

    /** Least-loaded node in the whole cluster (ties: lowest id). */
    int leastLoaded() const;

    int nodes() const { return static_cast<int>(_loads.size()); }
    int self() const { return _self; }

  private:
    std::vector<int> _loads;
    int _self;
};

/** Least-loaded member of @p mask per @p loads (ties: lowest id),
 *  skipping @p exclude; -1 when the mask is empty (or only holds
 *  @p exclude). */
int leastLoadedIn(const NodeMask &mask, const LoadDirectory &loads,
                  int nodes, int exclude = -1);

/** Uniformly random member of @p mask (no-load-balancing mode),
 *  skipping @p exclude; -1 when empty. */
int randomIn(const NodeMask &mask, util::Rng &rng, int nodes,
             int exclude = -1);

/**
 * Which nodes cache which files, as one node sees it. Every file has
 * an *owner*, the node whose map for it is authoritative; the
 * organisation (PressConfig::directoryMode) only decides who owns
 * what:
 *
 *  - Replicated, the paper's design: every node owns every file, so
 *    each node holds the whole map and hears every caching change.
 *    lookup() always answers Owner; there is no hot set.
 *  - Sharded: file f belongs to shard hash(f) mod S, owned by node
 *    floor(shard * N / S) mod N (the next alive id when that one is
 *    down). Other nodes keep a bounded LRU hot set learned from file
 *    arrivals; press_server routes lookups that miss both through the
 *    owner (ForwardRoute::Lookup).
 */
class CacheDirectory
{
  public:
    /** The organisation @p config selects for node @p self: sharded
     *  under locality-conscious distribution with
     *  DirectoryMode::Sharded, replicated otherwise. */
    CacheDirectory(const PressConfig &config, int self);

    /**
     * @param nodes    cluster size
     * @param self     the owning node's id
     * @param shards   shard count S; 0 = replicated
     * @param hot_cap  hot-set capacity in entries (0 = no hot set)
     */
    CacheDirectory(int nodes, int self, int shards = 0,
                   std::uint32_t hot_cap = 0);

    /** False when every node owns every file (replicated). */
    bool sharded() const { return _shards > 0; }

    /** The shard of @p file (splitmix64 of the id, mod S). */
    static int shardOf(storage::FileId file, int shards);

    /** The node owning @p file (this node when replicated). */
    int ownerOf(storage::FileId file) const;

    /** True when this node's map for @p file is authoritative. */
    bool
    owns(storage::FileId file) const
    {
        return !sharded() || ownerOf(file) == _self;
    }

    /**
     * Nodes that own @p file under the @p after alive set but not
     * under @p before: everyone who came back when replicated, the
     * new shard owner when the shard moved. Recovery re-announces
     * resident files to these nodes after a membership change.
     */
    NodeMask gainedOwners(storage::FileId file, const NodeMask &before,
                          const NodeMask &after) const;

    /** Whether gainedOwners() can be non-empty for any file between
     *  these alive sets: replicated only when a node came back; a
     *  shard can move on any change. */
    bool canGain(const NodeMask &before, const NodeMask &after) const;

    /** Apply a caching update for an owned file (asserts owns()). */
    void update(int node, storage::FileId file, bool cached);

    /** What the local node knows about @p file's caching set. */
    enum class Answer {
        Owner,   ///< authoritative: this node owns the file
        Hot,     ///< best-effort: from the hot set (possibly stale)
        Unknown, ///< nothing local: ask the owner
    };

    /** Resolve @p file locally; fills @p out (empty mask on Owner
     *  answers for uncached files). */
    Answer lookup(storage::FileId file, NodeMask &out) const;

    /**
     * Learn "node @p node caches @p file" (or not) from a passing
     * message: file arrivals, owner replies. Sharded only; a
     * replicated node learns caching state from announcements alone.
     * Owned files go to the authoritative map, others into the LRU
     * hot set (evicting the oldest entry beyond capacity).
     * cached == false clears the bit and drops empty entries.
     */
    void hotLearn(storage::FileId file, int node, bool cached);

    /** Authoritative entries this node holds (its shard load). */
    std::size_t ownedFiles() const { return _owned.size(); }

    /** Hot-set entries currently held. */
    std::size_t hotFiles() const { return _hot.size(); }

    /** Total directory entries (the memory footprint the scalability
     *  benches compare across organisations). */
    std::size_t entries() const { return _owned.size() + _hot.size(); }

    /**
     * Fault recovery: restrict shard ownership to the @p alive nodes.
     * A shard whose primary owner is down maps to the next alive node
     * id, a pure function of the alive set, so every survivor computes
     * the same remapping without coordination. Authoritative entries
     * this node no longer owns are dropped (the new owner rebuilds
     * them from re-announcements).
     */
    void setAlive(const NodeMask &alive);

    /** Fault recovery: forget @p node from every caching set (its
     *  cache died with it). */
    void dropNode(int node);

  private:
    struct HotEntry {
        NodeMask mask;
        std::list<storage::FileId>::iterator lru;
    };

    /** A sharded @p file's owner while every node is alive. */
    int primaryOwner(storage::FileId file) const;
    /** A sharded @p file's owner under the @p alive set. */
    int ownerIn(storage::FileId file, const NodeMask &alive) const;
    void touchHot(storage::FileId file, HotEntry &e);
    void evictHotOverflow();

    int _nodes;
    int _self;
    int _shards;
    std::uint32_t _hotCap;
    bool _faultActive = false; ///< setAlive() was called at least once
    NodeMask _alive;
    std::unordered_map<storage::FileId, NodeMask> _owned;
    std::unordered_map<storage::FileId, HotEntry> _hot;
    std::list<storage::FileId> _hotLru; ///< front = most recent
};

} // namespace press::core

#endif // PRESS_CORE_DIRECTORIES_HPP
