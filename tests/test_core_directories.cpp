/**
 * @file
 * Tests for the locality and load directories (the cache directory in
 * both its organisations).
 */

#include <gtest/gtest.h>

#include <set>
#include <vector>

#include "core/directories.hpp"

using press::core::CacheDirectory;
using press::core::LoadDirectory;
using press::core::leastLoadedIn;
using press::core::NodeMask;
using press::core::randomIn;
using press::util::Rng;

TEST(NodeMask, SetTestClearAcrossWords)
{
    NodeMask m;
    EXPECT_TRUE(m.none());
    m.set(0);
    m.set(63);
    m.set(64);
    m.set(255);
    EXPECT_TRUE(m.test(0));
    EXPECT_TRUE(m.test(63));
    EXPECT_TRUE(m.test(64));
    EXPECT_TRUE(m.test(255));
    EXPECT_FALSE(m.test(1));
    EXPECT_EQ(m.count(), 4);
    m.clear(64);
    EXPECT_FALSE(m.test(64));
    EXPECT_EQ(m.count(), 3);
    EXPECT_TRUE(m.any());
}

TEST(LoadDirectory, UpdatesAndReads)
{
    LoadDirectory d(4, 0);
    EXPECT_EQ(d.load(3), 0);
    d.update(3, 55);
    EXPECT_EQ(d.load(3), 55);
    d.setSelf(10);
    EXPECT_EQ(d.load(0), 10);
}

TEST(LoadDirectory, LeastLoadedBreaksTiesLow)
{
    LoadDirectory d(4, 0);
    d.update(0, 5);
    d.update(1, 3);
    d.update(2, 3);
    d.update(3, 9);
    EXPECT_EQ(d.leastLoaded(), 1);
}

namespace {

/** What @p d knows about @p file, whatever its answer. */
NodeMask
maskOf(const CacheDirectory &d, press::storage::FileId file)
{
    NodeMask m;
    d.lookup(file, m);
    return m;
}

} // namespace

// The replicated organisation: every node owns every file.

TEST(CacheDirectory, UpdateAndQuery)
{
    CacheDirectory d(8, 0);
    EXPECT_TRUE(maskOf(d, 42).none());
    d.update(3, 42, true);
    EXPECT_TRUE(maskOf(d, 42).test(3));
    EXPECT_FALSE(maskOf(d, 42).test(2));
    d.update(5, 42, true);
    EXPECT_EQ(maskOf(d, 42).words(0), (1u << 3) | (1u << 5));
    d.update(3, 42, false);
    EXPECT_FALSE(maskOf(d, 42).test(3));
    EXPECT_TRUE(maskOf(d, 42).any());
    d.update(5, 42, false);
    EXPECT_TRUE(maskOf(d, 42).none());
    EXPECT_EQ(d.entries(), 0u);
}

TEST(CacheDirectory, EvictUnknownFileIsNoop)
{
    CacheDirectory d(4, 0);
    d.update(1, 7, false);
    EXPECT_TRUE(maskOf(d, 7).none());
    EXPECT_EQ(d.entries(), 0u);
}

TEST(CacheDirectory, LeastLoadedCaching)
{
    CacheDirectory d(4, 0);
    LoadDirectory loads(4, 0);
    d.update(1, 9, true);
    d.update(2, 9, true);
    loads.update(1, 50);
    loads.update(2, 20);
    EXPECT_EQ(leastLoadedIn(maskOf(d, 9), loads, 4), 2);
    loads.update(2, 90);
    EXPECT_EQ(leastLoadedIn(maskOf(d, 9), loads, 4), 1);
    EXPECT_EQ(leastLoadedIn(maskOf(d, 1234), loads, 4), -1);
}

TEST(CacheDirectory, RandomCachingCoversAllHolders)
{
    CacheDirectory d(8, 0);
    d.update(2, 5, true);
    d.update(4, 5, true);
    d.update(7, 5, true);
    Rng rng(3);
    std::set<int> seen;
    for (int i = 0; i < 200; ++i)
        seen.insert(randomIn(maskOf(d, 5), rng, 8));
    EXPECT_EQ(seen, (std::set<int>{2, 4, 7}));
    EXPECT_EQ(randomIn(maskOf(d, 999), rng, 8), -1);
}

TEST(CacheDirectory, RejectsOversizedClusters)
{
    EXPECT_DEATH(CacheDirectory d(257, 0), "1..256");
}

TEST(CacheDirectory, ReplicatedOwnsEveryFileAndIgnoresHotLearn)
{
    CacheDirectory d(8, 5);
    EXPECT_FALSE(d.sharded());
    NodeMask m;
    for (press::storage::FileId f = 0; f < 100; ++f) {
        EXPECT_TRUE(d.owns(f));
        EXPECT_EQ(d.ownerOf(f), 5);
        EXPECT_EQ(d.lookup(f, m), CacheDirectory::Answer::Owner);
    }
    // File arrivals teach a replicated node nothing: only caching
    // announcements do.
    d.hotLearn(7, 2, true);
    EXPECT_TRUE(maskOf(d, 7).none());
    EXPECT_EQ(d.entries(), 0u);
    // Churn does not move ownership either.
    NodeMask alive;
    for (int j = 0; j < 8; ++j)
        if (j != 3)
            alive.set(j);
    d.update(1, 7, true);
    d.setAlive(alive);
    EXPECT_TRUE(d.owns(7));
    EXPECT_TRUE(maskOf(d, 7).test(1));
}

TEST(CacheDirectory, GainedOwnersAfterDeathAndRejoin)
{
    const int nodes = 8;
    NodeMask all, without3;
    for (int j = 0; j < nodes; ++j) {
        all.set(j);
        if (j != 3)
            without3.set(j);
    }

    // Replicated: a rejoin gains the rejoiner for every file, a death
    // gains nobody.
    CacheDirectory repl(nodes, 0);
    NodeMask rejoiner;
    rejoiner.set(3);
    for (press::storage::FileId f = 0; f < 50; ++f) {
        EXPECT_EQ(repl.gainedOwners(f, without3, all), rejoiner);
        EXPECT_TRUE(repl.gainedOwners(f, all, without3).none());
    }

    // Sharded: exactly the files node 3 owned move to node 4 on its
    // death and back on its rejoin; every other file gains nobody.
    CacheDirectory shard(nodes, 0, 16, 0);
    int moved = 0;
    for (press::storage::FileId f = 0; f < 500; ++f) {
        NodeMask death = shard.gainedOwners(f, all, without3);
        NodeMask back = shard.gainedOwners(f, without3, all);
        if (shard.ownerOf(f) == 3) {
            ++moved;
            EXPECT_EQ(death.count(), 1);
            EXPECT_TRUE(death.test(4));
            EXPECT_EQ(back, rejoiner);
        } else {
            EXPECT_TRUE(death.none());
            EXPECT_TRUE(back.none());
        }
    }
    EXPECT_GT(moved, 0);

    // canGain() bounds the recovery walk: replicated, only a rejoin can
    // gain anyone; sharded, any change can move a shard.
    EXPECT_TRUE(repl.canGain(without3, all));
    EXPECT_FALSE(repl.canGain(all, without3));
    EXPECT_TRUE(shard.canGain(all, without3));
    EXPECT_TRUE(shard.canGain(without3, all));
}

// The sharded organisation: one owner per file plus a hot set.

TEST(ShardedCacheDirectory, OwnershipPartitionsFiles)
{
    const int nodes = 8, shards = 16;
    CacheDirectory d(nodes, 0, shards, 4);
    EXPECT_TRUE(d.sharded());
    for (press::storage::FileId f = 0; f < 1000; ++f) {
        int s = CacheDirectory::shardOf(f, shards);
        EXPECT_GE(s, 0);
        EXPECT_LT(s, shards);
        int owner = d.ownerOf(f);
        EXPECT_GE(owner, 0);
        EXPECT_LT(owner, nodes);
        // Same shard -> same owner, deterministically.
        EXPECT_EQ(owner, CacheDirectory(nodes, 3, shards, 4).ownerOf(f));
    }
}

TEST(ShardedCacheDirectory, OwnerAnswersAuthoritatively)
{
    CacheDirectory d(4, 0, 4, 4);
    // Find a file node 0 owns.
    press::storage::FileId owned = 0;
    while (!d.owns(owned))
        ++owned;
    NodeMask m;
    EXPECT_EQ(d.lookup(owned, m), CacheDirectory::Answer::Owner);
    EXPECT_TRUE(m.none());
    d.update(2, owned, true);
    EXPECT_EQ(d.lookup(owned, m), CacheDirectory::Answer::Owner);
    EXPECT_TRUE(m.test(2));
    d.update(2, owned, false);
    EXPECT_EQ(d.lookup(owned, m), CacheDirectory::Answer::Owner);
    EXPECT_TRUE(m.none());
    EXPECT_EQ(d.ownedFiles(), 0u);
}

TEST(ShardedCacheDirectory, HotSetLearnsAndEvictsLru)
{
    CacheDirectory d(4, 0, 4, 2);
    // Collect files node 0 does NOT own.
    std::vector<press::storage::FileId> foreign;
    for (press::storage::FileId f = 0; foreign.size() < 3; ++f)
        if (!d.owns(f))
            foreign.push_back(f);

    NodeMask m;
    EXPECT_EQ(d.lookup(foreign[0], m), CacheDirectory::Answer::Unknown);
    d.hotLearn(foreign[0], 1, true);
    d.hotLearn(foreign[1], 2, true);
    EXPECT_EQ(d.hotFiles(), 2u);
    EXPECT_EQ(d.lookup(foreign[0], m), CacheDirectory::Answer::Hot);
    EXPECT_TRUE(m.test(1));
    // Touch foreign[0] so foreign[1] is the LRU victim.
    d.hotLearn(foreign[0], 3, true);
    d.hotLearn(foreign[2], 1, true);
    EXPECT_EQ(d.hotFiles(), 2u);
    EXPECT_EQ(d.lookup(foreign[1], m), CacheDirectory::Answer::Unknown);
    EXPECT_EQ(d.lookup(foreign[0], m), CacheDirectory::Answer::Hot);
    EXPECT_TRUE(m.test(1));
    EXPECT_TRUE(m.test(3));
}

TEST(ShardedCacheDirectory, EntriesBoundedByShardPlusHotSet)
{
    // The memory story: each of N nodes holds only ~F/S of the F files
    // plus a bounded hot set, vs F entries replicated everywhere.
    const int nodes = 16, shards = 16;
    const press::storage::FileId files = 4096;
    CacheDirectory d(nodes, 0, shards, 8);
    CacheDirectory repl(nodes, 0);
    for (press::storage::FileId f = 0; f < files; ++f) {
        repl.update(1, f, true);
        if (d.owns(f))
            d.update(1, f, true);
        else
            d.hotLearn(f, 1, true);
    }
    EXPECT_EQ(repl.entries(), files);
    // splitmix64 spreads files near-uniformly over shards.
    EXPECT_LT(d.entries(), files / shards + 8 + files / (shards * 4));
    EXPECT_GE(d.ownedFiles(), files / (shards * 2));
}
