/**
 * @file
 * Tests for VIA memory registration.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "via/memory.hpp"

using press::via::MemoryRegistry;
using press::via::Payload;

TEST(MemoryRegistry, RegionsDoNotOverlap)
{
    MemoryRegistry reg;
    auto a = reg.registerMemory(10000);
    auto b = reg.registerMemory(5000);
    EXPECT_NE(a.handle, b.handle);
    bool disjoint = a.base + a.size <= b.base || b.base + b.size <= a.base;
    EXPECT_TRUE(disjoint);
}

TEST(MemoryRegistry, FindExactAndInterior)
{
    MemoryRegistry reg;
    auto r = reg.registerMemory(4096);
    EXPECT_TRUE(reg.find(r.base, 4096).has_value());
    EXPECT_TRUE(reg.find(r.base + 100, 1000).has_value());
    EXPECT_FALSE(reg.find(r.base + 100, 4096).has_value()); // runs past
    EXPECT_FALSE(reg.find(r.base - 1, 1).has_value());
    EXPECT_FALSE(reg.find(r.base + 4096, 1).has_value());
}

TEST(MemoryRegistry, FindReturnsTheWholeRegion)
{
    MemoryRegistry reg;
    reg.registerMemory(64);
    auto r = reg.registerMemory(4096);
    auto found = reg.find(r.base + 1000, 8);
    ASSERT_TRUE(found.has_value());
    EXPECT_EQ(found->handle, r.handle);
    EXPECT_EQ(found->base, r.base);
    EXPECT_EQ(found->size, 4096u);
    // The one-past-the-end address holds an empty range, as before.
    EXPECT_TRUE(reg.find(r.base + 4096, 0).has_value());
    ASSERT_TRUE(reg.deregister(r.handle));
    EXPECT_FALSE(reg.find(r.base, 0).has_value());
}

TEST(MemoryRegistry, DeregisterRemovesRegion)
{
    MemoryRegistry reg;
    auto r = reg.registerMemory(4096);
    EXPECT_TRUE(reg.deregister(r.handle));
    EXPECT_FALSE(reg.find(r.base, 1).has_value());
    EXPECT_FALSE(reg.deregister(r.handle)); // second time fails
    EXPECT_EQ(reg.regions(), 0u);
}

TEST(MemoryRegistry, WriteHookFiresWithOffset)
{
    MemoryRegistry reg;
    std::uint64_t seen_offset = 0, seen_len = 0;
    std::uint32_t seen_imm = 0;
    auto r = reg.registerMemory(
        8192, [&](std::uint64_t off, std::uint64_t len, const Payload &,
                  std::uint32_t imm) {
            seen_offset = off;
            seen_len = len;
            seen_imm = imm;
        });
    EXPECT_TRUE(reg.deliverWrite(r.base + 256, 64, nullptr, 77));
    EXPECT_EQ(seen_offset, 256u);
    EXPECT_EQ(seen_len, 64u);
    EXPECT_EQ(seen_imm, 77u);
}

TEST(MemoryRegistry, WriteOutsideRegionsRejected)
{
    MemoryRegistry reg;
    auto r = reg.registerMemory(4096);
    EXPECT_FALSE(reg.deliverWrite(r.base + 4090, 100, nullptr, 0));
    EXPECT_FALSE(reg.deliverWrite(0, 4, nullptr, 0));
}

TEST(MemoryRegistry, HookIsOptional)
{
    MemoryRegistry reg;
    auto r = reg.registerMemory(4096); // no hook
    EXPECT_TRUE(reg.deliverWrite(r.base, 4, nullptr, 0));
}

TEST(MemoryRegistry, ManyRegionsLookup)
{
    MemoryRegistry reg;
    std::vector<press::via::MemoryRegion> regions;
    for (int i = 0; i < 100; ++i)
        regions.push_back(reg.registerMemory(1000 + i));
    for (const auto &r : regions) {
        auto found = reg.find(r.base + 10, 100);
        ASSERT_TRUE(found.has_value());
        EXPECT_EQ(found->handle, r.handle);
    }
    EXPECT_EQ(reg.regions(), 100u);
}

TEST(MemoryRegistry, WrappingRangeRejected)
{
    // addr + length wraps past 2^64 back inside the region; the range
    // check must compare lengths, not end addresses.
    MemoryRegistry reg;
    auto r = reg.registerMemory(4096);
    EXPECT_FALSE(reg.find(r.base + 8, UINT64_MAX - 7).has_value());
    EXPECT_FALSE(reg.deliverWrite(r.base + 8, UINT64_MAX - 7, nullptr, 0));
    EXPECT_FALSE(reg.find(r.base, UINT64_MAX).has_value());
    EXPECT_TRUE(reg.find(r.base + 8, 4088).has_value());
}

TEST(MemoryRegistry, HookMayRegisterAndWriteWhileRunning)
{
    // The running hook's own entry must stay put while it registers
    // enough regions to grow the table several times over.
    MemoryRegistry reg;
    std::uint64_t inner_offset = 0;
    int outer_tag_seen = 0;
    press::via::MemoryRegion second{};
    auto first = reg.registerMemory(
        4096, [&, tag = 7](std::uint64_t, std::uint64_t, const Payload &,
                           std::uint32_t) {
            for (int i = 0; i < 64; ++i)
                reg.registerMemory(64);
            second = reg.registerMemory(
                4096, [&](std::uint64_t off, std::uint64_t,
                          const Payload &, std::uint32_t) {
                    inner_offset = off;
                });
            EXPECT_TRUE(reg.deliverWrite(second.base + 40, 8, nullptr, 0));
            outer_tag_seen = tag; // captures still valid after growth
        });
    EXPECT_TRUE(reg.deliverWrite(first.base, 8, nullptr, 0));
    EXPECT_EQ(outer_tag_seen, 7);
    EXPECT_EQ(inner_offset, 40u);
    EXPECT_EQ(reg.regions(), 66u);
    EXPECT_TRUE(reg.find(second.base, 4096).has_value());
}

TEST(MemoryRegistry, DeregisteredBaseNeverReturns)
{
    MemoryRegistry reg;
    auto gone = reg.registerMemory(4096);
    ASSERT_TRUE(reg.deregister(gone.handle));
    for (int i = 0; i < 50; ++i) {
        auto r = reg.registerMemory(4096);
        EXPECT_NE(r.base, gone.base);
        EXPECT_NE(r.handle, gone.handle);
        bool disjoint = r.base >= gone.base + gone.size ||
                        r.base + r.size <= gone.base;
        EXPECT_TRUE(disjoint);
    }
    EXPECT_FALSE(reg.find(gone.base, 1).has_value());
    EXPECT_FALSE(reg.find(gone.base + 100, 8).has_value());
    EXPECT_FALSE(reg.deliverWrite(gone.base, 8, nullptr, 0));
    EXPECT_FALSE(reg.deregister(gone.handle));
    EXPECT_EQ(reg.regions(), 50u);
}
