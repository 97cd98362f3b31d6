/**
 * @file
 * Tests for util::RingQueue: FIFO order across wraparound, growth while
 * wrapped, and move-only element support — the properties the simulator
 * hot paths (resource queues, credit backlogs, pending sends) rely on —
 * plus the 32-bit indices of the compact layout.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <memory>

#include "util/ring_queue.hpp"

using press::util::RingQueue;

TEST(RingQueue, StartsEmpty)
{
    RingQueue<int> q;
    EXPECT_TRUE(q.empty());
    EXPECT_EQ(q.size(), 0u);
}

TEST(RingQueue, FifoOrder)
{
    RingQueue<int> q;
    for (int i = 0; i < 5; ++i)
        q.push_back(i);
    for (int i = 0; i < 5; ++i) {
        EXPECT_EQ(q.front(), i);
        q.pop_front();
    }
    EXPECT_TRUE(q.empty());
}

TEST(RingQueue, WrapsAroundAtCapacity)
{
    // The initial buffer holds 8 slots. Keep the queue at a steady
    // depth below that while pushing far more elements than the
    // capacity, so head/tail wrap the power-of-two mask many times;
    // FIFO order must survive every wrap without growing.
    RingQueue<int> q;
    int next_in = 0;
    int next_out = 0;
    for (int i = 0; i < 6; ++i)
        q.push_back(next_in++);
    for (int round = 0; round < 100; ++round) {
        q.push_back(next_in++);
        q.push_back(next_in++);
        EXPECT_EQ(q.front(), next_out);
        q.pop_front();
        ++next_out;
        EXPECT_EQ(q.front(), next_out);
        q.pop_front();
        ++next_out;
        EXPECT_EQ(q.size(), 6u);
    }
    while (!q.empty()) {
        EXPECT_EQ(q.front(), next_out++);
        q.pop_front();
    }
    EXPECT_EQ(next_out, next_in);
}

TEST(RingQueue, GrowsWhileWrapped)
{
    // Wrap the head past the start of the buffer, then push through
    // several capacity doublings (8 -> 16 -> ... -> 512). grow() must
    // relinearize the wrapped contents in FIFO order.
    RingQueue<int> q;
    int next_in = 0;
    int next_out = 0;
    for (int i = 0; i < 8; ++i)
        q.push_back(next_in++); // fill the initial capacity exactly
    for (int i = 0; i < 5; ++i) {
        EXPECT_EQ(q.front(), next_out++);
        q.pop_front(); // head now mid-buffer
    }
    for (int i = 0; i < 500; ++i)
        q.push_back(next_in++); // wraps, then grows repeatedly
    EXPECT_EQ(q.size(), 503u);
    while (!q.empty()) {
        EXPECT_EQ(q.front(), next_out++);
        q.pop_front();
    }
    EXPECT_EQ(next_out, next_in);
}

TEST(RingQueue, DrainToEmptyAndReuse)
{
    RingQueue<int> q;
    for (int round = 0; round < 20; ++round) {
        for (int i = 0; i < 7; ++i)
            q.push_back(round * 100 + i);
        for (int i = 0; i < 7; ++i) {
            EXPECT_EQ(q.front(), round * 100 + i);
            q.pop_front();
        }
        EXPECT_TRUE(q.empty());
    }
}

TEST(RingQueue, MoveOnlyElements)
{
    RingQueue<std::unique_ptr<int>> q;
    for (int i = 0; i < 40; ++i) {
        q.push_back(std::make_unique<int>(i));
        if (i % 3 == 2) {
            // pop_front resets the vacated slot, so the element's
            // ownership must have fully moved out by then.
            std::unique_ptr<int> out = std::move(q.front());
            q.pop_front();
            ASSERT_TRUE(out);
        }
    }
    int expect = 40 - static_cast<int>(q.size());
    while (!q.empty()) {
        ASSERT_TRUE(q.front());
        EXPECT_GE(*q.front(), 0);
        q.pop_front();
        ++expect;
    }
    EXPECT_EQ(expect, 40);
}

TEST(RingQueue, BackIsTheNewestAcrossGrowthFromOneSlot)
{
    // A one-slot first buffer doubles on every fill; back() must track
    // the newest element through each growth and around the wrap.
    RingQueue<int, 1> q;
    q.push_back(0);
    EXPECT_EQ(q.back(), 0);
    q.back() = 10; // back() is writable in place
    EXPECT_EQ(q.front(), 10);
    for (int i = 1; i < 6; ++i) {
        q.push_back(i);
        EXPECT_EQ(q.back(), i);
        EXPECT_EQ(q.size(), static_cast<std::size_t>(i + 1));
    }
    q.pop_front();
    q.pop_front();
    q.push_back(6);
    q.push_back(7); // wraps the 8-slot buffer
    EXPECT_EQ(q.back(), 7);
    for (int want = 2; want <= 7; ++want) {
        EXPECT_EQ(q.front(), want);
        q.pop_front();
    }
    EXPECT_TRUE(q.empty());
}

TEST(RingQueue, ThirtyTwoBitIndicesWrapPastSixteenBits)
{
    // The head is a 32-bit index masked on every step. Cycle far more
    // elements than 2^16 through a queue that never grows past its
    // first buffer: order and size must hold across every wrap of the
    // low bits.
    RingQueue<std::uint32_t> q;
    std::uint32_t next_in = 0;
    std::uint32_t next_out = 0;
    for (int i = 0; i < 5; ++i)
        q.push_back(next_in++);
    for (std::uint32_t cycle = 0; cycle < (1u << 16) + 4099; ++cycle) {
        q.push_back(next_in++);
        ASSERT_EQ(q.front(), next_out);
        q.pop_front();
        ++next_out;
        ASSERT_EQ(q.size(), 5u);
        ASSERT_EQ(q.back(), next_in - 1);
    }
    while (!q.empty()) {
        EXPECT_EQ(q.front(), next_out++);
        q.pop_front();
    }
    EXPECT_EQ(next_out, next_in);
}

namespace {

/** Push 1..n as move-only values while draining a third of them, then
 *  check the rest come out in order: growth must move every live
 *  element exactly once, from any first buffer. */
template <std::size_t FirstSlots>
void
growWithMoveOnly(int n)
{
    RingQueue<std::unique_ptr<int>, FirstSlots> q;
    int next_out = 1;
    for (int i = 1; i <= n; ++i) {
        q.push_back(std::make_unique<int>(i));
        ASSERT_EQ(*q.back(), i);
        if (i % 3 == 0) {
            std::unique_ptr<int> out = std::move(q.front());
            q.pop_front();
            ASSERT_TRUE(out);
            ASSERT_EQ(*out, next_out++);
        }
    }
    EXPECT_EQ(q.size(), static_cast<std::size_t>(n - n / 3));
    while (!q.empty()) {
        ASSERT_TRUE(q.front());
        EXPECT_EQ(*q.front(), next_out++);
        q.pop_front();
    }
    EXPECT_EQ(next_out, n + 1);
}

} // namespace

TEST(RingQueue, GrowsFromOneSlotWithMoveOnlyElements)
{
    growWithMoveOnly<1>(700);
}

TEST(RingQueue, GrowsFromEightSlotsWithMoveOnlyElements)
{
    growWithMoveOnly<8>(700);
}

TEST(RingQueue, MoveTransfersTheBufferAndLiveElements)
{
    RingQueue<std::unique_ptr<int>, 1> a;
    for (int i = 0; i < 5; ++i)
        a.push_back(std::make_unique<int>(i));
    a.pop_front();
    RingQueue<std::unique_ptr<int>, 1> b(std::move(a));
    EXPECT_TRUE(a.empty()); // NOLINT: moved-from state is specified
    a.push_back(std::make_unique<int>(42)); // usable again
    EXPECT_EQ(*a.front(), 42);
    ASSERT_EQ(b.size(), 4u);
    for (int want = 1; want < 5; ++want) {
        EXPECT_EQ(*b.front(), want);
        b.pop_front();
    }
}
