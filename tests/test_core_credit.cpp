/**
 * @file
 * Tests for window-based flow control primitives.
 */

#include <gtest/gtest.h>

#include <vector>

#include "core/credit_gate.hpp"

using press::core::CreditGate;
using press::core::CreditReturner;

TEST(CreditGate, RunsWhileCreditsLast)
{
    CreditGate g(2);
    int ran = 0;
    EXPECT_TRUE(g.acquire([&] { ++ran; }));
    EXPECT_TRUE(g.acquire([&] { ++ran; }));
    EXPECT_FALSE(g.acquire([&] { ++ran; }));
    EXPECT_EQ(ran, 2);
    EXPECT_EQ(g.credits(), 0);
    EXPECT_EQ(g.backlog(), 1u);
    EXPECT_EQ(g.stalls(), 1u);
}

TEST(CreditGate, ReleaseDrainsQueueInOrder)
{
    CreditGate g(1);
    std::vector<int> order;
    g.acquire([&] { order.push_back(1); });
    g.acquire([&] { order.push_back(2); });
    g.acquire([&] { order.push_back(3); });
    g.release(1);
    g.release(1);
    g.release(1);
    EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
    EXPECT_EQ(g.credits(), 1);
    EXPECT_EQ(g.backlog(), 0u);
}

TEST(CreditGate, BatchReleaseRunsSeveral)
{
    CreditGate g(4);
    int ran = 0;
    for (int i = 0; i < 8; ++i)
        g.acquire([&] { ++ran; });
    EXPECT_EQ(ran, 4);
    g.release(4);
    EXPECT_EQ(ran, 8);
}

TEST(CreditGate, OverReleasePanics)
{
    CreditGate g(2);
    EXPECT_DEATH(g.release(3), "over-release");
}

TEST(CreditGate, NestedAcquireFromThunk)
{
    // A thunk that sends another message (acquires again) must not
    // deadlock or reorder.
    CreditGate g(1);
    std::vector<int> order;
    g.acquire([&] {
        order.push_back(1);
        g.acquire([&] { order.push_back(2); });
    });
    EXPECT_EQ(order, (std::vector<int>{1}));
    g.release(1);
    EXPECT_EQ(order, (std::vector<int>{1, 2}));
}

namespace {

/** What the comm backends do with the credits a returner hands back:
 *  send them when any are due. */
auto
sender(std::vector<int> &sent)
{
    return [&sent](int due) {
        if (due > 0)
            sent.push_back(due);
    };
}

} // namespace

TEST(CreditReturner, BatchesReturns)
{
    std::vector<int> sent;
    auto send = sender(sent);
    CreditReturner r(4);
    for (int i = 0; i < 9; ++i)
        send(r.consumed());
    EXPECT_EQ(sent, (std::vector<int>{4, 4}));
    EXPECT_EQ(r.pending(), 1);
    send(r.flush());
    EXPECT_EQ(sent, (std::vector<int>{4, 4, 1}));
    send(r.flush()); // idempotent when empty
    EXPECT_EQ(sent.size(), 3u);
}

TEST(CreditReturner, BatchOfOneReturnsEach)
{
    std::vector<int> sent;
    auto send = sender(sent);
    CreditReturner r(1);
    send(r.consumed());
    send(r.consumed());
    EXPECT_EQ(sent, (std::vector<int>{1, 1}));
}

TEST(GateAndReturner, ClosedLoopConserved)
{
    // Simulate a sender window against a consumer with batched credit
    // returns: every message eventually runs, credits never exceed the
    // window.
    CreditGate gate(8);
    int delivered = 0;
    CreditReturner ret(4);
    auto send = [&](int due) {
        if (due > 0)
            gate.release(due);
    };
    for (int i = 0; i < 1000; ++i) {
        gate.acquire([&] {
            ++delivered;
            send(ret.consumed());
        });
        ASSERT_LE(gate.credits(), 8);
    }
    send(ret.flush());
    EXPECT_EQ(delivered, 1000);
    EXPECT_EQ(gate.backlog(), 0u);
}
