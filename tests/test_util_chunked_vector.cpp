/**
 * @file
 * Tests for util::ChunkedVector: elements never move as the container
 * grows, a type with no copy or move constructor can be stored, and
 * every element is destroyed exactly once.
 */

#include <gtest/gtest.h>

#include <vector>

#include "util/chunked_vector.hpp"

using press::util::ChunkedVector;

namespace {

/** Neither copyable nor movable, like via::VirtualInterface. */
class Pinned
{
  public:
    Pinned(int value, int *destroyed) : _value(value), _destroyed(destroyed)
    {
    }
    Pinned(const Pinned &) = delete;
    Pinned &operator=(const Pinned &) = delete;
    ~Pinned() { ++*_destroyed; }

    int value() const { return _value; }

  private:
    int _value;
    int *_destroyed;
};

} // namespace

TEST(ChunkedVector, AddressesStayPutAcrossChunks)
{
    int destroyed = 0;
    ChunkedVector<Pinned, 4> v;
    std::vector<const Pinned *> seen;
    for (int i = 0; i < 37; ++i) {
        Pinned &p = v.emplace_with([&] { return Pinned(i, &destroyed); });
        EXPECT_EQ(&p, &v[static_cast<std::size_t>(i)]);
        seen.push_back(&p);
    }
    ASSERT_EQ(v.size(), 37u);
    for (std::size_t i = 0; i < seen.size(); ++i) {
        EXPECT_EQ(seen[i], &v[i]); // never relocated by later growth
        EXPECT_EQ(v[i].value(), static_cast<int>(i));
    }
    EXPECT_EQ(destroyed, 0);
}

TEST(ChunkedVector, DestroysEveryElementOnce)
{
    int destroyed = 0;
    {
        ChunkedVector<Pinned, 8> v;
        for (int i = 0; i < 20; ++i) // two full chunks and a partial one
            v.emplace_with([&] { return Pinned(i, &destroyed); });
    }
    EXPECT_EQ(destroyed, 20);
}
