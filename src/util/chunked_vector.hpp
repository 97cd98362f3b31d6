/**
 * @file
 * ChunkedVector: an append-only sequence whose elements never move.
 *
 * Objects that others hold pointers to (VIA virtual interfaces, memory
 * registry entries whose write hooks may register more memory while
 * they run) used to be allocated one by one behind a
 * std::vector<std::unique_ptr<T>>, costing a malloc header and a pointer
 * chase per object. ChunkedVector places them in fixed chunks of
 * @p ChunkSize elements instead: growth adds a chunk and never relocates
 * an element, so references stay valid for the container's lifetime,
 * and index i is chunk i / ChunkSize, slot i % ChunkSize.
 */

#ifndef PRESS_UTIL_CHUNKED_VECTOR_HPP
#define PRESS_UTIL_CHUNKED_VECTOR_HPP

#include <cstddef>
#include <memory>
#include <new>
#include <vector>

namespace press::util {

/** Append-only storage with stable element addresses. */
template <typename T, std::size_t ChunkSize = 64>
class ChunkedVector
{
    static_assert(ChunkSize > 0 && (ChunkSize & (ChunkSize - 1)) == 0,
                  "chunks must hold a power of two elements");

  public:
    ChunkedVector() = default;
    ChunkedVector(const ChunkedVector &) = delete;
    ChunkedVector &operator=(const ChunkedVector &) = delete;

    ~ChunkedVector()
    {
        for (std::size_t i = 0; i < _size; ++i)
            std::destroy_at(&(*this)[i]);
        for (T *chunk : _chunks)
            std::allocator<T>().deallocate(chunk, ChunkSize);
    }

    /**
     * Append the element @p make() returns, built in place (the
     * prvalue initialises the slot directly, so T need not be movable
     * and @p make may call a constructor only it can reach).
     */
    template <typename Make>
    T &
    emplace_with(Make &&make)
    {
        if (_size == _chunks.size() * ChunkSize)
            _chunks.push_back(std::allocator<T>().allocate(ChunkSize));
        T *slot = _chunks.back() + _size % ChunkSize;
        ::new (static_cast<void *>(slot)) T(make());
        ++_size;
        return *slot;
    }

    T &
    operator[](std::size_t i)
    {
        return _chunks[i / ChunkSize][i % ChunkSize];
    }
    const T &
    operator[](std::size_t i) const
    {
        return _chunks[i / ChunkSize][i % ChunkSize];
    }

    std::size_t size() const { return _size; }

  private:
    std::vector<T *> _chunks;
    std::size_t _size = 0;
};

} // namespace press::util

#endif // PRESS_UTIL_CHUNKED_VECTOR_HPP
