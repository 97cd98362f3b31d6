/**
 * @file
 * InlineFn: a move-only callable with fixed inline storage.
 *
 * The event kernel fires tens of millions of callbacks per simulated
 * run; std::function heap-allocates every closure larger than its tiny
 * SBO (16 bytes in libstdc++), which made the allocator the hottest
 * function in the simulator. InlineFn stores the capture in the object
 * itself — there is no heap fallback, and a capture that does not fit
 * is rejected at compile time, which doubles as an audit that keeps
 * hot-path closures small.
 *
 * The capacity default (64 bytes) is sized to the largest closure on
 * the simulation hot path (ViaComm::launch's post step captures six
 * words plus a Payload handle). Layers that store bigger thunks off
 * the event path (e.g. core::CreditGate) instantiate a wider InlineFn.
 */

#ifndef PRESS_SIM_INLINE_FN_HPP
#define PRESS_SIM_INLINE_FN_HPP

#include <cstddef>
#include <new>
#include <type_traits>
#include <utility>

namespace press::sim {

template <std::size_t Capacity = 64>
class InlineFn
{
  public:
    static constexpr std::size_t capacity() { return Capacity; }

    /** True when a callable of type @p F fits (size and alignment). */
    template <typename F>
    static constexpr bool fits =
        sizeof(F) <= Capacity && alignof(F) <= alignof(std::max_align_t) &&
        std::is_move_constructible_v<F>;

    InlineFn() = default;
    InlineFn(std::nullptr_t) {} // NOLINT: mirrors std::function

    /**
     * Wrap @p fn. Participates only when the (decayed) callable fits in
     * the inline storage, so an oversized capture is a compile error at
     * the construction site — shrink the capture (capture a pointer to
     * pooled state) or widen the instantiation.
     */
    template <typename F>
        requires(!std::is_same_v<std::remove_cvref_t<F>, InlineFn> &&
                 std::is_invocable_r_v<void, std::remove_cvref_t<F> &> &&
                 fits<std::remove_cvref_t<F>>)
    InlineFn(F &&fn) // NOLINT: implicit, like std::function
    {
        using Fn = std::remove_cvref_t<F>;
        ::new (static_cast<void *>(_storage)) Fn(std::forward<F>(fn));
        _invoke = [](void *p) { (*static_cast<Fn *>(p))(); };
        // Trivially-copyable captures (the common case: pointers and
        // integers) relocate by plain memcpy — null ops marks them.
        if constexpr (std::is_trivially_copyable_v<Fn> &&
                      std::is_trivially_destructible_v<Fn>)
            _ops = nullptr;
        else
            _ops = &kOps<Fn>;
    }

    InlineFn(InlineFn &&other) noexcept { moveFrom(other); }

    InlineFn &
    operator=(InlineFn &&other) noexcept
    {
        if (this != &other) {
            reset();
            moveFrom(other);
        }
        return *this;
    }

    InlineFn &
    operator=(std::nullptr_t) noexcept
    {
        reset();
        return *this;
    }

    InlineFn(const InlineFn &) = delete;
    InlineFn &operator=(const InlineFn &) = delete;

    ~InlineFn() { reset(); }

    /** Invoke. Undefined when empty. */
    void
    operator()()
    {
        _invoke(_storage);
    }

    explicit operator bool() const { return _invoke != nullptr; }

  private:
    struct Ops {
        /** Move-construct into @p dst from @p src, destroying @p src. */
        void (*relocate)(void *dst, void *src);
        void (*destroy)(void *);
    };

    template <typename Fn>
    static constexpr Ops kOps = {
        [](void *dst, void *src) {
            ::new (dst) Fn(std::move(*static_cast<Fn *>(src)));
            static_cast<Fn *>(src)->~Fn();
        },
        [](void *p) { static_cast<Fn *>(p)->~Fn(); },
    };

    void
    reset()
    {
        if (_invoke) {
            if (_ops)
                _ops->destroy(_storage);
            _invoke = nullptr;
        }
    }

    void
    moveFrom(InlineFn &other)
    {
        if (other._invoke) {
            if (other._ops)
                other._ops->relocate(_storage, other._storage);
            else
                __builtin_memcpy(_storage, other._storage, Capacity);
            _invoke = other._invoke;
            _ops = other._ops;
            other._invoke = nullptr;
        }
    }

    alignas(std::max_align_t) unsigned char _storage[Capacity];
    /** Invocation target, stored flat so firing an event is a single
     *  indirect call with no table load; null means empty. */
    void (*_invoke)(void *) = nullptr;
    const Ops *_ops = nullptr;
};

} // namespace press::sim

#endif // PRESS_SIM_INLINE_FN_HPP
