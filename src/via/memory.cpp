#include "memory.hpp"

#include "util/logging.hpp"
#include "via/observer.hpp"

namespace press::via {

namespace {

constexpr Address OffsetMask =
    (Address{1} << MemoryRegistry::SlotShift) - 1;

} // namespace

MemoryRegion
MemoryRegistry::registerMemory(std::uint64_t size, WriteHook hook)
{
    PRESS_ASSERT(size > 0, "cannot register an empty region");
    PRESS_ASSERT(size >> SlotShift == 0, "region of ", size,
                 " B exceeds the ", std::uint64_t{1} << SlotShift,
                 " B slot");
    PRESS_ASSERT(_slots.size() + 1 < std::uint64_t{1} << (64 - SlotShift),
                 "registration slots exhausted");
    MemoryRegion region;
    region.handle = static_cast<MemoryHandle>(_slots.size() + 1);
    region.base = Address{region.handle} << SlotShift;
    region.size = size;
    _slots.emplace_with([&] { return Entry{size, std::move(hook)}; });
    ++_live;
    if (_observer)
        _observer->onRegister(*this, region);
    return region;
}

bool
MemoryRegistry::deregister(MemoryHandle handle)
{
    if (handle == 0 || handle > _slots.size() ||
        _slots[handle - 1].size == 0) {
        if (_observer)
            _observer->onDeregister(*this, handle, false);
        return false;
    }
    _slots[handle - 1] = Entry{0, {}};
    --_live;
    if (_observer)
        _observer->onDeregister(*this, handle, true);
    return true;
}

const MemoryRegistry::Entry *
MemoryRegistry::entryFor(Address addr, std::uint64_t length) const
{
    // Addresses below the first slot wrap to a huge index and miss.
    std::uint64_t slot = (addr >> SlotShift) - 1;
    if (slot >= _slots.size())
        return nullptr;
    const Entry &e = _slots[slot];
    if (e.size == 0)
        return nullptr; // deregistered
    // Compare lengths, never end addresses, so a huge length cannot
    // wrap back into the region.
    std::uint64_t offset = addr & OffsetMask;
    if (offset <= e.size && length <= e.size - offset)
        return &e;
    return nullptr;
}

std::optional<MemoryRegion>
MemoryRegistry::find(Address addr, std::uint64_t length) const
{
    const Entry *e = entryFor(addr, length);
    if (!e)
        return std::nullopt;
    MemoryRegion region;
    region.handle = static_cast<MemoryHandle>(addr >> SlotShift);
    region.base = addr & ~OffsetMask;
    region.size = e->size;
    return region;
}

bool
MemoryRegistry::deliverWrite(Address addr, std::uint64_t length,
                             const Payload &payload,
                             std::uint32_t immediate)
{
    const Entry *e = entryFor(addr, length);
    if (_observer)
        _observer->onRdmaDeliver(*this, addr, length, e != nullptr);
    if (!e)
        return false;
    if (e->hook)
        e->hook(addr & OffsetMask, length, payload, immediate);
    return true;
}

} // namespace press::via
