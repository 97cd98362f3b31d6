#include "memory.hpp"

#include <cstring>

#include "util/logging.hpp"
#include "via/observer.hpp"

namespace press::via {

namespace {

constexpr std::uint64_t PageSize = 4096;

std::uint64_t
roundUpToPage(std::uint64_t v)
{
    return (v + PageSize - 1) / PageSize * PageSize;
}

} // namespace

MemoryRegion
MemoryRegistry::registerMemory(std::uint64_t size, WriteHook hook)
{
    return registerImpl(size, std::move(hook), /*backed=*/false);
}

MemoryRegion
MemoryRegistry::registerBacked(std::uint64_t size, WriteHook hook)
{
    return registerImpl(size, std::move(hook), /*backed=*/true);
}

MemoryRegion
MemoryRegistry::registerImpl(std::uint64_t size, WriteHook hook,
                             bool backed)
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
    _pinned += roundUpToPage(size);
    Entry &entry = _slots.emplace_with(
        [&] { return Entry{region, std::move(hook), {}}; });
    if (backed) {
        entry.backing.assign(size, 0);
        ++_backed;
    }
    ++_live;
    if (_observer)
        _observer->onRegister(*this, region, backed);
    return region;
}

bool
MemoryRegistry::deregister(MemoryHandle handle)
{
    if (handle == 0 || handle > _slots.size() ||
        _slots[handle - 1].region.handle == 0) {
        if (_observer)
            _observer->onDeregister(*this, handle, false);
        return false;
    }
    Entry &slot = _slots[handle - 1];
    _pinned -= roundUpToPage(slot.region.size);
    if (!slot.backing.empty())
        --_backed;
    --_live;
    slot = Entry{};
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
    if (e.region.handle == 0)
        return nullptr; // deregistered
    // addr >= base by construction; compare lengths, never end
    // addresses, so a huge length cannot wrap back into the region.
    std::uint64_t offset = addr - e.region.base;
    if (offset <= e.region.size && length <= e.region.size - offset)
        return &e;
    return nullptr;
}

MemoryRegistry::Entry *
MemoryRegistry::entryFor(Address addr, std::uint64_t length)
{
    return const_cast<Entry *>(
        static_cast<const MemoryRegistry *>(this)->entryFor(addr,
                                                            length));
}

std::optional<MemoryRegion>
MemoryRegistry::find(Address addr, std::uint64_t length) const
{
    const Entry *e = entryFor(addr, length);
    if (!e)
        return std::nullopt;
    return e->region;
}

bool
MemoryRegistry::isBacked(Address addr) const
{
    const Entry *e = entryFor(addr, 1);
    return e && !e->backing.empty();
}

void
MemoryRegistry::store(Address addr, std::span<const std::uint8_t> data)
{
    Entry *e = entryFor(addr, data.size());
    PRESS_ASSERT(e, "store outside any registered region");
    PRESS_ASSERT(!e->backing.empty(), "store into an unbacked region");
    std::memcpy(e->backing.data() + (addr - e->region.base), data.data(),
                data.size());
}

std::vector<std::uint8_t>
MemoryRegistry::fetch(Address addr, std::uint64_t length) const
{
    const Entry *e = entryFor(addr, length);
    PRESS_ASSERT(e, "fetch outside any registered region");
    PRESS_ASSERT(!e->backing.empty(), "fetch from an unbacked region");
    auto *begin = e->backing.data() + (addr - e->region.base);
    return std::vector<std::uint8_t>(begin, begin + length);
}

void
MemoryRegistry::dmaCopy(const MemoryRegistry &src, Address src_addr,
                        MemoryRegistry &dst, Address dst_addr,
                        std::uint64_t length)
{
    if (length == 0 || src._backed == 0 || dst._backed == 0)
        return; // plain-only registries: metadata-only transfer
    const Entry *se = src.entryFor(src_addr, length);
    Entry *de = dst.entryFor(dst_addr, length);
    if (!se || !de || se->backing.empty() || de->backing.empty())
        return; // at least one plain region: metadata-only transfer
    std::memcpy(de->backing.data() + (dst_addr - de->region.base),
                se->backing.data() + (src_addr - se->region.base),
                length);
}

bool
MemoryRegistry::deliverWrite(Address addr, std::uint64_t length,
                             const Payload &payload,
                             std::uint32_t immediate)
{
    Entry *e = entryFor(addr, length);
    if (_observer)
        _observer->onRdmaDeliver(*this, addr, length, e != nullptr);
    if (!e)
        return false;
    if (e->hook)
        e->hook(addr - e->region.base, length, payload, immediate);
    return true;
}

} // namespace press::via
