/**
 * @file
 * In-flight representation of PRESS messages: the envelope every comm
 * backend posts, and the size rules every backend shares.
 */

#ifndef PRESS_CORE_WIRE_HPP
#define PRESS_CORE_WIRE_HPP

#include <cstddef>
#include <cstdint>
#include <type_traits>
#include <variant>

#include "core/calibration.hpp"
#include "core/messages.hpp"
#include "net/payload.hpp"

namespace press::core {

/** Every message body the comm layer carries. */
using Body = std::variant<LoadMsg, FlowMsg, ForwardMsg, CachingMsg, FileMsg,
                          LoadDigestMsg, CachingDigestMsg, MembershipMsg>;

/** Position of body type @p T in Body (index of per-type tables). */
template <typename T>
inline constexpr std::size_t BodyIndex = []<typename... Ts>(
    std::type_identity<std::variant<Ts...>>) {
    std::size_t i = 0;
    (void)((!std::is_same_v<T, Ts> && (++i, true)) && ...);
    return i;
}(std::type_identity<Body>{});

/** What actually travels between nodes in the simulation. */
struct WireMsg {
    MsgKind kind = MsgKind::NumKinds;
    int from = -1;
    int piggyLoad = -1;
    Body body;
};

/** The Tables-2/4 accounting kind of @p body (a digest counts as the
 *  kind of the rumors it packs). */
MsgKind kindOf(const Body &body);

/**
 * Logical wire bytes of @p body, before any path-specific extra (the
 * piggy-backed load word, the RMW file metadata): the payload size,
 * plus MessageSizes::disseminationHeader on rumors (origin >= 0), and
 * for a digest the sum over its rumors — so a digest costs the bytes of
 * the unpacked rumors and only the message count drops.
 */
std::uint64_t wireBytes(const Body &body, const MessageSizes &sizes);

/** Build the Incoming view the server sees. @p wire_payload must hold
 *  the WireMsg @p w describes. */
inline Incoming
toIncoming(const WireMsg &w, net::Payload wire_payload)
{
    Incoming in;
    in.kind = w.kind;
    in.from = w.from;
    in.piggyLoad = w.piggyLoad;
    in.body = std::move(wire_payload);
    return in;
}

/** Typed view of an Incoming's body; nullptr on kind mismatch. */
template <typename T>
const T *
bodyAs(const Incoming &in)
{
    const auto *w = net::payloadAs<WireMsg>(in.body);
    return w ? std::get_if<T>(&w->body) : nullptr;
}

} // namespace press::core

#endif // PRESS_CORE_WIRE_HPP
