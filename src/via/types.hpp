/**
 * @file
 * Common types for the VIA (Virtual Interface Architecture) library.
 *
 * This library reproduces the VIA 1.0 programming model the paper relies
 * on (Compaq/Intel/Microsoft, 1997): processes open Virtual Interfaces
 * (VIs) directly onto the network hardware, post send/receive descriptors
 * to per-VI work queues, reap completions from the queues or from shared
 * Completion Queues, and may write directly into registered remote memory
 * (remote memory writes). Matching the Giganet cLAN implementation used in
 * the paper, remote memory *reads* and the reliable-reception level are
 * not provided.
 *
 * Simulation note: buffers live in a per-node abstract address space
 * (registered regions). Message contents are carried as opaque payload
 * handles rather than real bytes, so a transfer's *semantics* (who can see
 * what, when, at which address) are exact while the host does no
 * per-byte work.
 */

#ifndef PRESS_VIA_TYPES_HPP
#define PRESS_VIA_TYPES_HPP

#include <cstdint>
#include <memory>

#include "net/payload.hpp"

namespace press::via {

/** Node-local virtual address inside some registered region. */
using Address = std::uint64_t;

/** Opaque registration handle (0 = invalid). */
using MemoryHandle = std::uint32_t;

/** Simulation stand-in for message bytes. */
using Payload = net::Payload;

/** VIA reliability levels (VIA spec section 2): the two cLAN
 *  provides. */
enum class Reliability {
    Unreliable,       ///< messages may be dropped silently
    ReliableDelivery, ///< exactly-once, in-order, errors reported
};

/** Descriptor operation. */
enum class Opcode {
    Send,      ///< regular two-sided send (consumes a remote recv)
    RdmaWrite, ///< remote memory write (one-sided)
};

/** Descriptor completion status. */
enum class Status {
    Pending,            ///< posted, not yet completed
    Complete,           ///< success
    ErrorRecvOverrun,   ///< no receive descriptor posted (reliable VIs)
    ErrorNotRegistered, ///< address not inside a registered region
    ErrorDisconnected,  ///< peer VI is gone
    ErrorFlushed,       ///< VI torn down while descriptor pending
};

/** True when the status represents an error. */
constexpr bool
isError(Status s)
{
    return s != Status::Pending && s != Status::Complete;
}

} // namespace press::via

#endif // PRESS_VIA_TYPES_HPP
