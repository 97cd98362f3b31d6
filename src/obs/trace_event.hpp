/**
 * @file
 * The binary trace-event record and its vocabulary.
 *
 * Every observation the tracing subsystem makes — a request entering a
 * node, a CPU job starting, a remote memory write being posted — is one
 * packed 24-byte TraceEvent stamped with the *simulated* clock. Because
 * timestamps are sim ticks and every cluster run owns a private ring,
 * traces are bit-deterministic: the same configuration produces the same
 * bytes whatever the host, the wall clock, or the sweep's --jobs value.
 */

#ifndef PRESS_OBS_TRACE_EVENT_HPP
#define PRESS_OBS_TRACE_EVENT_HPP

#include <cstdint>

#include "sim/time.hpp"

namespace press::obs {

/** What happened. The code picks the export track and the meaning of
 *  TraceEvent::arg (documented per enumerator). */
enum class Ev : std::uint16_t {
    None = 0,

    // ---- request lifecycle (async spans joined by request id) ----
    ReqLife,     ///< accept -> reply on the wire; arg = file id (begin),
                 ///< reply bytes (end)
    ReqForward,  ///< initial node: forward posted -> file arrived;
                 ///< arg = file id
    ReqService,  ///< service node: forward received -> file transfer
                 ///< posted; arg = file id
    ReqDispatch, ///< instant; arg = DispatchDecision
    ReqReply,    ///< instant at reply completion; arg = reply bytes

    // ---- intra-cluster communication ----
    CommSend,     ///< instant; arg = packKindBytes(kind, logical bytes)
    CommRecv,     ///< instant; arg = packKindBytes(kind, bytes)
    CommRmwWrite, ///< instant: remote memory write posted; arg likewise
    CommCredit,   ///< instant: credits arrived; arg = packKindBytes(
                  ///< channel, credits)
    CommStall,    ///< instant: a send stalled on credits; arg = channel

    // ---- simulated resources ----
    CpuJob,    ///< span, serial per CPU; arg = osnode CPU category
    DiskRead,  ///< span, serial per disk; arg = busy ns
    CpuDepth,  ///< counter; arg = queue depth including in-service job
    DiskDepth, ///< counter; arg likewise

    // ---- fault tolerance (membership and recovery) ----
    NodeCrashed,    ///< instant on the crashing node; arg = fault epoch
    NodeSuspected,  ///< instant on the suspecting node; arg =
                    ///< packKindBytes(subject, epoch)
    ViewChanged,    ///< instant: a membership update was accepted;
                    ///< arg = packKindBytes(subject, epoch)
    RequestRetried, ///< instant on the retrying node; arg = attempt #

    // ---- open-loop traffic engine ----
    SessionLife, ///< async span: keep-alive session accept -> last
                 ///< reply; arg = first file id (begin), reply bytes
                 ///< of the closing request (end)

    NumEv,
};

const char *evName(Ev code);

/** How the event relates to time. */
enum class Phase : std::uint8_t {
    Begin,      ///< span start; spans on one track nest/serialize
    End,        ///< span end, matching the latest Begin of the same code
    AsyncBegin, ///< overlapping span start, joined by request id
    AsyncEnd,   ///< overlapping span end, joined by request id
    Instant,    ///< point event
    Counter,    ///< sampled value (arg)
};

const char *phaseName(Phase phase);

/** Why dispatch() routed a request the way it did (ReqDispatch arg). */
enum class DispatchDecision : std::uint8_t {
    CachedLocal = 0, ///< rule 2: already in this node's cache
    LargeFile,       ///< rule 1: >= LargeFileCutoff, always local
    FirstTouch,      ///< rule 3: nobody caches it yet
    SelfBest,        ///< rule 4 picked this node
    Forward,         ///< rule 4: sent to the least-loaded caching node
    OverloadLocal,   ///< candidate overloaded: serve locally, replicate
    Oblivious,       ///< non-locality-conscious mode: always local
    DirLookup,       ///< sharded directory: routed via the shard owner
    Dynamic,         ///< dynamic-content class: generated on the
                     ///< initial node, no cache/disk involved
};

const char *dispatchDecisionName(DispatchDecision d);

/**
 * One trace record. 24 bytes, no padding, trivially copyable — the ring
 * stores these by value and the binary export writes them verbatim.
 */
struct TraceEvent {
    sim::Tick tick = 0;        ///< simulated time, ns
    std::uint64_t arg = 0;     ///< code-specific payload (see Ev)
    std::uint32_t req = 0;     ///< stable request id; 0 = none
    Ev code = Ev::None;
    Phase phase = Phase::Instant;
    std::uint8_t node = 0;     ///< originating node id
};

static_assert(sizeof(TraceEvent) == 24, "TraceEvent must stay 24 bytes");

/** Pack a message kind (or flow channel) with a byte (or credit) count
 *  into one arg word. */
constexpr std::uint64_t
packKindBytes(int kind, std::uint64_t bytes)
{
    return (bytes << 8) | static_cast<std::uint64_t>(kind & 0xff);
}

constexpr int
unpackKind(std::uint64_t arg)
{
    return static_cast<int>(arg & 0xff);
}

constexpr std::uint64_t
unpackBytes(std::uint64_t arg)
{
    return arg >> 8;
}

/**
 * The cluster-wide stable request id: initial node in the top byte
 * (+1 so id 0 means "no request"), the initial node's request tag
 * below. A file transfer on any node joins its originating HTTP request
 * by carrying the same id.
 */
constexpr std::uint32_t
requestId(int initial_node, std::uint32_t tag)
{
    return (static_cast<std::uint32_t>(initial_node + 1) << 24) |
           (tag & 0xffffffu);
}

} // namespace press::obs

#endif // PRESS_OBS_TRACE_EVENT_HPP
