/**
 * @file
 * The five intra-cluster message types of PRESS (Section 2.2):
 * load information, caching information, request forwarding, file
 * transfer, and window-based flow control.
 */

#ifndef PRESS_CORE_MESSAGES_HPP
#define PRESS_CORE_MESSAGES_HPP

#include <cstdint>
#include <vector>

#include "net/payload.hpp"
#include "storage/file_set.hpp"

namespace press::core {

/** Message categories, used for accounting (Tables 2 and 4). Every
 *  message type below names its category as a static `Kind`. */
enum class MsgKind : int {
    Load = 0, ///< very short: a node's open-connection count
    Flow,     ///< very short: empty-buffer-slot credits
    Forward,  ///< short: a file name (request forwarding)
    Caching,  ///< short: a file name (cache add/evict broadcast)
    File,     ///< long: file data (and the V3+ metadata companion)
    Membership, ///< short: a node-state change (fault tolerance)
    NumKinds,
};

const char *msgKindName(MsgKind kind);

/**
 * Explicit load report. origin == -1 is the paper's broadcast (the
 * value describes the sender); origin >= 0 marks a gossip/tree
 * dissemination rumor about node `origin` with sequence `seq` —
 * `hops` is the remaining gossip relay budget (or the tree hop count,
 * diagnostics only). The extra header is charged on the wire as
 * MessageSizes::disseminationHeader only when origin >= 0, so the
 * paper's configurations keep their Table-2 sizes.
 */
struct LoadMsg {
    static constexpr MsgKind Kind = MsgKind::Load;
    int load = 0;
    int origin = -1;
    std::uint32_t seq = 0;
    int hops = 0;
};

/** Which flow-controlled channel a credit refers to. */
enum class FlowChannel : int {
    Regular = 0, ///< pre-posted regular-message descriptors
    Forward,     ///< forward-ring slots (RMW versions)
    Caching,     ///< caching-ring slots (RMW versions)
    File,        ///< file-ring slots (RMW versions)
    NumChannels,
};

/** Flow-control credit return. */
struct FlowMsg {
    static constexpr MsgKind Kind = MsgKind::Flow;
    int credits = 0;
    FlowChannel channel = FlowChannel::Regular;
};

/** How a ForwardMsg should be processed (sharded directories). */
enum class ForwardRoute : std::uint8_t {
    Serve,  ///< serve the file and send it to the requester (classic)
    Lookup, ///< shard owner: resolve the caching set, route the request
    Home,   ///< owner's verdict: the initial node should serve itself
};

/**
 * Request forwarding: "service this file for me". origin names the
 * initial node, so a request that travelled via a shard owner
 * (Lookup -> Serve) still sends its file straight back to it;
 * origin == -1 means the sender is the initial node.
 */
struct ForwardMsg {
    static constexpr MsgKind Kind = MsgKind::Forward;
    storage::FileId file = storage::InvalidFile;
    std::uint32_t tag = 0; ///< initial node's request tag
    int origin = -1;
    ForwardRoute route = ForwardRoute::Serve;
};

/** Caching information: a file entered or left a node's cache.
 *  origin/seq/hops as in LoadMsg (gossip/tree rumors); origin == -1
 *  is the paper's broadcast or a sharded-directory owner update (the
 *  change describes the sender). */
struct CachingMsg {
    static constexpr MsgKind Kind = MsgKind::Caching;
    storage::FileId file = storage::InvalidFile;
    bool cached = false; ///< true = now cached, false = evicted
    int origin = -1;
    std::uint32_t seq = 0;
    int hops = 0;
};

/**
 * Gossip digest: one round's load rumors for one peer, packed into a
 * single message. Unpacked, a round costs batch * fanout messages;
 * the digest collapses that to at most one Load plus one Caching
 * message per peer, taking the per-message user-level cost (doorbell,
 * descriptor, credit, receive dispatch) from O(batch) to O(1) per
 * peer. Charged on the wire as the sum of the packed rumors' sizes,
 * so the byte accounting matches the unpacked encoding and only the
 * message count drops.
 */
struct LoadDigestMsg {
    static constexpr MsgKind Kind = MsgKind::Load;
    std::vector<LoadMsg> rumors; ///< every entry has origin >= 0
};

/** Caching-information digest; see LoadDigestMsg. */
struct CachingDigestMsg {
    static constexpr MsgKind Kind = MsgKind::Caching;
    std::vector<CachingMsg> rumors; ///< every entry has origin >= 0
};

/**
 * Membership update: "node `subject` is in `state` as of fault epoch
 * `epoch`" (see fault/membership.hpp for the merge rule). `origin` is
 * the node that first confirmed the change; `hops` bounds gossip/tree
 * relaying exactly like the dissemination rumors. Only sent while a
 * FaultPlan is active — healthy runs never carry this kind.
 */
struct MembershipMsg {
    static constexpr MsgKind Kind = MsgKind::Membership;
    int subject = -1;
    std::uint8_t state = 0; ///< fault::NodeState
    std::uint32_t epoch = 0;
    int origin = -1;
    int hops = 0;
};

/** File transfer: the reply to a ForwardMsg. */
struct FileMsg {
    static constexpr MsgKind Kind = MsgKind::File;
    storage::FileId file = storage::InvalidFile;
    std::uint32_t tag = 0;  ///< echoes ForwardMsg::tag
    std::uint32_t bytes = 0;
};

/** A message as delivered to the server layer. */
struct Incoming {
    MsgKind kind = MsgKind::NumKinds;
    int from = -1;
    net::Payload body;
    int piggyLoad = -1; ///< sender load piggy-backed on the message, or -1
};

} // namespace press::core

#endif // PRESS_CORE_MESSAGES_HPP
