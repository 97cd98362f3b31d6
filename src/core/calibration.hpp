/**
 * @file
 * Every timing constant the PRESS simulation uses, with its source.
 *
 * Sources are: [T5] Table 5 of the paper (model parameters measured on
 * the authors' 300 MHz Pentium-II cluster), [S3.2] the microbenchmark
 * numbers quoted in Section 3.2, and [EST] stated engineering estimates
 * for quantities the paper does not report directly (thread context
 * switches, poll costs). Estimates were tuned once against the paper's
 * end-to-end anchors (Figures 1, 3, 5) and then frozen; EXPERIMENTS.md
 * records the resulting fidelity. The analytical model reads its shared
 * [T5] constants from here (model/params.hpp).
 */

#ifndef PRESS_CORE_CALIBRATION_HPP
#define PRESS_CORE_CALIBRATION_HPP

#include "sim/time.hpp"
#include "util/units.hpp"

namespace press::core {

using sim::Tick;
using util::MB;
using util::US;

/** [T5] mu_p, ops/s: accept + read + parse an HTTP request. The
 *  model charges 1/mu_p s (model::ModelParams::parseCost). */
inline constexpr double ParseRate = 5882;

/** The cost of one operation at @p ops_per_s, rounded to a whole
 *  microsecond (1/5882 s -> 170 us). */
constexpr Tick
wholeMicrosPerOp(double ops_per_s)
{
    return static_cast<Tick>(1e6 / ops_per_s + 0.5) * US;
}

/** CPU costs of request processing common to all server versions. */
struct ServiceCosts {
    /** [T5] 1/mu_p, rounded to whole microseconds. */
    Tick parse = wholeMicrosPerOp(ParseRate);

    /**
     * [T5] mu_m = (0.00027 + S/12500)^-1: reply to the client from local
     * memory — 270 us fixed plus 80 ns per byte pushed through the
     * kernel TCP stack to the external network. The model reads both
     * (model::ModelParams::replyFixed, replyBandwidth).
     */
    Tick replyFixed = 270 * US;
    double replyPerByte = 80.0; // ns/B

    /** [EST] LRU bookkeeping + directory update per cache operation. */
    Tick cacheOp = 5 * US;

    /** [EST] one main-loop pass: poll shared structures, timers. */
    Tick loopPass = 2 * US;

    /** [EST] shard-owner directory probe + route decision (sharded
     *  cache directory, ForwardRoute::Lookup processing). */
    Tick dirLookup = 4 * US;

    /**
     * [EST] the connection-establishment share of mu_p: kernel accept,
     * socket setup, and the amortized teardown. HTTP/1.1 keep-alive
     * requests (traffic::SessionSpec) reuse the connection and are
     * charged parse - connSetup instead of the full parse cost.
     */
    Tick connSetup = 70 * US;

    /**
     * [EST] dynamic-content request class: CPU to generate a page
     * instead of serving it from cache or disk (CGI-style work,
     * traffic::TrafficModel::dynamicFraction). Sized so a generated
     * page costs roughly 3-4x a cached static serve on the 300 MHz
     * P-II, in line with contemporary CGI/static ratios.
     */
    Tick dynamicFixed = 400 * US;
    double dynamicPerByte = 40.0; // ns/B generated
};

/**
 * CPU costs of the VIA communication path inside PRESS (send thread,
 * receive thread, descriptor handling; Figure 2 of the paper). The
 * per-byte copy rate is [T5]'s 125,000 KB/s (the S/125000 term of mu_s
 * and mu_g).
 */
struct ViaPathCosts {
    /** [EST] main thread queues a digest + wakes the send thread, plus
     *  the send thread builds/posts the descriptor. One-way ~12 us,
     *  consistent with [T5] mu_f(VIA) = 32 us for the full forward. */
    Tick regularSend = 12 * US;

    /** [EST] receive thread wake-up + digest copy into the structure
     *  shared with the main thread + main-thread pickup. */
    Tick regularRecv = 10 * US;

    /** [EST] RMW post of a ring entry (descriptor build + doorbell,
     *  still through the send thread). */
    Tick rmwSend = 7 * US;

    /** [EST] RMW post of a single overwritable word (flow credits,
     *  load); written directly by the main thread, "no overhead"
     *  per Section 2.2's flow-control discussion. */
    Tick rmwSendWord = 3 * US;

    /** [EST] consuming one RMW control message found by polling. */
    Tick rmwRecvControl = 2 * US;

    /** [EST] consuming an RMW file arrival (no interrupt, no thread). */
    Tick rmwRecvFile = 3 * US;

    /** [EST] one poll probe of one remote-write buffer (hit or miss). */
    Tick pollProbe = 400; // ns

    /**
     * [EST] effective memory-copy bandwidth for file-buffer copies.
     * Table 5's mu_s uses a 125 MB/s warm-cache rate, but the paper's
     * *measured* zero-copy gains (V4 +6.6%, V5 +3-4% on top) imply the
     * copies cost considerably more in situ — buffer copies run cold
     * and pollute the 512 KB L2. 60 MB/s reproduces the measured V3->V5
     * deltas on a 300 MHz P-II.
     */
    double copyBandwidth = 60.0 * static_cast<double>(MB);
};

/**
 * Extra CPU costs of the TCP communication path inside PRESS, *on top
 * of* the kernel costs in tcpnet::TcpCosts (which are charged by the
 * stack model itself): the same helper-thread machinery as the VIA path
 * plus select() over the N-1 intra-cluster sockets.
 */
struct TcpPathCosts {
    /**
     * [T5-derived] digest queue + semaphore + send-thread handoff +
     * per-socket bookkeeping. Table 5 measures mu_f(TCP) = 272 us per
     * forward while the raw 4-byte kernel latency is only ~80 us: the
     * difference is this server-side machinery, split across the two
     * ends below.
     */
    Tick serverSend = 70 * US;

    /** [T5-derived] receive-thread handoff + shared-structure copy +
     *  select() over the N-1 intra-cluster sockets per message. */
    Tick serverRecv = 80 * US;
};

/** Wire sizes of the five intra-cluster message types (Table 2's
 *  average-size column: flow 13 B, forward ~53 B, caching ~59 B,
 *  load 16 B). The model reads httpRequest, forward and fileMeta
 *  (model::ModelParams::requestBytes, forwardBytes and
 *  CommCosts::fileMetaBytes). */
struct MessageSizes {
    std::uint64_t load = 16;
    std::uint64_t flowRegular = 13;
    std::uint64_t flowRmw = 4;     ///< a single credit word
    std::uint64_t forward = 53;
    std::uint64_t caching = 59;
    std::uint64_t fileHeader = 32;  ///< header on a regular file message
    std::uint64_t fileMeta = 61;    ///< RMW file-metadata message (V3+)
    std::uint64_t httpRequest = 300;///< client GET on the external net
    std::uint64_t httpReplyHeader = 250;

    /** [EST] TCP connection establishment on the external net: SYN,
     *  SYN/ACK, ACK plus the amortized FIN exchange. Charged per fresh
     *  connection only when the keep-alive session model is active, so
     *  the paper's configurations keep their exact wire byte counts. */
    std::uint64_t tcpHandshake = 240;

    /** Extra header bytes on gossip/tree dissemination rumors
     *  (origin 4 B + seq 4 B + hops 1 B); charged only when a
     *  Load/Caching message carries origin >= 0, so the paper's
     *  configurations keep their exact Table-2 sizes. */
    std::uint64_t disseminationHeader = 9;
};

/** The full calibration set. */
struct Calibration {
    ServiceCosts service;
    ViaPathCosts via;
    TcpPathCosts tcp;
    MessageSizes sizes;

    static Calibration defaults() { return Calibration{}; }
};

} // namespace press::core

#endif // PRESS_CORE_CALIBRATION_HPP
