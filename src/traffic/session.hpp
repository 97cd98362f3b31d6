/**
 * @file
 * HTTP/1.1 keep-alive sessions for the open-loop traffic engine.
 *
 * The paper charges every request a full connection setup inside the
 * HTTP-processing cost mu_p [T5]. Real browsers reuse connections:
 * a session arrives, issues a geometric number of requests separated
 * by think time, and pays TCP establishment once. SessionModel
 * supplies the per-session draws — length and think gaps — as pure
 * counter-based functions of (seed, session id, request index), so
 * session shaping is deterministic and independent of arrival timing.
 *
 * The cost asymmetry the model exposes: requests after the first skip
 * Calibration::service.connSetup on the server CPU and the TCP
 * handshake bytes on the external wire (see PressCluster::issue and
 * PressServer::handleClientRequest).
 */

#ifndef PRESS_TRAFFIC_SESSION_HPP
#define PRESS_TRAFFIC_SESSION_HPP

#include <cstdint>

#include "sim/time.hpp"
#include "util/units.hpp"

namespace press::traffic {

/** Knobs for keep-alive session shaping. */
struct SessionSpec {
    bool enabled = false;
    double meanRequests = 8.0;        ///< geometric mean requests/connection
    std::uint32_t maxRequests = 128;  ///< clamp on one session's length
    sim::Tick thinkMean = 2 * util::MS; ///< exponential gap between requests

    // The arrival curve always describes the *request* rate; when
    // sessions are on, session arrivals are thinned by 1/meanRequests
    // so the offered request rate still matches the curve.
};

/** Counter-based per-session draws. */
class SessionModel
{
  public:
    SessionModel(const SessionSpec &spec, std::uint64_t seed);

    /** Requests in session @p session, in [1, maxRequests]. */
    std::uint32_t length(std::uint64_t session) const;

    /** Think gap before request @p index (1-based) of @p session. */
    sim::Tick thinkGap(std::uint64_t session, std::uint32_t index) const;

    const SessionSpec &spec() const { return _spec; }

  private:
    SessionSpec _spec;
    std::uint64_t _seed;
    double _logq; ///< log(1 - 1/meanRequests); 0 when mean <= 1
};

} // namespace press::traffic

#endif // PRESS_TRAFFIC_SESSION_HPP
