/**
 * @file
 * The open queueing model of a locality-conscious server (Section 4).
 *
 * Each node is a set of M/M/1 stations — external NIC, CPU, internal
 * NIC, disk (Figure 7). Requests arrive balanced (rate lambda per node),
 * are parsed (mu_p), served locally (mu_m) or forwarded (mu_f) to a
 * service node that replies across the internal network (mu_s / mu_g),
 * with disk reads (mu_d) on cache misses. Cache behaviour comes from
 * Zipf locality mathematics: total cluster cache Clc with replication
 * fraction R, hit rates H/h, and forwarding probability
 * Q = (N-1)(1-h)/N.
 *
 * The model assumes perfect balance and cost-free distribution, so its
 * saturation throughput — N / max(per-station demand) — is an upper
 * bound, as the paper notes.
 */

#ifndef PRESS_MODEL_PRESS_MODEL_HPP
#define PRESS_MODEL_PRESS_MODEL_HPP

#include <string>

#include "model/params.hpp"

namespace press::model {

/** Locality quantities derived from the Zipf mathematics. */
struct Locality {
    double files = 0; ///< population size f
    double hsn = 0;   ///< single-node hit rate Hsn
    double hlc = 0;   ///< cluster (locality-conscious) hit rate Hlc
    double h = 0;     ///< replicated-files hit rate
    double q = 0;     ///< forwarding probability Q
};

/** Per-request expected service demands (seconds) at each station. */
struct Demands {
    double cpu = 0;
    double disk = 0;
    double niInternal = 0;
    double niExternal = 0;

    double max() const;
    const char *bottleneck() const;
};

/** One model evaluation. */
struct Prediction {
    Locality locality;
    Demands demands;
    double lambdaMax = 0;   ///< max per-node arrival rate, req/s
    double throughput = 0;  ///< cluster throughput, req/s
};

/** Which server organization the model evaluates. */
enum class ServerKind {
    /** PRESS: locality-conscious with intra-cluster file transfers. */
    LocalityConscious,
    /** Content-oblivious: per-node caches only, no forwarding —
     *  H = Hsn, Q = 0. */
    ContentOblivious,
    /** LARD-style front-end: cluster-wide locality (no replication
     *  term), no intra-cluster transfers, no forwarding CPU. */
    FrontEnd,
};

/** The analytical model. */
class PressModel
{
  public:
    explicit PressModel(ModelParams params,
                        ServerKind kind = ServerKind::LocalityConscious);

    /**
     * Locality derived from a target single-node hit rate: solves the
     * population f with z(C/S, f) = hsn, then Hlc, h, Q for @p nodes.
     */
    Locality localityFromHitRate(int nodes, double hsn) const;

    /** Locality for an explicit population of @p files files. */
    Locality localityFromPopulation(int nodes, double files) const;

    /** Predict throughput for @p nodes at a single-node hit rate. */
    Prediction predict(int nodes, double hsn) const;

    /** Predict throughput for an explicit file population. */
    Prediction predictFromPopulation(int nodes, double files) const;

    /** Per-request demands given locality. */
    Demands demands(int nodes, const Locality &loc) const;

    const ModelParams &params() const { return _p; }

    ServerKind kind() const { return _kind; }

  private:
    Prediction evaluate(int nodes, const Locality &loc) const;

    ModelParams _p;
    ServerKind _kind;
};

/**
 * Throughput improvement of configuration @p better over @p base at the
 * same operating point (the z-axis of Figures 8-13): returns e.g. 1.29
 * for +29%.
 */
double improvement(const PressModel &better, const PressModel &base,
                   int nodes, double hsn);

} // namespace press::model

#endif // PRESS_MODEL_PRESS_MODEL_HPP
