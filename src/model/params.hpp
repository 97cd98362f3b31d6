/**
 * @file
 * Parameters of the analytical model — Table 5 of the paper.
 *
 * All rates are expressed as *costs* (seconds per operation); the
 * published mu parameters are their reciprocals. Sizes S are average
 * file sizes in bytes (the paper writes the formulas with S in KB and
 * rates in KB/s; values here are converted to SI).
 *
 * Every Table-5 constant the simulator also uses is read back from the
 * simulator's calibration, so the two cannot drift apart: 1/mu_p,
 * 1/mu_m and the wire sizes from core::Calibration, 1/mu_d from
 * osnode::DiskParams, the per-message NIC overheads from
 * net::FabricConfig. Ticks become seconds as ticks / 1e9, not
 * util::nsToSeconds: multiplying by 1e-9 would put 4 us one ulp off
 * the paper's 4e-6.
 */

#ifndef PRESS_MODEL_PARAMS_HPP
#define PRESS_MODEL_PARAMS_HPP

#include "core/calibration.hpp"
#include "net/fabric.hpp"
#include "osnode/disk.hpp"

namespace press::model {

/** Intra-cluster communication cost set (protocol/version dependent). */
struct CommCosts {
    double fwdCost = 0;      ///< 1/mu_f: CPU cost to forward a request
    double sendFixed = 0;    ///< fixed part of 1/mu_s (intra-cluster send)
    double sendPerByte = 0;  ///< per-byte part of 1/mu_s
    double recvFixed = 0;    ///< fixed part of 1/mu_g (intra-cluster recv)
    double recvPerByte = 0;  ///< per-byte part of 1/mu_g
    bool fileTwoMessages = false; ///< RMW file transfer = data + metadata
    double fileMetaBytes = core::MessageSizes{}.fileMeta; ///< RMW metadata

    /** VIA with regular 1-copy messages (Table 5 "VIA" rows). */
    static CommCosts viaRegular();

    /** VIA exploiting remote memory writes and zero-copy (the modified
     *  model of Section 4.2, "RMW and 0-copy"). */
    static CommCosts viaRmwZeroCopy();

    /** The complete TCP stack (Table 5 "TCP/cLAN" rows). */
    static CommCosts tcp();

    bool operator==(const CommCosts &) const = default;
};

/** The full parameter set (Table 5). */
struct ModelParams {
    // Locality parameters.
    double replication = 0.15;     ///< R
    double zipfAlpha = 0.8;        ///< alpha
    double cacheBytes = 128e6;     ///< C, per node
    double avgFileBytes = 16e3;    ///< S

    // Network interfaces: cost = overhead + size/bandwidth. The
    // bandwidths are the raw link rates and C above is the paper's
    // 128 MB, so these three stay model literals: the simulator models
    // different quantities (effective port rates of 105 and 11.75 MB/s,
    // its own cache size).
    double niIntOverhead =         ///< internal NIC, per message
        net::FabricConfig::clan().txOverhead / 1e9;
    double niIntBandwidth = 125e6; ///< internal NIC, bytes/s (1 Gb/s)
    double niExtOverhead =         ///< external NIC, per message
        net::FabricConfig::fastEthernet().txOverhead / 1e9;
    double niExtBandwidth = 12.5e6;///< external NIC, bytes/s (100 Mb/s)

    // CPU and disk.
    double parseCost = 1.0 / core::ParseRate; ///< 1/mu_p
    double replyFixed =                       ///< fixed part of 1/mu_m
        core::ServiceCosts{}.replyFixed / 1e9;
    double replyBandwidth =                   ///< per-byte part of 1/mu_m
        1e9 / core::ServiceCosts{}.replyPerByte;
    double diskFixed =                        ///< fixed part of 1/mu_d
        osnode::DiskParams::defaults().positioning / 1e9;
    double diskBandwidth =                    ///< per-byte part of 1/mu_d
        osnode::DiskParams::defaults().bandwidth;

    // Message sizes on the wire.
    double requestBytes = core::MessageSizes{}.httpRequest; ///< client GET
    double forwardBytes = core::MessageSizes{}.forward; ///< forward message

    CommCosts comm = CommCosts::viaRegular();

    /** Convenience preset builders. @{ */
    static ModelParams via();
    static ModelParams viaRmwZc();
    static ModelParams tcp();
    /** @} */
};

/**
 * Section 4.2's next-generation system applied to @p p: zero-copy
 * kernel TCP halves the fixed costs of the TCP mu_f, mu_s and mu_g
 * (user-level VIA already bypasses the kernel) and halves mu_m, since
 * file data goes to clients straight out of the cache; the external
 * network moves to gigabit links, the same NIC as the internal one.
 */
ModelParams future(ModelParams p);

} // namespace press::model

#endif // PRESS_MODEL_PARAMS_HPP
