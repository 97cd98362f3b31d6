#include "params.hpp"

namespace press::model {

CommCosts
CommCosts::viaRegular()
{
    return {.fwdCost = 1.0 / 31250.0, // 32 us
            .sendFixed = 30e-6,       // mu_s = (0.00003 + S/125000)^-1
            .sendPerByte = 1.0 / 125e6,
            .recvFixed = 30e-6,       // mu_g, same form
            .recvPerByte = 1.0 / 125e6};
}

CommCosts
CommCosts::viaRmwZeroCopy()
{
    // Forwards become remote writes polled by the main loop: the
    // send-thread handoff cost remains, the receive interrupt does not.
    // Zero-copy send is two RMW posts, no buffer copy; zero-copy
    // receive is a successful poll, no interrupt, no copy.
    return {.fwdCost = 1.0 / 31250.0,
            .sendFixed = 15e-6,
            .sendPerByte = 0,
            .recvFixed = 5e-6,
            .recvPerByte = 0,
            .fileTwoMessages = true}; // data + metadata per file
}

CommCosts
CommCosts::tcp()
{
    return {.fwdCost = 1.0 / 3676.0, // 272 us
            .sendFixed = 270e-6,     // mu_s = (0.00027 + S/125000)^-1
            .sendPerByte = 1.0 / 125e6,
            .recvFixed = 270e-6,     // mu_g
            .recvPerByte = 1.0 / 125e6};
}

ModelParams
ModelParams::via()
{
    return {.comm = CommCosts::viaRegular()};
}

ModelParams
ModelParams::viaRmwZc()
{
    return {.comm = CommCosts::viaRmwZeroCopy()};
}

ModelParams
ModelParams::tcp()
{
    return {.comm = CommCosts::tcp()};
}

ModelParams
future(ModelParams p)
{
    if (p.comm == CommCosts::tcp()) {
        p.comm.fwdCost /= 2;
        p.comm.sendFixed /= 2;
        p.comm.recvFixed /= 2;
    }
    // Halving a + S/B as a/2 + S/(2B) is exact: scaling by two commutes
    // with rounding.
    p.replyFixed /= 2;
    p.replyBandwidth *= 2;
    p.niExtOverhead = p.niIntOverhead;
    p.niExtBandwidth = p.niIntBandwidth;
    return p;
}

} // namespace press::model
