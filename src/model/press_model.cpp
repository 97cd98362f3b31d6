#include "press_model.hpp"

#include <algorithm>

#include "model/zipf_math.hpp"
#include "util/logging.hpp"

namespace press::model {

double
Demands::max() const
{
    return std::max({cpu, disk, niInternal, niExternal});
}

const char *
Demands::bottleneck() const
{
    double m = max();
    if (m == cpu)
        return "cpu";
    if (m == disk)
        return "disk";
    if (m == niInternal)
        return "ni-internal";
    return "ni-external";
}

PressModel::PressModel(ModelParams params, ServerKind kind)
    : _p(std::move(params)), _kind(kind)
{
    PRESS_ASSERT(_p.cacheBytes > 0 && _p.avgFileBytes > 0,
                 "bad model parameters");
}

Locality
PressModel::localityFromHitRate(int nodes, double hsn) const
{
    double cached = _p.cacheBytes / _p.avgFileBytes; // C / S, in files
    double files = solvePopulation(hsn, cached, _p.zipfAlpha);
    Locality loc = localityFromPopulation(nodes, files);
    loc.hsn = hsn;
    return loc;
}

Locality
PressModel::localityFromPopulation(int nodes, double files) const
{
    PRESS_ASSERT(nodes >= 1, "need at least one node");
    Locality loc;
    loc.files = files;
    double s = _p.avgFileBytes;
    double c = _p.cacheBytes;
    double r = _p.replication;
    double n = static_cast<double>(nodes);

    loc.hsn = zipfAccum(c / s, files, _p.zipfAlpha);

    switch (_kind) {
      case ServerKind::ContentOblivious:
        // Each node is on its own: the cluster hit rate is the
        // single-node hit rate and nothing is forwarded.
        loc.hlc = loc.hsn;
        loc.h = loc.hsn;
        loc.q = 0;
        return loc;
      case ServerKind::FrontEnd:
        // The front-end routes to the caching back-end: the cluster
        // cache is fully additive (no replication reserve) and no
        // request crosses the internal network after routing.
        loc.hlc = zipfAccum(n * c / s, files, _p.zipfAlpha);
        loc.h = loc.hlc;
        loc.q = 0;
        return loc;
      case ServerKind::LocalityConscious:
        break;
    }

    // Clc = N(1-R)C + RC bytes of distinct cache space.
    double clc = n * (1 - r) * c + r * c;
    loc.hlc = zipfAccum(clc / s, files, _p.zipfAlpha);

    // h = z(RC/S, f): hit rate of the replicated (local-everywhere)
    // portion; Q = (N-1)(1-h)/N of requests are forwarded.
    loc.h = zipfAccum(r * c / s, files, _p.zipfAlpha);
    loc.q = (n - 1) * (1 - loc.h) / n;
    return loc;
}

Demands
PressModel::demands(int nodes, const Locality &loc) const
{
    (void)nodes;
    const CommCosts &cc = _p.comm;
    double s = _p.avgFileBytes;
    double q = loc.q;

    Demands d;

    // CPU: parse every request; reply to the client (mu_m) whether the
    // file was local or fetched; forward (mu_f) + receive the file
    // (mu_g) for the forwarded share; and act as service node (mu_s)
    // for the symmetric share forwarded here.
    double reply_cost = _p.replyFixed + s / _p.replyBandwidth;
    double send_cost = cc.sendFixed + cc.sendPerByte * s;
    double recv_cost = cc.recvFixed + cc.recvPerByte * s;
    d.cpu = _p.parseCost + reply_cost +
            q * (cc.fwdCost + recv_cost) + q * send_cost;

    // Disk: cluster-wide misses.
    d.disk = (1 - loc.hlc) * (_p.diskFixed + s / _p.diskBandwidth);

    // Internal NIC: the forward out and the file reply in, plus the
    // symmetric forward in / file out as a service node. Full-duplex
    // engines are modelled as one station per direction; by symmetry
    // each direction carries one forward-sized and one file-sized
    // message per forwarded request.
    auto ni_cost = [&](double bytes) {
        return _p.niIntOverhead + bytes / _p.niIntBandwidth;
    };
    double file_wire = ni_cost(s);
    if (cc.fileTwoMessages)
        file_wire += ni_cost(cc.fileMetaBytes);
    d.niInternal = q * (ni_cost(_p.forwardBytes) + file_wire);

    // External NIC: request in, reply out.
    auto ne_cost = [&](double bytes) {
        return _p.niExtOverhead + bytes / _p.niExtBandwidth;
    };
    d.niExternal = ne_cost(_p.requestBytes) + ne_cost(s);

    return d;
}

Prediction
PressModel::evaluate(int nodes, const Locality &loc) const
{
    Prediction pred;
    pred.locality = loc;
    pred.demands = demands(nodes, loc);
    double m = pred.demands.max();
    PRESS_ASSERT(m > 0, "degenerate demands");
    pred.lambdaMax = 1.0 / m;
    pred.throughput = pred.lambdaMax * nodes;
    return pred;
}

Prediction
PressModel::predict(int nodes, double hsn) const
{
    return evaluate(nodes, localityFromHitRate(nodes, hsn));
}

Prediction
PressModel::predictFromPopulation(int nodes, double files) const
{
    return evaluate(nodes, localityFromPopulation(nodes, files));
}

double
improvement(const PressModel &better, const PressModel &base, int nodes,
            double hsn)
{
    double tb = better.predict(nodes, hsn).throughput;
    double ta = base.predict(nodes, hsn).throughput;
    return tb / ta;
}

} // namespace press::model
