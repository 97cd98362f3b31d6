#include "config.hpp"

#include <cstdlib>
#include <string_view>

namespace press::core {

namespace {

/** @p prefix followed by the decimal @p n. Built by appending: GCC 12
 *  at -O3 flags "literal" + std::string&& with a false -Wrestrict. */
std::string
tagged(const char *prefix, int n)
{
    std::string s = prefix;
    s += std::to_string(n);
    return s;
}

} // namespace

const char *
protocolName(Protocol p)
{
    switch (p) {
      case Protocol::TcpFastEthernet:
        return "TCP/FE";
      case Protocol::TcpClan:
        return "TCP/cLAN";
      case Protocol::ViaClan:
        return "VIA/cLAN";
    }
    return "?";
}

const char *
distributionName(Distribution d)
{
    switch (d) {
      case Distribution::LocalityConscious:
        return "PRESS";
      case Distribution::LocalOnly:
        return "oblivious";
      case Distribution::FrontEndLard:
        return "LARD";
    }
    return "?";
}

const char *
viaCheckName(ViaCheck c)
{
    switch (c) {
      case ViaCheck::Off:
        return "off";
      case ViaCheck::Abort:
        return "abort";
      case ViaCheck::Record:
        return "record";
    }
    return "?";
}

ViaCheck
viaCheckDefault()
{
    const char *env = std::getenv("PRESS_CHECK");
    if (!env)
        return ViaCheck::Off;
    std::string_view v(env);
    if (v.empty() || v == "0" || v == "off")
        return ViaCheck::Off;
    if (v == "record" || v == "report")
        return ViaCheck::Record;
    return ViaCheck::Abort;
}

ViaCheck
causalityDefault()
{
    const char *env = std::getenv("PRESS_CAUSALITY");
    if (!env)
        return ViaCheck::Off;
    std::string_view v(env);
    if (v.empty() || v == "0" || v == "off")
        return ViaCheck::Off;
    if (v == "record" || v == "report")
        return ViaCheck::Record;
    return ViaCheck::Abort;
}

bool
traceDefault()
{
    const char *env = std::getenv("PRESS_TRACE");
    if (!env)
        return false;
    std::string_view v(env);
    return !(v.empty() || v == "0" || v == "off");
}

const char *
versionName(Version v)
{
    switch (v) {
      case Version::V0:
        return "V0";
      case Version::V1:
        return "V1";
      case Version::V2:
        return "V2";
      case Version::V3:
        return "V3";
      case Version::V4:
        return "V4";
      case Version::V5:
        return "V5";
    }
    return "?";
}

std::string
Dissemination::label() const
{
    switch (kind) {
      case Kind::PiggyBack:
        return "PB";
      case Kind::Broadcast:
        return tagged("L", threshold) + (useRmw ? "/rmw" : "");
      case Kind::None:
        return "NLB";
      case Kind::Gossip:
        return tagged("G", fanout);
      case Kind::Tree:
        return tagged("T", fanout);
    }
    return "?";
}

const char *
directoryModeName(DirectoryMode m)
{
    switch (m) {
      case DirectoryMode::Replicated:
        return "repl";
      case DirectoryMode::Sharded:
        return "shard";
    }
    return "?";
}

std::string
PressConfig::label() const
{
    std::string s = protocolName(protocol);
    if (protocol == Protocol::ViaClan &&
        distribution == Distribution::LocalityConscious)
        s += std::string("-") + versionName(version);
    if (!(dissemination.kind == Dissemination::Kind::PiggyBack))
        s.append("-").append(dissemination.label());
    if (directoryMode == DirectoryMode::Sharded)
        s += tagged("-S", dirShards);
    if (distribution != Distribution::LocalityConscious)
        s = std::string(distributionName(distribution)) + "(" + s + ")";
    return s;
}

} // namespace press::core
