/**
 * @file
 * Isolated host-cost probes, one per layer, each driving only that
 * layer's public API with a fixed amount of work. They separate "this
 * layer got slower" from "the cluster sends more through it".
 */

#ifndef PERFBENCH_PROBES_HPP
#define PERFBENCH_PROBES_HPP

#include "workload/trace.hpp"

namespace perfbench {

/** sim: host ns per event of self-rescheduling event chains. */
double kernelNsPerEvent();

/** via: host ns per VIA send/receive pair (post, wire, reap) between two
 *  NICs on a cLAN fabric. */
double viaMsgHostNs();

/** tcpnet: host ns per TCP message between two stacks on a cLAN fabric
 *  (segmentation, ACKs, window updates included). */
double tcpMsgHostNs();

/** storage: host ns per lookup-or-insert of an 8 MB LRU file cache
 *  replaying @p trace's request stream. */
double cacheOpNs(const press::workload::Trace &trace);

} // namespace perfbench

#endif // PERFBENCH_PROBES_HPP
