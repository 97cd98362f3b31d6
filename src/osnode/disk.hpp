/**
 * @file
 * Disk model: positioning time plus sequential transfer.
 *
 * Matches the paper's Table 5 disk service rate
 * mu_d = (0.0188 + S/3000)^-1 ops/s with S in KB: an 18.8 ms average
 * positioning cost and a 3 MB/s sustained media rate (a late-90s SCSI
 * disk under a file-system workload). Requests are served FIFO; PRESS
 * keeps the main thread off the disk with helper threads, so disk service
 * overlaps CPU work, which a separate FifoResource gives us for free.
 */

#ifndef PRESS_OSNODE_DISK_HPP
#define PRESS_OSNODE_DISK_HPP

#include <cstdint>
#include <string>

#include "sim/resource.hpp"
#include "sim/simulator.hpp"

namespace press::osnode {

/** Disk timing parameters. */
struct DiskParams {
    sim::Tick positioning = 0; ///< seek + rotational latency, ns
    double bandwidth = 0;      ///< media transfer rate, bytes/second

    /** The paper's SCSI disk (Table 5); also the model's 1/mu_d. */
    static DiskParams defaults();
};

/** A single FIFO-served disk. */
class Disk
{
  public:
    Disk(sim::Simulator &sim, std::string name,
         DiskParams params = DiskParams::defaults());

    Disk(const Disk &) = delete;
    Disk &operator=(const Disk &) = delete;

    /** Read @p bytes; @p on_done fires when the data is in memory. */
    void read(std::uint64_t bytes, sim::EventFn on_done);

    /** Service time for a read of @p bytes. */
    sim::Tick readTime(std::uint64_t bytes) const;

    /** Reads completed. */
    std::uint64_t reads() const { return _queue.completed(); }

    /** Total busy time. */
    sim::Tick busyTime() const { return _queue.busyTime(); }

    /** Utilization over the run. */
    double utilization() const { return _queue.utilization(); }

    /** Reset statistics (e.g. at a measurement boundary). */
    void resetStats() { _queue.resetStats(); }

    /** The underlying queueing resource (for attaching observers). */
    sim::FifoResource &resource() { return _queue; }

    const DiskParams &params() const { return _params; }

  private:
    DiskParams _params;
    sim::FifoResource _queue;
};

} // namespace press::osnode

#endif // PRESS_OSNODE_DISK_HPP
