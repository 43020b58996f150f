/**
 * @file
 * Region: the unit of deterministic intra-run parallelism.
 *
 * Every System runs over at least one region. An unpartitioned
 * machine (--sim-threads=0, HybridIdeal, or a mesh too small to cut)
 * is region 0: one EventQueue whose epoch window spans the whole
 * run, i.e. the classic monolithic event loop. A partitioned System
 * binds each contiguous band of mesh rows (a region) to its own
 * EventQueue. During an epoch every region
 * executes its queue up to a shared horizon on its own thread;
 * cross-region traffic is buffered in per-region outboxes, priced at
 * the epoch barrier in a canonical (tick, src-region, seq) order,
 * and parked in per-destination inboxes that each region drains on
 * its own thread at the next window — so results are byte-identical
 * at any thread count (the region structure, the horizon sequence
 * and the adaptive window width never depend on how many threads
 * execute it). Regions with nothing below the horizon are skipped
 * for the window; the run loop still advances their clocks to the
 * horizon so merge-time scheduling sees uniform queue times.
 *
 * The thread-local tlsExecRegion names the region the current thread
 * is executing. Everything that must be region-confined — event
 * scheduling, message pooling, traffic accounting — indexes through
 * it, which is what lets component code stay oblivious to the
 * partitioning (MemNet::events() resolves to the executing region's
 * queue).
 */

#ifndef SPMCOH_SIM_REGION_HH
#define SPMCOH_SIM_REGION_HH

#include <atomic>
#include <cstdint>
#include <thread>

#include "sim/EventQueue.hh"
#include "sim/Types.hh"

namespace spmcoh
{

/**
 * Region the current thread is executing (0 for a one-region machine
 * and during the epoch merge). Only the run loop writes it;
 * everything else reads it to pick region-confined resources.
 */
extern thread_local std::uint32_t tlsExecRegion;

/** One partition of the machine: a tile band plus its event queue. */
struct Region
{
    std::uint32_t index = 0;
    /** Tile span [loTile, endTile); bands are whole mesh rows, so XY
     *  routes between two tiles of one band never leave it. */
    std::uint32_t loTile = 0;
    std::uint32_t endTile = 0;

    EventQueue eq;

    Region(std::uint32_t idx, std::uint32_t lo, std::uint32_t end)
        : index(idx), loTile(lo), endTile(end) {}
};

/**
 * Sense-reversing spin barrier for the epoch loop. Epochs are a few
 * simulated ticks long, so parking threads in the kernel on every
 * window would dominate the run; spinning keeps the barrier in the
 * tens-of-nanoseconds range. After a bounded busy phase the waiter
 * falls back to yielding, so an oversubscribed machine (more sim
 * threads than hardware threads) degrades to scheduler-paced
 * progress instead of livelocking a timeslice per window.
 */
class SpinBarrier
{
  public:
    explicit SpinBarrier(std::uint32_t parties_)
        : parties(parties_) {}

    void
    wait()
    {
        const bool my_sense = !sense.load(std::memory_order_relaxed);
        if (count.fetch_add(1, std::memory_order_acq_rel) + 1 ==
            parties) {
            count.store(0, std::memory_order_relaxed);
            sense.store(my_sense, std::memory_order_release);
        } else {
            std::uint32_t spins = 0;
            while (sense.load(std::memory_order_acquire) != my_sense)
                if (++spins >= spinLimit)
                    std::this_thread::yield();
        }
    }

  private:
    static constexpr std::uint32_t spinLimit = 4096;

    std::uint32_t parties;
    std::atomic<std::uint32_t> count{0};
    std::atomic<bool> sense{false};
};

} // namespace spmcoh

#endif // SPMCOH_SIM_REGION_HH
