/**
 * @file
 * Scoped fork-join barrier used by the workload models.
 *
 * Modeled as a centralized counter with a configurable release
 * latency rather than as literal shared-memory spinning, which would
 * drown the traffic figures in synchronization noise the paper's
 * OpenMP runtime does not exhibit.
 *
 * Barriers are *group-scoped*: each instance counts exactly the
 * phase-graph membership set that will arrive at it (a kernel's core
 * group plus its cross-group waiters), and its release latency is
 * derived from the mesh span of that membership (System::barrierFor)
 * instead of one all-cores constant. A flat program's degenerate
 * phase graph yields all-core barriers with the configured
 * whole-machine latency.
 */

#ifndef SPMCOH_CPU_BARRIER_HH
#define SPMCOH_CPU_BARRIER_HH

#include <cstdint>
#include <functional>
#include <vector>

#include "sim/EventQueue.hh"
#include "sim/Logging.hh"

namespace spmcoh
{

/** Reusable counted barrier. */
class Barrier
{
  public:
    explicit Barrier(std::uint32_t parties_, Tick release_latency)
        : parties(parties_), releaseLatency(release_latency)
    {
        if (parties_ == 0)
            fatal("Barrier: zero parties");
    }

    /**
     * Arrive; @p cb runs on @p q (the waiter's region queue) when the
     * last party arrives. The release schedules one event per
     * distinct queue, in first-appearance order, each running its
     * queue's callbacks in arrival order — so a one-region run
     * schedules a single event, and a partitioned run wakes every
     * region at the same release tick. Partitioned arrivals happen
     * at the single-threaded epoch merge, where every region queue
     * sits at the same horizon; scheduling relative to each queue's
     * now() therefore releases all waiters at one simulated tick.
     */
    void
    arrive(EventQueue &q, std::function<void()> cb)
    {
        waiting.push_back(Waiter{&q, std::move(cb)});
        if (waiting.size() == parties) {
            std::vector<Waiter> release;
            release.swap(waiting);
            ++generationCount;
            std::vector<EventQueue *> queues;
            for (const Waiter &w : release) {
                bool seen = false;
                for (EventQueue *known : queues)
                    seen = seen || known == w.q;
                if (!seen)
                    queues.push_back(w.q);
            }
            for (EventQueue *rq : queues) {
                std::vector<std::function<void()>> cbs;
                for (Waiter &w : release)
                    if (w.q == rq)
                        cbs.push_back(std::move(w.cb));
                rq->scheduleIn(releaseLatency,
                               [cbs = std::move(cbs)] {
                    for (const auto &f : cbs)
                        f();
                });
            }
        } else if (waiting.size() > parties) {
            panic("Barrier: too many arrivals");
        }
    }

    std::uint64_t generation() const { return generationCount; }
    std::uint32_t pendingArrivals() const
    { return static_cast<std::uint32_t>(waiting.size()); }
    /** Size of the membership set this barrier counts. */
    std::uint32_t expectedParties() const { return parties; }
    /** Release latency this barrier was scoped with. */
    Tick latency() const { return releaseLatency; }

  private:
    struct Waiter
    {
        EventQueue *q;
        std::function<void()> cb;
    };

    std::uint32_t parties;
    Tick releaseLatency;
    std::vector<Waiter> waiting;
    std::uint64_t generationCount = 0;
};

} // namespace spmcoh

#endif // SPMCOH_CPU_BARRIER_HH
