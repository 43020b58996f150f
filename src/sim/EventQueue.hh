/**
 * @file
 * Discrete event queue driving the whole simulation.
 *
 * Events are arbitrary callables scheduled at an absolute tick.
 * Ties are broken by insertion order (FIFO among same-tick events),
 * which keeps the simulation deterministic.
 *
 * Internally this is a calendar queue: a power-of-two ring of
 * one-tick buckets covers the near future [now, now + ringSize), and
 * an overflow min-heap (keyed on {when, seq}) holds everything
 * farther out. Nearly all simulator events land a handful of ticks
 * ahead (link hops, cache latencies), so schedule() and the run loop
 * are O(1) appends and bucket drains; the heap is only touched for
 * the rare long-delay event. Callbacks are SmallFunction, so captures
 * up to 48 bytes never heap-allocate.
 *
 * FIFO-tie invariant: a ring bucket never stores a sequence number.
 * That is sound because (a) direct appends to a bucket happen in
 * global schedule order, and (b) overflow events migrate into a
 * bucket only at the moment their tick first enters the ring window —
 * before any same-tick direct append can exist (a direct append for
 * that tick requires the window to already cover it, and every
 * advance of now() eagerly drains the whole newly-exposed window from
 * the heap first).
 */

#ifndef SPMCOH_SIM_EVENTQUEUE_HH
#define SPMCOH_SIM_EVENTQUEUE_HH

#include <array>
#include <bit>
#include <cstdint>
#include <queue>
#include <vector>

#include "sim/Logging.hh"
#include "sim/SmallFunction.hh"
#include "sim/Types.hh"

namespace spmcoh
{

/**
 * A discrete event queue.
 *
 * Every Region of a System owns one; simulated components schedule
 * closures on the queue of the region that owns their tile. Time
 * only moves forward: scheduling in the past is a panic (simulator
 * bug).
 */
class EventQueue
{
  public:
    using Callback = SmallFunction<void()>;

    EventQueue() : ring(ringSize) {}
    EventQueue(const EventQueue &) = delete;
    EventQueue &operator=(const EventQueue &) = delete;

    /** Current simulated time. */
    Tick now() const { return _now; }

    /** Number of events still pending. */
    std::size_t pending() const { return ringCount + overflow.size(); }

    /** Total events ever executed (for stats / microbenches). */
    std::uint64_t executed() const { return numExecuted; }

    /**
     * Schedule @p cb to run at absolute tick @p when.
     * @pre when >= now()
     */
    void
    schedule(Tick when, Callback cb)
    {
        if (when < _now)
            panic("EventQueue: scheduling in the past");
        if (when - _now < ringSize) {
            const std::size_t b = when & ringMask;
            ring[b].push_back(std::move(cb));
            occ[b >> 6] |= std::uint64_t{1} << (b & 63);
            ++ringCount;
        } else {
            overflow.push(FarEntry{when, nextSeq++, std::move(cb)});
        }
    }

    /** Schedule @p cb to run @p delta ticks from now. */
    void
    scheduleIn(Tick delta, Callback cb)
    {
        schedule(_now + delta, std::move(cb));
    }

    /**
     * Run events until the queue drains or @p limit ticks elapse.
     * @return true if the queue drained, false if the limit was hit.
     */
    bool
    run(Tick limit = maxTick)
    {
        while (pending() != 0) {
            const Tick next = nextEventTick();
            if (next > limit) {
                advanceTo(limit);
                return false;
            }
            advanceTo(next);
            drainBucket(next & ringMask);
        }
        return true;
    }

    /**
     * Earliest pending tick, or maxTick when the queue is empty.
     * Used by the partitioned run loop to pick the next epoch
     * horizon across regions.
     */
    Tick
    nextTick() const
    {
        return pending() == 0 ? maxTick : nextEventTick();
    }

    /**
     * Run every event strictly before @p end, then advance now() to
     * @p end. Events scheduled exactly at @p end stay pending (they
     * belong to the next window), so a region stopped at an epoch
     * horizon can still accept merged cross-region deliveries at
     * that horizon.
     * @pre end >= now()
     */
    void
    runUntil(Tick end)
    {
        while (pending() != 0) {
            const Tick next = nextEventTick();
            if (next >= end)
                break;
            advanceTo(next);
            drainBucket(next & ringMask);
        }
        advanceTo(end);
    }

    /** Execute a single event; returns false if none pending. */
    bool
    step()
    {
        if (pending() == 0)
            return false;
        const Tick next = nextEventTick();
        advanceTo(next);
        const std::size_t b = next & ringMask;
        auto &bucket = ring[b];
        Callback cb = std::move(bucket.front());
        bucket.erase(bucket.begin());
        if (bucket.empty())
            occ[b >> 6] &= ~(std::uint64_t{1} << (b & 63));
        --ringCount;
        ++numExecuted;
        cb();
        return true;
    }

  private:
    /** Ring span in ticks; power of two, one tick per bucket. */
    static constexpr std::size_t ringSize = 4096;
    static constexpr std::size_t ringMask = ringSize - 1;
    static constexpr std::size_t occWords = ringSize / 64;

    struct FarEntry
    {
        Tick when;
        std::uint64_t seq;
        Callback cb;

        bool
        operator>(const FarEntry &o) const
        {
            if (when != o.when)
                return when > o.when;
            return seq > o.seq;
        }
    };

    /**
     * Advance now() to @p t and eagerly pull every overflow event
     * whose tick just entered the ring window. Eagerness is what the
     * FIFO-tie invariant rests on (see file comment): migrated events
     * must reach their bucket before any direct same-tick append.
     */
    void
    advanceTo(Tick t)
    {
        _now = t;
        while (!overflow.empty() &&
               overflow.top().when - _now < ringSize) {
            FarEntry &top = const_cast<FarEntry &>(overflow.top());
            const std::size_t b = top.when & ringMask;
            ring[b].push_back(std::move(top.cb));
            occ[b >> 6] |= std::uint64_t{1} << (b & 63);
            ++ringCount;
            overflow.pop();
        }
    }

    /**
     * Earliest pending tick. Ring events always precede every
     * overflow event (the heap only holds ticks beyond the window),
     * so scan the occupancy bitmap first.
     * @pre pending() != 0
     */
    Tick
    nextEventTick() const
    {
        if (ringCount == 0)
            return overflow.top().when;
        const std::size_t start = _now & ringMask;
        std::size_t w = start >> 6;
        std::uint64_t word =
            occ[w] & (~std::uint64_t{0} << (start & 63));
        for (std::size_t i = 0; i <= occWords; ++i) {
            if (word) {
                const std::size_t b =
                    (w << 6) + std::countr_zero(word);
                return _now + ((b - start) & ringMask);
            }
            w = (w + 1) & (occWords - 1);
            word = occ[w];
        }
        panic("EventQueue: occupancy bitmap out of sync");
    }

    /**
     * Execute every event in bucket @p b, including same-tick events
     * appended by the callbacks themselves (the index re-checks the
     * live size, and no other tick can map here while it is within
     * the window).
     */
    void
    drainBucket(std::size_t b)
    {
        auto &bucket = ring[b];
        for (std::size_t i = 0; i < bucket.size(); ++i) {
            Callback cb = std::move(bucket[i]);
            --ringCount;
            ++numExecuted;
            cb();
        }
        bucket.clear();
        occ[b >> 6] &= ~(std::uint64_t{1} << (b & 63));
    }

    std::vector<std::vector<Callback>> ring;
    std::array<std::uint64_t, occWords> occ{};
    std::size_t ringCount = 0;
    std::priority_queue<FarEntry, std::vector<FarEntry>,
                        std::greater<>>
        overflow;
    Tick _now = 0;
    std::uint64_t nextSeq = 0;
    std::uint64_t numExecuted = 0;
};

} // namespace spmcoh

#endif // SPMCOH_SIM_EVENTQUEUE_HH
