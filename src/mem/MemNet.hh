/**
 * @file
 * Message fabric gluing all memory-system controllers to the mesh.
 *
 * Controllers register a handler per (endpoint kind, id); senders name
 * the destination endpoint and the fabric turns the message into one
 * NoC packet (control or data sized) delivered via the event queue.
 * Tile placement: core i's L1/DMAC/Coh structures and the i-th L2
 * slice, directory slice and FilterDir slice all live on tile i.
 *
 * Regions (bindRegions): tiles are split into row bands, each with
 * its own EventQueue; an unpartitioned machine is one region holding
 * every tile. events() resolves through tlsExecRegion to the
 * executing region's queue, so component code is oblivious to the
 * partitioning. Intra-region packets take the normal
 * contention-modeled path on the region's own link state; cross-
 * region packets (and cross-region protocol operations registered via
 * deferCross) are buffered in per-region outboxes during an epoch
 * window and merged at the epoch barrier in canonical
 * (tick, src-region, seq) order.
 *
 * The merge itself is sharded: the single-threaded canonical pass
 * only fixes each delivery's arrival tick (route pricing, per-pair
 * FIFO, link/hub reservations — everything that reads shared state);
 * the priced deliveries land in per-destination-region inboxes, and
 * each region schedules its own inbox onto its queue at the start of
 * the next window (drainInbox), in parallel with every other region.
 * Inbox order is the canonical merge order, so the destination
 * queue's FIFO tie-break is byte-identical at any worker thread
 * count.
 */

#ifndef SPMCOH_MEM_MEMNET_HH
#define SPMCOH_MEM_MEMNET_HH

#include <algorithm>
#include <functional>
#include <memory>
#include <unordered_map>
#include <vector>

#include "coherence/HomeAgent.hh"
#include "mem/MessagePool.hh"
#include "mem/Messages.hh"
#include "noc/Mesh.hh"
#include "sim/Logging.hh"
#include "sim/Region.hh"

namespace spmcoh
{

/** Routes protocol messages between controllers over the mesh. */
class MemNet
{
  public:
    using Handler = std::function<void(const Message &)>;

    MemNet(Mesh &mesh_, std::uint32_t num_cores,
           std::vector<CoreId> mem_ctrl_tiles)
        : mesh(mesh_), numCores(num_cores),
          mcTiles(std::move(mem_ctrl_tiles))
    {
        for (auto &v : handlers)
            v.resize(numCores);
        if (mcTiles.empty())
            fatal("MemNet: need at least one memory controller tile");
        mcHandlers.resize(mcTiles.size());
    }

    /** Tile that is home for a given line/base address. */
    CoreId
    homeSlice(Addr line_addr) const
    {
        return interleaveSlice(line_addr >> lineShift, numCores);
    }

    /**
     * Memory controller index nearest to a tile (static mapping).
     * Controllers on the tile's own chip always win: every chip
     * keeps a local controller population, and a gateway-adjacent
     * tile must not adopt a remote chip's controller just because
     * the hub is one hop away.
     */
    std::uint32_t
    nearestMemCtrl(CoreId tile) const
    {
        const auto dist = [this, tile](CoreId mc) {
            return mesh.hops(tile, mc) +
                   (mesh.sameChip(tile, mc) ? 0u : crossChipPenalty);
        };
        std::uint32_t best = 0;
        std::uint32_t best_h = dist(mcTiles[0]);
        for (std::uint32_t i = 1; i < mcTiles.size(); ++i) {
            const std::uint32_t h = dist(mcTiles[i]);
            if (h < best_h) {
                best_h = h;
                best = i;
            }
        }
        return best;
    }

    /** The hub's home agent (multi-chip fabrics only). */
    void setHomeAgent(HomeAgent *a) { agent = a; }
    HomeAgent *homeAgent() { return agent; }

    CoreId mcTile(std::uint32_t mc) const { return mcTiles[mc]; }
    std::uint32_t numMemCtrls() const
    { return static_cast<std::uint32_t>(mcTiles.size()); }

    /** Register the handler for an endpoint. */
    void
    setHandler(Endpoint ep, std::uint32_t id, Handler h)
    {
        if (ep == Endpoint::MemCtrl)
            mcHandlers.at(id) = std::move(h);
        else
            handlers[epIndex(ep)].at(id) = std::move(h);
    }

    /**
     * Send @p msg from tile @p srcTile to endpoint (@p ep, @p id).
     * The packet size is derived from hasData; @p cls fixes the
     * Fig. 10 traffic category.
     * @return delivery tick.
     */
    Tick
    send(CoreId src_tile, Endpoint ep, std::uint32_t id, Message msg,
         TrafficClass cls)
    {
        msg.src = src_tile;
        const CoreId dst_tile =
            ep == Endpoint::MemCtrl ? mcTiles.at(id)
                                    : static_cast<CoreId>(id);
        const std::uint32_t bytes =
            msg.hasData ? dataPacketBytes : ctrlPacketBytes;
        Handler &h = ep == Endpoint::MemCtrl
            ? mcHandlers.at(id) : handlers[epIndex(ep)].at(id);
        if (!h)
            panic("MemNet: no handler registered for endpoint");
        Handler *hp = &h;
        if (inMerge)
            return deliverCross(hp, src_tile, dst_tile, msg, cls,
                                bytes, mergeHorizon, true);
        const std::uint32_t sr = tileRegion[src_tile];
        if (sr == tileRegion[dst_tile]) {
            // Both endpoints in one region. Park the message in a
            // pooled slot so the delivery closure stays pointer-sized
            // (inline in SmallFunction); the handler address is
            // stable because handler vectors never resize after
            // construction.
            Message *pm = pools[sr]->acquire(msg);
            EventQueue &q = regions[sr]->eq;
            // Chip boundaries are region boundaries whenever the
            // machine is cut, so only a one-region machine crosses
            // chips here.
            if (!mesh.sameChip(src_tile, dst_tile))
                return sendInterChip(q, src_tile, dst_tile, cls, bytes,
                                     pm, hp);
            // One row band: the XY route stays on the band's links,
            // so the normal contended path is safe.
            return mesh.send(q, src_tile, dst_tile, cls, bytes,
                             [this, hp, pm] {
                                 (*hp)(*pm);
                                 msgPool().release(pm);
                             });
        }
        // Cross-region: attribute traffic to the sender now, buffer
        // the delivery for the epoch merge. Delivery tick is decided
        // at merge time; no caller consumes the return value of a
        // cross-region send.
        mesh.account(src_tile, dst_tile, cls, bytes);
        outboxes[sr].push_back(CrossEntry{
            regions[sr]->eq.now(), sr, seqCounters[sr]++, false, {},
            hp, src_tile, dst_tile, cls, bytes, std::move(msg)});
        return 0;
    }

    /**
     * Bind the fabric to its regions (one region = the whole machine
     * on one queue). Tiles are mapped to regions by their
     * [loTile, endTile) spans; per-region message pools and outboxes
     * come up alongside. Must precede any send.
     */
    void
    bindRegions(const std::vector<Region *> &regs)
    {
        if (regs.empty())
            panic("MemNet: needs at least one region");
        regions = regs;
        const auto r_count = static_cast<std::uint32_t>(regs.size());
        tileRegion.assign(mesh.numTiles(), 0);
        pools.clear();
        for (const Region *r : regs) {
            for (std::uint32_t t = r->loTile; t < r->endTile; ++t)
                tileRegion.at(t) = r->index;
            pools.push_back(std::make_unique<MessagePool>());
        }
        // CrossEntry is move-only (it holds a Callback), so build
        // the per-region outboxes without the fill-assign copy path.
        outboxes.clear();
        outboxes.resize(r_count);
        seqCounters.assign(r_count, 0);
        inboxes.clear();
        inboxes.resize(r_count);
        inboxMin.assign(r_count, maxTick);
        mesh.setNumRegions(r_count);
    }

    std::uint32_t
    numRegions() const
    {
        return static_cast<std::uint32_t>(regions.size());
    }

    /** Region owning @p tile. */
    std::uint32_t regionOfTile(CoreId tile) const
    { return tileRegion[tile]; }

    /**
     * Queue that executes @p tile's events: the tile's region queue.
     * Use this instead of events() for follow-ups scheduled on behalf
     * of a specific tile from merge context (where tlsExecRegion is
     * the merge thread's).
     */
    EventQueue &
    queueFor(CoreId tile)
    {
        return regions[tileRegion[tile]]->eq;
    }

    /**
     * Register a protocol operation that may read or write another
     * region's state. The operation is buffered like a cross-region
     * message and runs single-threaded at the first epoch merge whose
     * horizon covers @p when, in canonical order.
     */
    void
    deferCross(Tick when, EventQueue::Callback fn)
    {
        if (regions.size() == 1) {
            // One region owns all state and its window spans the
            // whole run, so the operation is a plain schedule on its
            // queue (a merge would only run it after the run ends).
            regions[0]->eq.schedule(when, std::move(fn));
            return;
        }
        if (inMerge) {
            // Ops spawned during the merge keep merging: the pop loop
            // re-examines the heap top, so a due entry pushed here
            // still runs in this epoch. Sentinel src-region numRegions
            // orders merge-spawned entries after same-tick window
            // entries.
            heapPush(CrossEntry{when, numRegions(), mergeSeq++,
                                true, std::move(fn), nullptr,
                                0, 0, TrafficClass::CohProt, 0,
                                Message{}});
            return;
        }
        const std::uint32_t r = tlsExecRegion;
        outboxes[r].push_back(CrossEntry{when, r, seqCounters[r]++,
                                         true, std::move(fn), nullptr,
                                         0, 0, TrafficClass::CohProt,
                                         0, Message{}});
    }

    /**
     * Earliest pending cross-region work, or maxTick. Valid between
     * epochs (outboxes are empty then); the run loop folds this into
     * its horizon so deferred operations with far-future ticks are
     * reached even when every region queue has drained.
     */
    Tick
    crossPendingTick() const
    {
        return crossHeap.empty() ? maxTick : crossHeap.front().tick;
    }

    /**
     * Earliest undrained inbox delivery for region @p r, or maxTick.
     * Valid between epochs; the run loop folds it into the horizon
     * and skips regions whose inbox and queue are both beyond it.
     */
    Tick inboxTick(std::uint32_t r) const { return inboxMin[r]; }

    /** Earliest undrained inbox delivery anywhere, or maxTick. */
    Tick
    inboxPendingTick() const
    {
        Tick t = maxTick;
        for (Tick m : inboxMin)
            t = std::min(t, m);
        return t;
    }

    /**
     * Schedule region @p r's pending merged deliveries onto its
     * queue, in the canonical order the merge priced them. Called by
     * the worker driving @p r at the start of a window — this is the
     * sharded half of the epoch merge, safe to run concurrently with
     * other regions' drains because it touches only @p r's inbox and
     * queue (the epoch barrier orders it against the merge itself).
     */
    void
    drainInbox(std::uint32_t r)
    {
        auto &box = inboxes[r];
        if (box.empty())
            return;
        EventQueue &q = regions[r]->eq;
        for (const PendingDelivery &d : box) {
            Handler *hp = d.hp;
            Message *pm = d.pm;
            q.schedule(d.when, [this, hp, pm] {
                (*hp)(*pm);
                msgPool().release(pm);
            });
        }
        box.clear();
        inboxMin[r] = maxTick;
    }

    /**
     * Epoch barrier: fold the window's outboxes into the canonical
     * (tick, src-region, seq) heap and run every entry due at or
     * before @p horizon. Single-threaded; every region queue —
     * including skipped ones, whose clocks the run loop advances —
     * sits exactly at @p horizon, which merge-time operations and
     * barrier releases rely on when scheduling relative to a queue's
     * now(). Operations run inline (they may
     * send, which prices a delivery, or defer again); message
     * deliveries are priced here — route latency, per-pair FIFO,
     * link/hub reservations — but only *scheduled* when the
     * destination region drains its inbox next window.
     * @return entries executed (the run loop's adaptive-window and
     *         stats input).
     */
    std::uint64_t
    mergeEpoch(Tick horizon)
    {
        mergeHorizon = horizon;
        inMerge = true;
        const std::uint32_t saved = tlsExecRegion;
        tlsExecRegion = 0;
        for (auto &box : outboxes) {
            for (CrossEntry &e : box)
                heapPush(std::move(e));
            box.clear();
        }
        std::uint64_t ran = 0;
        while (!crossHeap.empty() &&
               crossHeap.front().tick <= horizon) {
            CrossEntry e = heapPop();
            ++ran;
            if (e.isOp)
                e.fn();
            else
                deliverCross(e.hp, e.src, e.dst, e.msg, e.cls,
                             e.bytes, e.tick, false);
        }
        inMerge = false;
        tlsExecRegion = saved;
        return ran;
    }

    /**
     * Account traffic for one leg of an aggregated broadcast without
     * scheduling a delivery event (see DESIGN.md).
     */
    void
    accountOnly(CoreId src_tile, CoreId dst_tile, TrafficClass cls,
                bool has_data)
    {
        mesh.account(src_tile, dst_tile, cls,
                     has_data ? dataPacketBytes : ctrlPacketBytes);
    }

    Mesh &noc() { return mesh; }

    /**
     * The event queue driving the caller: the queue of the region
     * the current thread is executing. Component code schedules
     * follow-ups here without knowing whether the run is
     * partitioned.
     */
    EventQueue &
    events()
    {
        return regions[tlsExecRegion]->eq;
    }

    std::uint32_t cores() const { return numCores; }

    /**
     * In-flight Message pool for the executing region. A message
     * acquired from one region's pool may be released into another's
     * after a cross-region delivery; that only migrates the slot's
     * freelist membership — the backing chunks stay owned by their
     * original pools, which live exactly as long as this fabric.
     */
    MessagePool &
    msgPool()
    {
        return *pools[tlsExecRegion];
    }

  private:
    /**
     * One unit of buffered cross-region work: either a message
     * (delivered into the destination region at merge) or a deferred
     * protocol operation. Canonical merge order is
     * (tick, srcRegion, seq); seq counters are per-region, so the
     * order never depends on worker interleaving.
     */
    struct CrossEntry
    {
        Tick tick;
        std::uint32_t srcRegion;
        std::uint64_t seq;
        bool isOp;
        EventQueue::Callback fn;  ///< op payload
        Handler *hp;              ///< message payload...
        CoreId src;
        CoreId dst;
        TrafficClass cls;
        std::uint32_t bytes;
        Message msg;

        bool
        operator>(const CrossEntry &o) const
        {
            if (tick != o.tick)
                return tick > o.tick;
            if (srcRegion != o.srcRegion)
                return srcRegion > o.srcRegion;
            return seq > o.seq;
        }
    };

    /**
     * A merged, priced delivery parked in its destination region's
     * inbox until that region's next window (drainInbox).
     */
    struct PendingDelivery
    {
        Tick when;
        Handler *hp;
        Message *pm;
    };

    /** Push onto the canonical min-heap (vector + heap algorithms —
     *  unlike std::priority_queue this pops by move, not const_cast). */
    void
    heapPush(CrossEntry e)
    {
        crossHeap.push_back(std::move(e));
        std::push_heap(crossHeap.begin(), crossHeap.end(),
                       std::greater<>{});
    }

    /** Pop the canonically-least entry. @pre !crossHeap.empty() */
    CrossEntry
    heapPop()
    {
        std::pop_heap(crossHeap.begin(), crossHeap.end(),
                      std::greater<>{});
        CrossEntry e = std::move(crossHeap.back());
        crossHeap.pop_back();
        return e;
    }

    /**
     * Deliver a cross-region packet from merge context: price the
     * route contention-free, never earlier than the horizon, keep
     * (src, dst) point-to-point ordering, and schedule the handler
     * into the destination region's queue. @p account is set for
     * sends issued by merge-time operations (window-time cross sends
     * were already accounted at the sender).
     */
    Tick
    deliverCross(Handler *hp, CoreId src, CoreId dst,
                 const Message &msg, TrafficClass cls,
                 std::uint32_t bytes, Tick send_tick, bool account)
    {
        if (account)
            mesh.account(src, dst, cls, bytes);
        Tick t;
        if (!mesh.sameChip(src, dst)) {
            // Cross-chip from merge context: contention-free on-chip
            // legs (like any cross-region packet), stateful link and
            // hub reservations (safe: the merge is single-threaded
            // and chip boundaries are always region boundaries, so
            // no worker ever touches this state).
            const std::uint32_t sc = mesh.chipOf(src);
            const std::uint32_t dc = mesh.chipOf(dst);
            t = send_tick +
                mesh.routeLatency(src, mesh.gatewayOf(sc), bytes);
            t = crossChipTransit(t, msg, sc, dc, send_tick, bytes);
            t += mesh.routeLatency(mesh.gatewayOf(dc), dst, bytes);
        } else {
            t = send_tick + mesh.routeLatency(src, dst, bytes);
        }
        if (t < mergeHorizon)
            t = mergeHorizon;
        t = mesh.orderedDelivery(src, dst, t);
        // Priced and ordered; scheduling is the destination region's
        // job (drainInbox, next window). The pooled slot comes from
        // the merge context's pool and is released by the executing
        // region — that only migrates freelist membership (see
        // msgPool()).
        Message *pm = msgPool().acquire(msg);
        const std::uint32_t dr = tileRegion[dst];
        inboxes[dr].push_back(PendingDelivery{t, hp, pm});
        inboxMin[dr] = std::min(inboxMin[dr], t);
        return t;
    }

    /**
     * Cross-chip delivery inside one region (the unpartitioned
     * machine): contended on-chip legs to and from the gateways
     * around the shared link/hub reservations, delivered on @p q.
     */
    Tick
    sendInterChip(EventQueue &q, CoreId src, CoreId dst,
                  TrafficClass cls, std::uint32_t bytes, Message *pm,
                  Handler *hp)
    {
        const std::uint32_t sc = mesh.chipOf(src);
        const std::uint32_t dc = mesh.chipOf(dst);
        const Tick sent = q.now();
        Tick t = mesh.reserveLeg(sent, src, mesh.gatewayOf(sc), bytes);
        t = crossChipTransit(t, *pm, sc, dc, sent, bytes);
        t = mesh.reserveLeg(t, mesh.gatewayOf(dc), dst, bytes);
        t = mesh.finishDelivery(src, dst, t, bytes);
        mesh.account(src, dst, cls, bytes);
        q.schedule(t, [this, hp, pm] {
            (*hp)(*pm);
            msgPool().release(pm);
        });
        return t;
    }

    /** Up-link -> home agent -> down-link, with occupancy. */
    Tick
    crossChipTransit(Tick t, const Message &msg, std::uint32_t sc,
                     std::uint32_t dc, Tick send_tick,
                     std::uint32_t bytes)
    {
        t = mesh.interChipLink(sc).reserveUp(t, bytes);
        if (agent)
            t = agent->service(t, msg, sc, dc, send_tick);
        return mesh.interChipLink(dc).reserveDown(t, bytes);
    }

    static std::size_t
    epIndex(Endpoint ep)
    {
        switch (ep) {
          case Endpoint::L1D:    return 0;
          case Endpoint::L1I:    return 1;
          case Endpoint::Dir:    return 2;
          case Endpoint::Dmac:   return 3;
          case Endpoint::Coh:    return 4;
          case Endpoint::CohDir: return 5;
          default: panic("MemNet: bad endpoint");
        }
    }

    /** nearestMemCtrl bias keeping controllers chip-local; larger
     *  than any possible hop count. */
    static constexpr std::uint32_t crossChipPenalty = 1u << 20;

    Mesh &mesh;
    std::uint32_t numCores;
    std::vector<CoreId> mcTiles;
    HomeAgent *agent = nullptr;
    std::array<std::vector<Handler>, 6> handlers;
    std::vector<Handler> mcHandlers;

    std::vector<Region *> regions;
    std::vector<std::uint32_t> tileRegion;
    std::vector<std::unique_ptr<MessagePool>> pools;
    std::vector<std::vector<CrossEntry>> outboxes;
    std::vector<std::uint64_t> seqCounters;
    /** Canonical (tick, srcRegion, seq) min-heap (heapPush/heapPop). */
    std::vector<CrossEntry> crossHeap;
    /** Priced deliveries awaiting their destination region's drain;
     *  inboxMin[r] caches the earliest tick (maxTick = empty). */
    std::vector<std::vector<PendingDelivery>> inboxes;
    std::vector<Tick> inboxMin;
    std::uint64_t mergeSeq = 0;
    Tick mergeHorizon = 0;
    bool inMerge = false;
};

} // namespace spmcoh

#endif // SPMCOH_MEM_MEMNET_HH
