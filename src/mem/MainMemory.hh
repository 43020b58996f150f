/**
 * @file
 * Main memory: sparse data-carrying line store plus the memory
 * controllers that front it on the mesh.
 *
 * Lines never touched read as zero. Controllers serve line reads and
 * writes with a fixed access latency plus a bandwidth-limited service
 * slot (one line per serviceCycles), modeling DDR contention at the
 * level the evaluation needs.
 *
 * The store is the one structure memory controllers in different
 * regions of a partitioned run share, so it is sharded by line
 * address with a mutex per shard. The locks protect only the hash
 * map structure (rehashes, bucket chains); per-line *value* ordering
 * needs none, because every line is served by exactly one controller
 * — the static nearestMemCtrl of the line's home directory slice —
 * and a controller's events all execute on one region's thread.
 */

#ifndef SPMCOH_MEM_MAINMEMORY_HH
#define SPMCOH_MEM_MAINMEMORY_HH

#include <array>
#include <cstdint>
#include <mutex>
#include <unordered_map>
#include <vector>

#include "mem/Messages.hh"
#include "sim/EventQueue.hh"
#include "sim/Logging.hh"
#include "sim/Stats.hh"
#include "sim/Types.hh"

namespace spmcoh
{

/** Backing store shared by all memory controllers. */
class MainMemory
{
  public:
    /** Read a full line (zero-filled if untouched). */
    LineData
    readLine(Addr line_addr) const
    {
        const Addr la = lineAlign(line_addr);
        const Shard &s = shards[shardOf(la)];
        std::lock_guard<std::mutex> lock(s.mtx);
        auto it = s.lines.find(la);
        return it == s.lines.end() ? LineData{} : it->second;
    }

    /** Write a full line. */
    void
    writeLine(Addr line_addr, const LineData &d)
    {
        const Addr la = lineAlign(line_addr);
        Shard &s = shards[shardOf(la)];
        std::lock_guard<std::mutex> lock(s.mtx);
        s.lines[la] = d;
    }

    /** Functional 64-bit read (tests / reference model). */
    std::uint64_t
    read64(Addr addr) const
    {
        return readLine(addr).read64(lineOffset(addr) & ~7u);
    }

    /** Functional 64-bit write (initialization / reference model). */
    void
    write64(Addr addr, std::uint64_t v)
    {
        LineData d = readLine(addr);
        d.write64(lineOffset(addr) & ~7u, v);
        writeLine(addr, d);
    }

    std::size_t
    linesTouched() const
    {
        std::size_t n = 0;
        for (const Shard &s : shards) {
            std::lock_guard<std::mutex> lock(s.mtx);
            n += s.lines.size();
        }
        return n;
    }

  private:
    struct Shard
    {
        mutable std::mutex mtx;
        std::unordered_map<Addr, LineData> lines;
    };

    static constexpr std::size_t numShards = 64;

    static std::size_t
    shardOf(Addr line_addr)
    {
        return (line_addr >> lineShift) & (numShards - 1);
    }

    std::array<Shard, numShards> shards;
};

/** Memory controller timing parameters. */
struct MemCtrlParams
{
    Tick accessLatency = 80;  ///< fixed DRAM access time (cycles)
    Tick serviceCycles = 2;   ///< controller occupancy per line
};

/** Pooled far-memory tier parameters (multi-chip fabrics). */
struct PooledMemoryParams
{
    Tick accessLatency = 0;          ///< pool access time (cycles)
    std::uint32_t bytesPerCycle = 8; ///< pool serialization width
    std::uint32_t chips = 1;         ///< fabric size (backing map)
};

/**
 * The disaggregated far-memory pool behind the hub. Lines are
 * statically interleaved over the chips; a controller whose chip
 * does not back a line pays the pool's latency and bandwidth for it
 * instead of local DRAM timing. Functional data still lives in
 * MainMemory — the pool only prices the access.
 *
 * Determinism: serviceAt() mutates one shared next-free slot, so it
 * is only ever called from the monolithic event loop or from the
 * single-threaded epoch merge (controllers route pooled accesses
 * through MemNet::deferCross).
 */
class PooledMemory
{
  public:
    explicit PooledMemory(const PooledMemoryParams &p_)
        : p(p_), stats("farmem"),
          stReads(stats.counter("reads")),
          stWrites(stats.counter("writes")),
          queueDelay(stats.histogram(
              "queueDelay", {1, 2, 4, 8, 16, 32, 64, 128, 256}))
    {}

    /** Chip whose local DRAM backs a line (static interleave). */
    std::uint32_t
    backingChip(Addr addr) const
    {
        return interleaveSlice(addr >> lineShift, p.chips);
    }

    /** Service one line access arriving at @p t; returns done tick. */
    Tick
    serviceAt(Tick t, bool is_write)
    {
        if (is_write)
            ++stWrites;
        else
            ++stReads;
        const std::uint32_t w = p.bytesPerCycle ? p.bytesPerCycle : 1;
        const Tick occ = static_cast<Tick>(divCeil(lineBytes, w));
        Tick start = t;
        if (nextFree > start)
            start = nextFree;
        nextFree = start + occ;
        queueDelay.sample(start - t);
        return start + occ + p.accessLatency;
    }

    const StatGroup &statGroup() const { return stats; }

  private:
    PooledMemoryParams p;
    Tick nextFree = 0;
    StatGroup stats;
    Counter &stReads;
    Counter &stWrites;
    Histogram &queueDelay;
};

class MemNet;

/**
 * One memory controller. Receives MemRead/MemWrite from directory
 * slices and responds after queueing + access latency.
 */
class MemCtrl
{
  public:
    MemCtrl(EventQueue &eq_, MemNet &net_, MainMemory &mem_,
            std::uint32_t id_, CoreId tile_, const MemCtrlParams &p_,
            PooledMemory *pool_ = nullptr, std::uint32_t chip_ = 0)
        : eq(eq_), net(net_), mem(mem_), id(id_), tile(tile_), p(p_),
          pool(pool_), myChip(chip_),
          stats("memctrl" + std::to_string(id_)),
          stReads(stats.counter("reads")),
          stWrites(stats.counter("writes"))
    {}

    void handle(const Message &msg);

    const StatGroup &statGroup() const { return stats; }

  private:
    /** Serve a line the far pool backs instead of local DRAM. */
    void servePooled(const Message &msg, bool is_write);
    Tick
    serviceSlot()
    {
        Tick start = eq.now();
        if (nextFree > start)
            start = nextFree;
        nextFree = start + p.serviceCycles;
        return start + p.accessLatency;
    }

    EventQueue &eq;
    MemNet &net;
    MainMemory &mem;
    std::uint32_t id;
    CoreId tile;
    MemCtrlParams p;
    PooledMemory *pool;    ///< far tier, or nullptr (single chip)
    std::uint32_t myChip;  ///< chip this controller sits on
    Tick nextFree = 0;
    StatGroup stats;
    /** Hot-path counters, resolved once at construction. */
    Counter &stReads;
    Counter &stWrites;
};

} // namespace spmcoh

#endif // SPMCOH_MEM_MAINMEMORY_HH
