/**
 * @file
 * Unit tests for the memory substrate: cache array, MSHRs, stride
 * prefetcher, TLB, main memory, and directed L1/directory MOESI
 * transactions on a small fabric.
 */

#include <gtest/gtest.h>

#include <memory>

#include "mem/CacheArray.hh"
#include "mem/DirectorySlice.hh"
#include "mem/L1Cache.hh"
#include "mem/MainMemory.hh"
#include "mem/MemNet.hh"
#include "mem/Mshr.hh"
#include "mem/StridePrefetcher.hh"
#include "mem/Tlb.hh"
#include "sim/Rng.hh"

namespace spmcoh
{
namespace
{

TEST(CacheArray, InsertLookupInvalidate)
{
    CacheArray<int> a(16, 4);
    EXPECT_EQ(a.lookup(0x1000), nullptr);
    EXPECT_FALSE(a.insert(0x1000, 7).has_value());
    ASSERT_NE(a.lookup(0x1000), nullptr);
    EXPECT_EQ(*a.lookup(0x1000), 7);
    // Same line, any offset.
    EXPECT_NE(a.lookup(0x103f), nullptr);
    auto v = a.invalidate(0x1000);
    ASSERT_TRUE(v.has_value());
    EXPECT_EQ(*v, 7);
    EXPECT_EQ(a.lookup(0x1000), nullptr);
}

TEST(CacheArray, EvictsWithinSet)
{
    CacheArray<int> a(1, 2);  // fully associative, 2 ways
    a.insert(0x0, 0);
    a.insert(0x40, 1);
    auto ev = a.insert(0x80, 2);
    ASSERT_TRUE(ev.has_value());
    EXPECT_TRUE(ev->first == 0x0 || ev->first == 0x40);
    EXPECT_EQ(a.validLines(), 2u);
}

TEST(CacheArray, PseudoLruPrefersColdWay)
{
    CacheArray<int> a(1, 4);
    a.insert(0x00, 0);
    a.insert(0x40, 1);
    a.insert(0x80, 2);
    a.insert(0xc0, 3);
    // Touch all but 0x40.
    a.lookup(0x00);
    a.lookup(0x80);
    a.lookup(0xc0);
    auto ev = a.insert(0x100, 4);
    ASSERT_TRUE(ev.has_value());
    EXPECT_EQ(ev->first, 0x40u);
}

TEST(CacheArray, AllocWayRespectsPins)
{
    CacheArray<int> a(1, 2);
    a.insert(0x00, 0);
    a.insert(0x40, 1);
    auto w = a.allocWay(0x80, [](Addr t) { return t != 0x00; });
    ASSERT_TRUE(w.has_value());
    EXPECT_EQ(a.occupant(0x80, *w), 0x40u);
    auto none = a.allocWay(0x80, [](Addr) { return false; });
    EXPECT_FALSE(none.has_value());
}

TEST(Mshr, MergeAndRelease)
{
    MshrFile f(2);
    EXPECT_FALSE(f.full());
    MshrEntry &e = f.alloc(0x1000);
    e.targets.push_back(MshrTarget{});
    EXPECT_NE(f.find(0x1010), nullptr);  // same line
    f.alloc(0x2000);
    EXPECT_TRUE(f.full());
    MshrEntry out = f.release(0x1000);
    EXPECT_EQ(out.targets.size(), 1u);
    EXPECT_FALSE(f.full());
    EXPECT_EQ(f.find(0x1000), nullptr);
}

TEST(StridePrefetcher, LearnsForwardStride)
{
    StridePrefetcher pf(PrefetcherParams{});
    std::vector<Addr> out;
    for (Addr a = 0x1000; a < 0x1200; a += 8)
        pf.observe(1, a, out);
    EXPECT_FALSE(out.empty());
    // Candidates are ahead of the stream and line aligned.
    for (Addr c : out) {
        EXPECT_EQ(lineOffset(c), 0u);
        EXPECT_GT(c, 0x1000u);
    }
}

TEST(StridePrefetcher, IgnoresReplays)
{
    StridePrefetcher pf(PrefetcherParams{});
    std::vector<Addr> out;
    pf.observe(1, 0x1000, out);
    pf.observe(1, 0x1008, out);
    pf.observe(1, 0x1008, out);  // replay must not reset the stride
    pf.observe(1, 0x1010, out);
    pf.observe(1, 0x1018, out);
    EXPECT_FALSE(out.empty());
}

TEST(StridePrefetcher, NoCandidatesForRandom)
{
    StridePrefetcher pf(PrefetcherParams{});
    std::vector<Addr> out;
    Rng r(3);
    for (int i = 0; i < 100; ++i)
        pf.observe(1, 0x1000 + r.below(1 << 20), out);
    // Random streams may rarely repeat a delta; candidates must be
    // (close to) none.
    EXPECT_LT(out.size(), 8u);
}

TEST(Tlb, HitAfterMiss)
{
    Tlb t(TlbParams{});
    EXPECT_GT(t.access(0x10000), 0u);   // cold miss
    EXPECT_EQ(t.access(0x10008), 0u);   // same page
    EXPECT_EQ(t.statGroup().value("misses"), 1u);
    EXPECT_EQ(t.statGroup().value("accesses"), 2u);
}

TEST(Tlb, CapacityEviction)
{
    TlbParams p;
    p.entries = 4;
    Tlb t(p);
    for (Addr pg = 0; pg < 5; ++pg)
        t.access(pg * 4096);
    // First page was evicted by the fifth.
    EXPECT_GT(t.access(0), 0u);
}

TEST(MainMemory, DataRoundTrip)
{
    MainMemory m;
    m.write64(0x1000, 0xdeadbeefULL);
    EXPECT_EQ(m.read64(0x1000), 0xdeadbeefULL);
    EXPECT_EQ(m.read64(0x2000), 0u);  // untouched reads as zero
    LineData d = m.readLine(0x1000);
    EXPECT_EQ(d.read64(0), 0xdeadbeefULL);
}

TEST(LineData, SubWordAccess)
{
    LineData d;
    d.writeN(3, 2, 0xabcd);
    EXPECT_EQ(d.readN(3, 2), 0xabcdu);
    EXPECT_EQ(d.readN(3, 1), 0xcdu);
    d.write64(8, 0x1122334455667788ULL);
    EXPECT_EQ(d.readN(8, 4), 0x55667788u);
}

/**
 * Small two-core fabric for directed MOESI tests: 2 L1s, 2 directory
 * slices, one memory controller.
 */
struct MiniFabric
{
    Region region;
    EventQueue &eq = region.eq;
    Mesh mesh;
    MainMemory mem;
    std::unique_ptr<MemNet> net;
    std::vector<std::unique_ptr<MemCtrl>> mcs;
    std::vector<std::unique_ptr<DirectorySlice>> dirs;
    std::vector<std::unique_ptr<L1Cache>> l1s;

    explicit MiniFabric(std::uint32_t cores = 2)
        : region(0, 0, cores),
          mesh(MeshParams{.width = cores, .height = 1})
    {
        net = std::make_unique<MemNet>(mesh, cores,
                                       std::vector<CoreId>{0});
        net->bindRegions({&region});
        mcs.push_back(std::make_unique<MemCtrl>(
            eq, *net, mem, 0, 0, MemCtrlParams{}));
        MemCtrl *mc = mcs.back().get();
        net->setHandler(Endpoint::MemCtrl, 0,
                        [mc](const Message &m) { mc->handle(m); });
        for (CoreId i = 0; i < cores; ++i) {
            dirs.push_back(std::make_unique<DirectorySlice>(
                *net, i, DirSliceParams{},
                "dir" + std::to_string(i)));
            DirectorySlice *d = dirs.back().get();
            net->setHandler(Endpoint::Dir, i,
                            [d](const Message &m) { d->handle(m); });
            l1s.push_back(std::make_unique<L1Cache>(
                *net, i, false, L1Params{},
                "l1d" + std::to_string(i)));
            L1Cache *l1 = l1s.back().get();
            net->setHandler(Endpoint::L1D, i,
                            [l1](const Message &m) { l1->handle(m); });
        }
    }

    std::uint64_t
    load(CoreId c, Addr a)
    {
        std::uint64_t out = 0;
        bool done = false;
        Tick lat = 0;
        if (auto v = l1s[c]->tryLoad(a, 8, eq.now(), 1, lat))
            return *v;
        EXPECT_TRUE(l1s[c]->startLoad(a, 8, 1,
                                      [&](std::uint64_t v) {
            out = v;
            done = true;
        }));
        eq.run();
        EXPECT_TRUE(done);
        return out;
    }

    void
    store(CoreId c, Addr a, std::uint64_t v)
    {
        Tick lat = 0;
        if (l1s[c]->tryStore(a, 8, v, eq.now(), 1, lat))
            return;
        bool done = false;
        EXPECT_TRUE(l1s[c]->startStore(a, 8, v, 1,
                                       [&](std::uint64_t) {
            done = true;
        }));
        eq.run();
        EXPECT_TRUE(done);
    }
};

TEST(Moesi, ColdLoadReturnsMemoryValue)
{
    MiniFabric f;
    f.mem.write64(0x10000, 1234);
    EXPECT_EQ(f.load(0, 0x10000), 1234u);
    // Second load hits.
    Tick lat = 0;
    auto v = f.l1s[0]->tryLoad(0x10000, 8, f.eq.now(), 1, lat);
    ASSERT_TRUE(v.has_value());
    EXPECT_EQ(*v, 1234u);
}

TEST(Moesi, ColdLoadGetsExclusive)
{
    MiniFabric f;
    f.load(0, 0x10000);
    auto st = f.l1s[0]->peekState(0x10000);
    ASSERT_TRUE(st.has_value());
    EXPECT_EQ(*st, L1State::E);
}

TEST(Moesi, SecondReaderSharesAndDowngradesOwner)
{
    MiniFabric f;
    f.mem.write64(0x10000, 7);
    f.load(0, 0x10000);
    EXPECT_EQ(f.load(1, 0x10000), 7u);
    EXPECT_EQ(*f.l1s[0]->peekState(0x10000), L1State::S);
    EXPECT_EQ(*f.l1s[1]->peekState(0x10000), L1State::S);
}

TEST(Moesi, DirtyForwardOnRead)
{
    MiniFabric f;
    f.store(0, 0x10000, 99);
    EXPECT_EQ(*f.l1s[0]->peekState(0x10000), L1State::M);
    EXPECT_EQ(f.load(1, 0x10000), 99u);
    // Dirty owner downgrades to Owned (MOESI), not S.
    EXPECT_EQ(*f.l1s[0]->peekState(0x10000), L1State::O);
    EXPECT_EQ(*f.l1s[1]->peekState(0x10000), L1State::S);
}

TEST(Moesi, WriteInvalidatesSharers)
{
    MiniFabric f;
    f.load(0, 0x10000);
    f.load(1, 0x10000);
    f.store(0, 0x10000, 5);
    EXPECT_EQ(*f.l1s[0]->peekState(0x10000), L1State::M);
    EXPECT_FALSE(f.l1s[1]->peekState(0x10000).has_value());
    EXPECT_EQ(f.load(1, 0x10000), 5u);
}

TEST(Moesi, StoreToOwnedUpgradesAndInvalidates)
{
    MiniFabric f;
    f.store(0, 0x10000, 1);  // M at core 0
    f.load(1, 0x10000);      // O at 0, S at 1
    f.store(0, 0x10000, 2);  // upgrade from O
    EXPECT_EQ(*f.l1s[0]->peekState(0x10000), L1State::M);
    EXPECT_FALSE(f.l1s[1]->peekState(0x10000).has_value());
    EXPECT_EQ(f.load(1, 0x10000), 2u);
}

TEST(Moesi, WritebackReachesL2ThenMemoryPath)
{
    MiniFabric f;
    // Fill one L1 set (4 ways) plus one more mapping to the same set
    // to force a dirty eviction.
    const Addr base = 0x100000;
    const Addr set_stride = (32 * 1024) / 4;  // same set, next tag
    for (int i = 0; i < 5; ++i)
        f.store(0, base + static_cast<Addr>(i) * set_stride,
                static_cast<std::uint64_t>(i));
    f.eq.run();
    // The first line must have been written back; a fresh load (via
    // L2) must see the stored value.
    EXPECT_EQ(f.load(1, base), 0u);
    EXPECT_GT(f.l1s[0]->statGroup().value("dirtyWritebacks"), 0u);
}

} // namespace
} // namespace spmcoh
