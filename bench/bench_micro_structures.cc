/**
 * @file
 * google-benchmark microbenches of the protocol hardware structures
 * and simulator primitives: CAM lookups (SPMDir, filter), pseudo-LRU,
 * cache array, event queue and mesh routing.
 */

#include <benchmark/benchmark.h>

#include "coherence/Filter.hh"
#include "coherence/SpmDir.hh"
#include "mem/CacheArray.hh"
#include "noc/Mesh.hh"
#include "sim/EventQueue.hh"
#include "sim/PseudoLru.hh"
#include "sim/Rng.hh"

using namespace spmcoh;

static void
BM_EventQueueScheduleRun(benchmark::State &state)
{
    for (auto _ : state) {
        EventQueue eq;
        int sink = 0;
        for (int i = 0; i < 1000; ++i)
            eq.schedule(static_cast<Tick>(i * 7 % 97),
                        [&sink] { ++sink; });
        eq.run();
        benchmark::DoNotOptimize(sink);
    }
}
BENCHMARK(BM_EventQueueScheduleRun);

static void
BM_SpmDirLookup(benchmark::State &state)
{
    SpmDir d(32);
    for (std::uint32_t i = 0; i < 32; ++i)
        d.map(i, 0x1000 * (i + 1));
    Rng rng(1);
    for (auto _ : state) {
        auto r = d.lookup(0x1000 * (rng.below(40) + 1));
        benchmark::DoNotOptimize(r);
    }
}
BENCHMARK(BM_SpmDirLookup);

static void
BM_FilterLookup(benchmark::State &state)
{
    Filter f(48);
    for (std::uint32_t i = 0; i < 48; ++i)
        f.insert(0x2000 * (i + 1));
    Rng rng(2);
    for (auto _ : state) {
        bool r = f.lookup(0x2000 * (rng.below(64) + 1));
        benchmark::DoNotOptimize(r);
    }
}
BENCHMARK(BM_FilterLookup);

static void
BM_FilterInsertEvict(benchmark::State &state)
{
    Filter f(48);
    Addr a = 0;
    for (auto _ : state) {
        auto ev = f.insert((a += 0x1000));
        benchmark::DoNotOptimize(ev);
    }
}
BENCHMARK(BM_FilterInsertEvict);

static void
BM_PseudoLruVictim(benchmark::State &state)
{
    PseudoLru lru(static_cast<std::uint32_t>(state.range(0)));
    Rng rng(3);
    for (auto _ : state) {
        const std::uint32_t v = lru.victim();
        lru.touch(static_cast<std::uint32_t>(
            rng.below(static_cast<std::uint64_t>(state.range(0)))));
        benchmark::DoNotOptimize(v);
    }
}
BENCHMARK(BM_PseudoLruVictim)->Arg(4)->Arg(16)->Arg(48);

static void
BM_CacheArrayLookup(benchmark::State &state)
{
    CacheArray<int> arr(128, 4);
    for (Addr a = 0; a < 128 * 4; ++a)
        arr.insert(a * lineBytes, static_cast<int>(a));
    Rng rng(4);
    for (auto _ : state) {
        auto *p = arr.lookup(rng.below(1024) * lineBytes);
        benchmark::DoNotOptimize(p);
    }
}
BENCHMARK(BM_CacheArrayLookup);

static void
BM_MeshRouteLatency(benchmark::State &state)
{
    Mesh m(MeshParams{});
    Rng rng(5);
    for (auto _ : state) {
        const CoreId s = static_cast<CoreId>(rng.below(64));
        const CoreId d = static_cast<CoreId>(rng.below(64));
        benchmark::DoNotOptimize(
            m.routeLatency(s, d, dataPacketBytes));
    }
}
BENCHMARK(BM_MeshRouteLatency);

static void
BM_MeshSendContention(benchmark::State &state)
{
    for (auto _ : state) {
        EventQueue eq;
        Mesh m(MeshParams{});
        Rng rng(6);
        for (int i = 0; i < 512; ++i) {
            m.send(eq, static_cast<CoreId>(rng.below(64)),
                   static_cast<CoreId>(rng.below(64)),
                   TrafficClass::Read, dataPacketBytes, nullptr);
        }
        eq.run();
        benchmark::DoNotOptimize(m.traffic().totalPackets());
    }
}
BENCHMARK(BM_MeshSendContention);

BENCHMARK_MAIN();
