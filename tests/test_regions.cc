/**
 * @file
 * Tests for the partitioned simulation core: region-cut derivation
 * from mesh shape and phase-graph alignment candidates (including
 * the 16-region cap and chip-boundary snapping), windowed
 * EventQueue semantics, multi-queue barrier release, adaptive epoch
 * windows (widen on quiet, shrink on deferral, thread-count
 * invariant), the deadlock guard at every thread count, and the
 * headline determinism property — serial and N-sim-thread runs of
 * the same experiment export byte-identical JSON, across every
 * checked-in golden's invocation.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <sstream>
#include <string>
#include <vector>

#include "cpu/Barrier.hh"
#include "driver/Cli.hh"
#include "driver/Driver.hh"
#include "driver/ResultSink.hh"
#include "runtime/PhaseSchedule.hh"
#include "sim/EventQueue.hh"
#include "sim/Region.hh"
#include "system/RegionMap.hh"

namespace spmcoh
{
namespace
{

// ---------------------------------------------------------------
// Region-cut derivation
// ---------------------------------------------------------------

TEST(RegionMap, EvenCutsSplitRowsEvenly)
{
    // 4x2 mesh (8 tiles): two rows -> one cut at the row boundary.
    EXPECT_EQ(evenRegionCuts(4, 2, 8),
              (std::vector<std::uint32_t>{4}));
    // 8x8 mesh, target 8: every row its own region.
    const std::vector<std::uint32_t> cuts = evenRegionCuts(8, 8, 8);
    ASSERT_EQ(cuts.size(), 7u);
    for (std::size_t i = 0; i < cuts.size(); ++i)
        EXPECT_EQ(cuts[i], (i + 1) * 8);
}

TEST(RegionMap, FewerRowsThanTargetClampsToRows)
{
    // 8x2 mesh can hold at most two row-bands however many threads
    // are requested.
    EXPECT_EQ(evenRegionCuts(8, 2, 8),
              (std::vector<std::uint32_t>{8}));
}

TEST(RegionMap, SingleRowMeansNoPartitioning)
{
    EXPECT_TRUE(evenRegionCuts(8, 1, 8).empty());
    EXPECT_TRUE(evenRegionCuts(0, 4, 8).empty());
}

TEST(RegionMap, CutsAreRowAlignedAndStrictlyIncreasing)
{
    const std::vector<std::uint32_t> cuts = evenRegionCuts(32, 32, 8);
    ASSERT_EQ(cuts.size(), 7u);
    std::uint32_t prev = 0;
    for (std::uint32_t c : cuts) {
        EXPECT_EQ(c % 32, 0u);
        EXPECT_GT(c, prev);
        EXPECT_LT(c, 32u * 32u);
        prev = c;
    }
}

TEST(RegionMap, SnapsToAlignedCandidates)
{
    // 4x4 mesh, two regions: the even cut would fall at tile 8 (row
    // 2), but a phase-graph boundary at tile 4 (row 1) within reach
    // pulls the cut there only if it is closer to the ideal than any
    // other candidate. Candidate 8 is exactly the ideal, so it wins.
    EXPECT_EQ(deriveRegionCuts(4, 4, 2, {0, 8, 16}),
              (std::vector<std::uint32_t>{8}));
    // With candidates {0, 4, 16} the aligned row nearest the ideal
    // (row 2) is row 1 -> cut at 4.
    EXPECT_EQ(deriveRegionCuts(4, 4, 2, {0, 4, 16}),
              (std::vector<std::uint32_t>{4}));
    // Candidates that are not whole rows are ignored.
    EXPECT_EQ(deriveRegionCuts(4, 4, 2, {0, 6, 16}),
              (std::vector<std::uint32_t>{8}));
}

TEST(RegionMap, SixteenTargetSplitsLargeMeshEvenly)
{
    // defaultMaxRegions is 16 since the merge went sharded; a 32x32
    // mesh (the 1024-core machine) must yield 15 two-row bands.
    ASSERT_EQ(defaultMaxRegions, 16u);
    const std::vector<std::uint32_t> cuts =
        evenRegionCuts(32, 32, defaultMaxRegions);
    ASSERT_EQ(cuts.size(), 15u);
    for (std::size_t i = 0; i < cuts.size(); ++i)
        EXPECT_EQ(cuts[i], (i + 1) * 2 * 32);
}

TEST(RegionMap, SixteenTargetStillSnapsToPhaseGraph)
{
    // A lone aligned candidate at row 3 (core 96) pulls the first
    // cut off its even row-2 position; later cuts recover the even
    // spacing (strictly increasing, one row minimum per region).
    const std::vector<std::uint32_t> cuts =
        deriveRegionCuts(32, 32, 16, {96});
    ASSERT_EQ(cuts.size(), 15u);
    EXPECT_EQ(cuts[0], 96u);
    EXPECT_EQ(cuts[1], 4u * 32u);
    std::uint32_t prev = 0;
    for (std::uint32_t c : cuts) {
        EXPECT_EQ(c % 32, 0u);
        EXPECT_GT(c, prev);
        prev = c;
    }
}

TEST(RegionMap, SixteenTargetKeepsChipBoundaryCuts)
{
    // 1024 cores over 2 chips of 32x16: the chip boundary (tile 512)
    // is a mandatory cut, and each chip splits its half of the
    // 16-region budget into 8 two-row bands.
    const std::vector<std::uint32_t> cuts =
        deriveRegionCuts(32, 16, 16, {}, 2);
    ASSERT_EQ(cuts.size(), 15u);
    EXPECT_NE(std::find(cuts.begin(), cuts.end(), 512u), cuts.end());
    for (std::size_t i = 0; i < 7; ++i) {
        EXPECT_EQ(cuts[i], (i + 1) * 2 * 32);          // chip 0
        EXPECT_EQ(cuts[i + 8], 512 + (i + 1) * 2 * 32); // chip 1
    }

    // Phase-graph candidates snap chip-locally: a boundary at core
    // 608 (chip 1, local row 3) moves chip 1's first interior cut
    // without disturbing chip 0 or the mandatory 512 cut.
    const std::vector<std::uint32_t> snapped =
        deriveRegionCuts(32, 16, 16, {608}, 2);
    EXPECT_NE(std::find(snapped.begin(), snapped.end(), 512u),
              snapped.end());
    EXPECT_NE(std::find(snapped.begin(), snapped.end(), 608u),
              snapped.end());
    EXPECT_EQ(std::vector<std::uint32_t>(snapped.begin(),
                                         snapped.begin() + 7),
              std::vector<std::uint32_t>(cuts.begin(),
                                         cuts.begin() + 7));
}

TEST(RegionMap, SnappingKeepsCutsDistinct)
{
    // All aligned candidates cluster on row 1; later cuts must still
    // advance one row at a time rather than collapsing.
    const std::vector<std::uint32_t> cuts =
        deriveRegionCuts(4, 4, 4, {4});
    ASSERT_EQ(cuts.size(), 3u);
    std::uint32_t prev = 0;
    for (std::uint32_t c : cuts) {
        EXPECT_GT(c, prev);
        prev = c;
    }
}

// ---------------------------------------------------------------
// Phase-graph cut candidates
// ---------------------------------------------------------------

TEST(PhaseSchedule, RegionCutCandidatesComeFromGroupBounds)
{
    // The pipeline workload splits cores into producer/consumer
    // groups, so its schedule should advertise interior core
    // boundaries besides the trivial 0 and numCores.
    const ProgramDecl prog =
        WorkloadRegistry::global().build("pipeline", 8, 1.0, {});
    const PreparedProgram pp = prepareProgram(prog, 8, 32 * 1024);
    const std::vector<std::uint32_t> cand =
        pp.schedule.regionCutCandidates();
    ASSERT_GE(cand.size(), 2u);
    EXPECT_EQ(cand.front(), 0u);
    EXPECT_EQ(cand.back(), 8u);
    for (std::size_t i = 1; i < cand.size(); ++i)
        EXPECT_GT(cand[i], cand[i - 1]);
}

// ---------------------------------------------------------------
// Windowed event-queue execution
// ---------------------------------------------------------------

TEST(EventQueueWindow, RunUntilStopsAtHorizon)
{
    EventQueue eq;
    std::vector<int> order;
    eq.schedule(5, [&] { order.push_back(5); });
    eq.schedule(10, [&] { order.push_back(10); });
    eq.schedule(20, [&] { order.push_back(20); });

    EXPECT_EQ(eq.nextTick(), 5u);
    eq.runUntil(10);
    // Events strictly before the horizon ran; the tick-10 event is
    // next epoch's work. Time still advanced to the horizon.
    EXPECT_EQ(order, (std::vector<int>{5}));
    EXPECT_EQ(eq.now(), 10u);
    EXPECT_EQ(eq.nextTick(), 10u);

    eq.runUntil(25);
    EXPECT_EQ(order, (std::vector<int>{5, 10, 20}));
    EXPECT_EQ(eq.now(), 25u);
}

TEST(EventQueueWindow, EventsScheduledInsideWindowStillRun)
{
    EventQueue eq;
    int fired = 0;
    eq.schedule(1, [&] {
        ++fired;
        eq.scheduleIn(2, [&] { ++fired; });   // lands at 3, < 8
        eq.scheduleIn(10, [&] { ++fired; });  // lands at 11, >= 8
    });
    eq.runUntil(8);
    EXPECT_EQ(fired, 2);
    eq.runUntil(20);
    EXPECT_EQ(fired, 3);
}

// ---------------------------------------------------------------
// Multi-queue barrier release
// ---------------------------------------------------------------

TEST(BarrierRegions, ReleasesOneEventPerQueueInArrivalOrder)
{
    EventQueue qa, qb;
    // Two queues parked at different current times: each waiter's
    // release is relative to its own queue.
    qa.schedule(100, [] {});
    qb.schedule(40, [] {});
    qa.run();
    qb.run();

    Barrier bar(3, /*release_latency=*/7);
    std::vector<std::string> order;
    bar.arrive(qa, [&] { order.push_back("a0"); });
    bar.arrive(qb, [&] { order.push_back("b0"); });
    EXPECT_EQ(bar.pendingArrivals(), 2u);
    bar.arrive(qa, [&] { order.push_back("a1"); });
    EXPECT_EQ(bar.pendingArrivals(), 0u);
    EXPECT_EQ(bar.generation(), 1u);

    qa.run();
    qb.run();
    // qa's single release event runs both of its callbacks in
    // arrival order; qb's runs independently on its own queue.
    EXPECT_EQ(order,
              (std::vector<std::string>{"a0", "a1", "b0"}));
    EXPECT_EQ(qa.now(), 107u);
    EXPECT_EQ(qb.now(), 47u);
}

// ---------------------------------------------------------------
// Deadlock guard
// ---------------------------------------------------------------

TEST(DeadlockGuard, RunFailsPastMaxTicksOnEveryEngineShape)
{
    // One guard for the one-region run and the partitioned core
    // alike: run() fails once the earliest pending work lies past
    // maxTicks.
    const ExperimentSpec spec = ExperimentBuilder()
                                    .workload("pipeline")
                                    .mode(SystemMode::HybridProto)
                                    .cores(8)
                                    .spec();
    const SystemParams base = spec.resolvedParams();
    const PreparedProgram pp = prepareProgram(
        WorkloadRegistry::global().build(spec.workload, spec.cores),
        spec.cores, base.spmBytes);
    const auto run = [&](std::uint32_t threads, Tick max_ticks,
                         Tick *cycles) {
        SystemParams p = base;
        p.simThreads = threads;
        p.maxTicks = max_ticks;
        System sys(p);
        const bool done = sys.run(
            makeSources(pp, spec.cores, spec.mode, p.spmBytes));
        if (cycles)
            *cycles = sys.results().cycles;
        return done;
    };
    for (std::uint32_t threads : {0u, 1u, 4u}) {
        Tick finish = 0;
        ASSERT_TRUE(run(threads, base.maxTicks, &finish)) << threads;
        ASSERT_GT(finish, 2u) << threads;
        EXPECT_FALSE(run(threads, finish / 2, nullptr)) << threads;
    }
}

TEST(DeadlockGuard, ExperimentReportsTheTrippedGuard)
{
    for (std::uint32_t threads : {0u, 4u}) {
        try {
            ExperimentBuilder()
                .workload("pipeline")
                .mode(SystemMode::HybridProto)
                .cores(8)
                .simThreads(threads)
                .tweak([](SystemParams &p) { p.maxTicks = 100; })
                .run();
            ADD_FAILURE() << "guard did not trip at " << threads;
        } catch (const FatalError &e) {
            EXPECT_NE(std::string(e.what()).find(
                          "did not complete (deadlock guard)"),
                      std::string::npos)
                << e.what();
        }
    }
}

// ---------------------------------------------------------------
// End-to-end determinism: serial vs N sim threads
// ---------------------------------------------------------------

std::string
runToJson(const std::string &workload, std::uint32_t sim_threads,
          Tick window_max = 0)
{
    ExperimentBuilder b = ExperimentBuilder()
                              .workload(workload)
                              .mode(SystemMode::HybridProto)
                              .cores(8)
                              .simThreads(sim_threads);
    if (window_max > 0)
        b.simWindow(0, window_max);
    const ExperimentResult res = runExperiment(b.spec());
    std::ostringstream os;
    auto sink = makeResultSink(ResultFormat::Json, os,
                               /*with_stats=*/true);
    sink->begin("determinism");
    sink->add(res);
    sink->end();
    return os.str();
}

TEST(PartitionedDeterminism, ThreadCountNeverChangesResults)
{
    // The region structure is derived from the topology and phase
    // graph alone, so every sim-thread count >= 1 must export the
    // same bytes — including the full per-component stats block.
    for (const char *wl : {"pipeline", "contend", "graphwalk"}) {
        const std::string serial = runToJson(wl, 1);
        EXPECT_EQ(serial, runToJson(wl, 2)) << wl;
        EXPECT_EQ(serial, runToJson(wl, 4)) << wl;
    }
}

TEST(PartitionedDeterminism, RepeatedRunsAreStable)
{
    const std::string a = runToJson("pipeline", 2);
    const std::string b = runToJson("pipeline", 2);
    EXPECT_EQ(a, b);
}

// ---------------------------------------------------------------
// Adaptive epoch windows
// ---------------------------------------------------------------

std::uint64_t
epochCounter(const ExperimentResult &r, const std::string &key)
{
    const auto g = r.stats.find("epochs");
    if (g == r.stats.end())
        return 0;
    const auto c = g->second.counters.find(key);
    return c == g->second.counters.end() ? 0 : c->second;
}

TEST(AdaptiveWindow, HorizonSequenceIdenticalAcrossThreadCounts)
{
    // The adaptive window doubles only off merge-visible state
    // (entries merged, cross heap, inboxes), never off thread
    // timing, so the horizon sequence — observable through the
    // exported epochs counters, which the JSON includes — must be
    // byte-identical at 1, 2, 4 and 8 sim threads.
    const std::string serial = runToJson("CG", 1, /*window_max=*/128);
    EXPECT_EQ(serial, runToJson("CG", 2, 128));
    EXPECT_EQ(serial, runToJson("CG", 4, 128));
    EXPECT_EQ(serial, runToJson("CG", 8, 128));
}

TEST(AdaptiveWindow, WidensWhenQuietAndShrinksOnDeferral)
{
    const auto run = [](Tick window_max) {
        ExperimentBuilder b = ExperimentBuilder()
                                  .workload("CG")
                                  .mode(SystemMode::HybridProto)
                                  .cores(8)
                                  .simThreads(1);
        if (window_max > 0)
            b.simWindow(0, window_max);
        return runExperiment(b.spec());
    };

    const ExperimentResult fixed = run(0);
    const ExperimentResult adaptive = run(128);

    // Fixed window: width pinned at the 8-tick default, never moves.
    EXPECT_EQ(epochCounter(fixed, "windowMax"), 8u);
    EXPECT_EQ(epochCounter(fixed, "widenings"), 0u);
    EXPECT_EQ(epochCounter(fixed, "shrinks"), 0u);

    // Adaptive: quiet stretches double the width up to the ceiling,
    // the first cross-region deferral snaps it back, and the wider
    // windows cover the run in fewer epochs.
    EXPECT_EQ(epochCounter(adaptive, "windowMax"), 128u);
    EXPECT_GT(epochCounter(adaptive, "widenings"), 0u);
    EXPECT_GT(epochCounter(adaptive, "shrinks"), 0u);
    EXPECT_LT(epochCounter(adaptive, "windows"),
              epochCounter(fixed, "windows"));
    // Drained regions sit out their windows in both modes.
    EXPECT_GT(epochCounter(adaptive, "skippedRegions"), 0u);
}

// ---------------------------------------------------------------
// Golden-invocation replay across sim-thread counts
// ---------------------------------------------------------------

/**
 * Replay every checked-in golden's CLI invocation through the
 * partitioned core: --sim-threads=8 must reproduce --sim-threads=1
 * byte for byte, fixed and adaptive windows alike. (The goldens
 * themselves capture the monolithic timing model; st=0 byte-identity
 * against the files is MultiChipGoldens.SingleChipIsByteIdentical.)
 */
TEST(GoldenReplay, SimThreadCountsAgreeOnEveryGolden)
{
    const std::vector<std::vector<std::string>> invocations = {
        {"--workload=CG", "--cores=8"},
        {"--workload=pipeline", "--cores=8"},
        {"--workload=stencil", "--cores=8", "--wparam=grids=7"},
        {"--workload=gather", "--cores=8"},
        {"--workload=contend", "--cores=8"},
        {"--workload=CG", "--cores=8", "--protocol=mesi"},
    };
    const auto replay = [](std::vector<std::string> args,
                           const std::string &threads,
                           bool adaptive) {
        args.push_back("--sim-threads=" + threads);
        if (adaptive)
            args.push_back("--sim-window=auto");
        args.push_back("--format=json");
        args.push_back("--no-stats");
        const CliOptions opt = parseCli(args);
        std::ostringstream os;
        SweepRunner runner(WorkloadRegistry::global());
        const auto sink = makeResultSink(opt.format, os,
                                         opt.withStats);
        runner.run(opt.sweep, sink.get(), "golden-replay");
        return os.str();
    };
    for (const auto &inv : invocations) {
        const std::string fixed1 = replay(inv, "1", false);
        EXPECT_EQ(fixed1, replay(inv, "8", false)) << inv[0];
        const std::string auto1 = replay(inv, "1", true);
        EXPECT_EQ(auto1, replay(inv, "8", true)) << inv[0];
    }
}

} // namespace
} // namespace spmcoh
