/**
 * @file
 * Tests for runJobs, the sweep's batch execution: its contract
 * (completion, per-slot writes, exception propagation) on synthetic
 * jobs, and end-to-end determinism of concurrent sweeps — results
 * and serialized JSON byte-identical to one worker across worker
 * counts and repeated runs.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <mutex>
#include <set>
#include <sstream>
#include <thread>

#include "driver/Driver.hh"

namespace spmcoh
{
namespace
{

// ------------------------------------------------ synthetic jobs

TEST(RunJobs, RunsEveryJobExactlyOnce)
{
    for (std::uint32_t workers : {1u, 2u, 7u, 32u}) {
        constexpr std::size_t n = 64;
        std::vector<std::atomic<int>> hits(n);
        std::vector<std::function<void()>> jobs;
        for (std::size_t i = 0; i < n; ++i)
            jobs.push_back([&hits, i] { ++hits[i]; });
        runJobs(workers, std::move(jobs));
        for (std::size_t i = 0; i < n; ++i)
            EXPECT_EQ(hits[i].load(), 1) << "job " << i;
    }
}

TEST(RunJobs, ZeroWorkersMeansHardwareParallelism)
{
    EXPECT_GE(hardwareParallelism(), 1u);
    std::mutex m;
    std::set<std::thread::id> threads;
    std::atomic<int> ran{0};
    std::vector<std::function<void()>> jobs;
    for (int i = 0; i < 64; ++i)
        jobs.push_back([&] {
            ++ran;
            std::lock_guard<std::mutex> lock(m);
            threads.insert(std::this_thread::get_id());
        });
    runJobs(0, std::move(jobs));
    EXPECT_EQ(ran.load(), 64);
    EXPECT_LE(threads.size(), hardwareParallelism());
}

TEST(RunJobs, EmptyBatchIsANoOp)
{
    runJobs(4, {});
}

TEST(RunJobs, PropagatesLowestIndexedFailure)
{
    // Jobs 3 and 9 fail; every worker count must surface job 3's
    // exception, exactly as the in-order run does.
    for (std::uint32_t workers : {1u, 4u}) {
        std::vector<std::function<void()>> jobs;
        for (std::size_t i = 0; i < 12; ++i)
            jobs.push_back([i] {
                if (i == 3 || i == 9)
                    fatal("job " + std::to_string(i) + " failed");
            });
        try {
            runJobs(workers, std::move(jobs));
            FAIL() << "expected FatalError";
        } catch (const FatalError &e) {
            EXPECT_NE(std::string(e.what()).find("job 3 failed"),
                      std::string::npos)
                << "workers=" << workers << ": " << e.what();
        }
    }
}

TEST(RunJobs, PropagatesPanicToo)
{
    std::vector<std::function<void()>> jobs;
    jobs.push_back([] { panic("invariant broke"); });
    jobs.push_back([] {});
    EXPECT_THROW(runJobs(4, std::move(jobs)), PanicError);
}

TEST(RunJobs, StopsDispatchingAfterAFailure)
{
    // With one worker the queue drains in order, so nothing past
    // the failing job may run.
    std::atomic<int> ran{0};
    std::vector<std::function<void()>> jobs;
    jobs.push_back([&ran] { ++ran; });
    jobs.push_back([] { fatal("boom"); });
    jobs.push_back([&ran] { ++ran; });
    EXPECT_THROW(runJobs(1, std::move(jobs)), FatalError);
    EXPECT_EQ(ran.load(), 1);
}

// --------------------------------------------- end-to-end sweeps

SweepSpec
smallSweep()
{
    SweepSpec sweep;
    sweep.workloads = {"CG", "EP", "IS"};
    sweep.modes = {SystemMode::CacheOnly, SystemMode::HybridProto};
    sweep.coreCounts = {4};
    sweep.scales = {0.25};
    return sweep;
}

/** Fields that must match bit-for-bit across worker counts. */
void
expectSameResults(const std::vector<ExperimentResult> &a,
                  const std::vector<ExperimentResult> &b)
{
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t i = 0; i < a.size(); ++i) {
        EXPECT_EQ(a[i].spec.label(), b[i].spec.label());
        EXPECT_EQ(a[i].results.cycles, b[i].results.cycles);
        EXPECT_EQ(a[i].results.traffic.totalPackets(),
                  b[i].results.traffic.totalPackets());
        EXPECT_EQ(a[i].results.counters.instructions,
                  b[i].results.counters.instructions);
        EXPECT_EQ(a[i].results.filterHits, b[i].results.filterHits);
    }
}

TEST(RunJobs, SweepMatchesOneWorker)
{
    SweepRunner serial;
    const auto expect = serial.run(smallSweep());

    SweepRunner concurrent(WorkloadRegistry::global(), 4);
    const auto got = concurrent.run(smallSweep());
    expectSameResults(expect, got);

    // Repeated concurrent runs are deterministic too.
    const auto again = concurrent.run(smallSweep());
    expectSameResults(expect, again);
}

TEST(RunJobs, AutoWorkersMatchOneWorker)
{
    SweepRunner serial;
    const auto expect = serial.run(smallSweep());

    SweepRunner hw(WorkloadRegistry::global(), 0);
    expectSameResults(expect, hw.run(smallSweep()));
}

TEST(RunJobs, JsonExportByteIdenticalAcrossWorkerCounts)
{
    auto render = [](std::uint32_t workers) {
        SweepRunner runner(WorkloadRegistry::global(), workers);
        std::ostringstream os;
        const auto sink = makeResultSink(ResultFormat::Json, os);
        runner.run(smallSweep(), sink.get(), "determinism");
        return os.str();
    };
    const std::string serial = render(1);
    EXPECT_EQ(serial, render(4));
    EXPECT_EQ(serial, render(2));
    EXPECT_FALSE(serial.empty());
}

} // namespace
} // namespace spmcoh
