/**
 * @file
 * Tests of the benchmark itself, at 8 cores: the step-by-step path
 * reproduces runExperiment byte for byte, every metric is reported
 * with its unit, and an injected mismatch trips the correctness check.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <sstream>

#include "Bench.hh"

using namespace perfbench;

namespace
{

/** CG, pipeline and contend at 8 cores, each on both engines. */
std::vector<BenchSpec>
smallSpecs()
{
    std::vector<BenchSpec> out;
    for (const char *w : {"CG", "pipeline", "contend"})
        for (std::uint32_t st : {0u, 4u}) {
            BenchSpec b{w, {}, 8};
            b.simThreads = st;
            out.push_back(b);
        }
    return out;
}

RunOptions
quick(bool trace)
{
    RunOptions o;
    o.seconds = 0;   // the minimum: three repetitions (of each kind)
    o.trace = trace;
    return o;
}

const Metric *
find(const std::vector<Metric> &ms, const std::string &name)
{
    const auto it = std::find_if(ms.begin(), ms.end(),
                                 [&](const Metric &m) {
                                     return m.name == name;
                                 });
    return it == ms.end() ? nullptr : &*it;
}

bool
anyWithPrefix(const std::vector<Metric> &ms, const std::string &prefix)
{
    return std::any_of(ms.begin(), ms.end(), [&](const Metric &m) {
        return m.name.rfind(prefix, 0) == 0;
    });
}

} // namespace

TEST(PerfBench, StepPathMatchesRunExperiment)
{
    for (const BenchSpec &b : smallSpecs()) {
        SCOPED_TRACE(b.label());
        Tracer off(false);
        const StepOutcome steps = runSteps(b, std::nullopt, off, 0);
        const spmcoh::ExperimentResult ref =
            spmcoh::runExperiment(b.spec());
        EXPECT_EQ(steps.json, serialize(ref));
        EXPECT_EQ(steps.regions > 0, b.simThreads > 0);
    }
}

TEST(PerfBench, SeedReachesTheProgram)
{
    BenchSpec b{"contend", {}, 8};
    Tracer off(false);
    const StepOutcome a = runSteps(b, std::nullopt, off, 0);
    const StepOutcome same = runSteps(b, 0x77, off, 1);
    const StepOutcome other = runSteps(b, 5, off, 2);
    EXPECT_EQ(a.json, same.json);   // 0x77 is contend's registry seed
    EXPECT_NE(a.json, other.json);
}

TEST(PerfBench, EveryMetricIsReportedWithItsUnit)
{
    const WorkloadDef w{"small8", "test set", smallSpecs()};
    for (bool trace : {false, true}) {
        SCOPED_TRACE(trace ? "traced" : "untraced");
        const WorkloadReport r = runWorkload(w, quick(trace));
        EXPECT_EQ(r.failed, 0u);

        std::vector<std::string> names;
        for (const Metric &m : r.endToEnd)
            names.push_back(m.name);
        EXPECT_EQ(names,
                  (std::vector<std::string>{"wall_s", "setup_s",
                                            "sim_mips", "peak_rss_mb",
                                            "cycle_err_pct",
                                            "fail_frac"}));
        EXPECT_GT(find(r.endToEnd, "wall_s")->value, 0);
        EXPECT_GT(find(r.endToEnd, "cycle_err_pct")->value, 0);

        std::ostringstream report, line;
        printReport(report, r);
        printResultLine(line, r);
        for (const auto *ms : {&r.endToEnd, &r.perLayer})
            for (const Metric &m : *ms) {
                SCOPED_TRACE(m.name);
                EXPECT_FALSE(m.unit.empty());
                EXPECT_NE(report.str().find(m.name), std::string::npos);
            }
        for (const Metric &m : trace ? r.perLayer : r.endToEnd)
            EXPECT_NE(line.str().find("\"" + m.name +
                                      "\":{\"value\":"),
                      std::string::npos)
                << m.name;

        EXPECT_TRUE(anyWithPrefix(r.perLayer, "epochs."));
        EXPECT_TRUE(anyWithPrefix(r.perLayer, "fidelity."));
        if (trace) {
            for (const char *n :
                 {"workloads.build_ms", "runtime.prepare_ms",
                  "runtime.sources_ms", "system.region_cuts_ms",
                  "system.ctor_ms", "system.run_s", "system.dtor_ms",
                  "driver.spec_ms", "driver.snapshot_ms",
                  "driver.sink_ms", "driver.experiment_ms",
                  "sim.ns_per_event"})
                EXPECT_NE(find(r.perLayer, n), nullptr) << n;
            ASSERT_TRUE(r.traceOverheadPct.has_value());
            EXPECT_NE(report.str().find("tracing overhead"),
                      std::string::npos);
            EXPECT_GT(find(r.perLayer, "system.run_s")->value, 0);
            EXPECT_FALSE(r.spans.empty());
        }
    }
}

TEST(PerfBench, EngineSpecificLayersAppearOnlyWhereTheyRun)
{
    std::vector<BenchSpec> mono, par;
    for (const BenchSpec &b : smallSpecs())
        (b.simThreads ? par : mono).push_back(b);
    const WorkloadReport m =
        runWorkload({"mono8", "", mono}, quick(true));
    const WorkloadReport p = runWorkload({"par8", "", par}, quick(true));
    EXPECT_FALSE(anyWithPrefix(m.perLayer, "epochs."));
    EXPECT_FALSE(anyWithPrefix(m.perLayer, "fidelity."));
    EXPECT_TRUE(anyWithPrefix(m.perLayer, "sim."));
    EXPECT_TRUE(anyWithPrefix(p.perLayer, "epochs."));
    EXPECT_TRUE(anyWithPrefix(p.perLayer, "fidelity."));
    EXPECT_FALSE(anyWithPrefix(p.perLayer, "sim."));
    EXPECT_EQ(find(m.endToEnd, "cycle_err_pct")->value, 0);
    // The partitioned set ran its monolithic references untimed
    // once, then three untraced and three traced repetitions.
    EXPECT_EQ(p.attempted, par.size() * 7);
}

TEST(PerfBench, InjectedMismatchTripsTheCheck)
{
    const WorkloadDef w{"small8", "test set", smallSpecs()};
    RunOptions o = quick(false);
    o.perturb = [](std::uint32_t rep, const BenchSpec &b,
                   spmcoh::ExperimentResult &r) {
        if (rep == 1 && b.workload == "pipeline" && b.simThreads == 0)
            r.results.cycles += 1;
    };
    const WorkloadReport r = runWorkload(w, o);
    EXPECT_EQ(r.failed, 1u);
    EXPECT_EQ(r.attempted, 18u);
    EXPECT_GT(find(r.endToEnd, "fail_frac")->value, 0);
    std::ostringstream line;
    printResultLine(line, r);
    EXPECT_EQ(line.str().rfind("{\"correct\":false,", 0), 0u);
}

TEST(PerfBench, InstructionMismatchBetweenEnginesTripsTheCheck)
{
    const WorkloadDef w{"small8", "test set", smallSpecs()};
    RunOptions o = quick(false);
    o.perturb = [](std::uint32_t, const BenchSpec &b,
                   spmcoh::ExperimentResult &r) {
        if (b.workload == "contend" && b.simThreads > 0)
            r.results.counters.instructions += 1;
    };
    const WorkloadReport r = runWorkload(w, o);
    EXPECT_EQ(r.failed, 3u);   // every repetition of contend/st4
    EXPECT_EQ(r.reps, 0u);
}

TEST(PerfBench, SelfTimeSubtractsChildren)
{
    std::vector<Span> s(3);
    s[0] = {"driver.experiment", 0, 100, -1, 0};
    s[1] = {"system.ctor", 10, 30, 0, 0};
    s[2] = {"system.run", 30, 90, 0, 0};
    EXPECT_EQ(selfTimesNs(s), (std::vector<std::int64_t>{20, 20, 60}));
}
