/**
 * @file
 * Tests for the spmcoh_run command-line layer: axis parsing into a
 * SweepSpec, defaults, variant axes, error accumulation, and the
 * parsed sweep actually running through the driver.
 */

#include <gtest/gtest.h>

#include "driver/Cli.hh"
#include "driver/Driver.hh"

namespace spmcoh
{
namespace
{

TEST(Cli, SplitList)
{
    EXPECT_EQ(splitList("a,b,c"),
              (std::vector<std::string>{"a", "b", "c"}));
    EXPECT_EQ(splitList("one"), (std::vector<std::string>{"one"}));
    EXPECT_TRUE(splitList("").empty());
    // Empty items are preserved so the parser can reject them.
    EXPECT_EQ(splitList("a,,b"),
              (std::vector<std::string>{"a", "", "b"}));
}

TEST(Cli, DefaultsMirrorTheEvaluationSetup)
{
    const CliOptions opt = parseCli({"--workload=CG"});
    EXPECT_EQ(opt.sweep.workloads,
              (std::vector<std::string>{"CG"}));
    ASSERT_EQ(opt.sweep.modes.size(), 1u);
    EXPECT_EQ(opt.sweep.modes[0], SystemMode::HybridProto);
    EXPECT_EQ(opt.sweep.coreCounts, (std::vector<std::uint32_t>{64}));
    EXPECT_EQ(opt.sweep.scales, (std::vector<double>{1.0}));
    EXPECT_TRUE(opt.sweep.variants.empty());
    EXPECT_EQ(opt.format, ResultFormat::Table);
    EXPECT_EQ(opt.jobs, 1u);
    EXPECT_TRUE(opt.outFile.empty());
    EXPECT_TRUE(opt.withStats);
    EXPECT_FALSE(opt.help);
}

TEST(Cli, ParsesEveryAxisAndOption)
{
    const CliOptions opt = parseCli({
        "--workload=CG,IS",
        "--mode=cache,hybrid-proto",
        "--cores=8,64",
        "--scale=0.25,1.0",
        "--jobs=8",
        "--format=json",
        "--out=results.json",
        "--title=my sweep",
        "--no-stats",
    });
    EXPECT_EQ(opt.sweep.workloads,
              (std::vector<std::string>{"CG", "IS"}));
    ASSERT_EQ(opt.sweep.modes.size(), 2u);
    EXPECT_EQ(opt.sweep.modes[0], SystemMode::CacheOnly);
    EXPECT_EQ(opt.sweep.modes[1], SystemMode::HybridProto);
    EXPECT_EQ(opt.sweep.coreCounts,
              (std::vector<std::uint32_t>{8, 64}));
    EXPECT_EQ(opt.sweep.scales, (std::vector<double>{0.25, 1.0}));
    EXPECT_EQ(opt.jobs, 8u);
    EXPECT_EQ(opt.format, ResultFormat::Json);
    EXPECT_EQ(opt.outFile, "results.json");
    EXPECT_EQ(opt.title, "my sweep");
    EXPECT_EQ(opt.effectiveTitle(), "my sweep");
    EXPECT_FALSE(opt.withStats);
}

TEST(Cli, WorkloadAllExpandsToTheRegistry)
{
    const CliOptions opt = parseCli({"--workload=all"});
    EXPECT_EQ(opt.sweep.workloads,
              WorkloadRegistry::global().names());
}

TEST(Cli, JobsAutoMeansHardwareParallelism)
{
    const CliOptions opt = parseCli({"--workload=CG", "--jobs=auto"});
    EXPECT_EQ(opt.jobs, 0u);  // 0 = let the pool pick
}

TEST(Cli, FilterEntriesBecomeNamedVariants)
{
    const CliOptions opt =
        parseCli({"--workload=CG", "--filter-entries=4,48"});
    ASSERT_EQ(opt.sweep.variants.size(), 2u);
    EXPECT_EQ(opt.sweep.variants[0].name, "filter4");
    EXPECT_EQ(opt.sweep.variants[1].name, "filter48");
    SystemParams p;
    opt.sweep.variants[1].tweak(p);
    EXPECT_EQ(p.coh.filterEntries, 48u);
}

TEST(Cli, PrefetcherVariantsCombineWithFilterEntries)
{
    const CliOptions opt = parseCli({
        "--workload=CG", "--filter-entries=4,16",
        "--prefetcher=on,off"});
    ASSERT_EQ(opt.sweep.variants.size(), 4u);
    EXPECT_EQ(opt.sweep.variants[0].name, "filter4+pf-on");
    EXPECT_EQ(opt.sweep.variants[3].name, "filter16+pf-off");
    SystemParams p;
    opt.sweep.variants[3].tweak(p);
    EXPECT_EQ(p.coh.filterEntries, 16u);
    EXPECT_FALSE(p.l1d.prefetcher.enabled);
}

TEST(Cli, HelpAndListWorkloadsSkipValidation)
{
    EXPECT_TRUE(parseCli({"--help"}).help);
    EXPECT_TRUE(parseCli({"-h"}).help);
    EXPECT_TRUE(parseCli({"--list-workloads"}).listWorkloads);
    EXPECT_NE(cliUsage("spmcoh_run").find("--workload"),
              std::string::npos);
}

TEST(Cli, AccumulatesEveryError)
{
    try {
        parseCli({"--workload=CG,bogus", "--mode=nope",
                  "--cores=0", "--scale=fast", "--jobs=-2",
                  "--format=xml", "--wat"});
        FAIL() << "expected FatalError";
    } catch (const FatalError &e) {
        const std::string msg = e.what();
        EXPECT_NE(msg.find("unknown workload 'bogus'"),
                  std::string::npos);
        EXPECT_NE(msg.find("unknown mode 'nope'"),
                  std::string::npos);
        EXPECT_NE(msg.find("bad core count '0'"),
                  std::string::npos);
        EXPECT_NE(msg.find("bad scale 'fast'"), std::string::npos);
        EXPECT_NE(msg.find("bad job count '-2'"),
                  std::string::npos);
        EXPECT_NE(msg.find("unknown format 'xml'"),
                  std::string::npos);
        EXPECT_NE(msg.find("unknown argument '--wat'"),
                  std::string::npos);
    }
}

TEST(Cli, RequiresAWorkload)
{
    try {
        parseCli({"--cores=8"});
        FAIL() << "expected FatalError";
    } catch (const FatalError &e) {
        EXPECT_NE(std::string(e.what()).find("no workload set"),
                  std::string::npos);
    }
}

/** The FatalError message parseCli throws for @p args. */
std::string
cliError(const std::vector<std::string> &args)
{
    try {
        parseCli(args);
    } catch (const FatalError &e) {
        return e.what();
    }
    ADD_FAILURE() << "expected FatalError";
    return "";
}

TEST(Cli, RejectsCountsPast32Bits)
{
    // Each value wrapped to 0 (or a small count) when narrowed to
    // 32 bits; 0 filter entries crashed, 0 sim threads silently ran
    // one region, 0 jobs silently meant 'auto'.
    EXPECT_NE(cliError({"--workload=CG", "--cores=8",
                        "--filter-entries=4294967296"})
                  .find("bad filter entry count '4294967296'"),
              std::string::npos);
    EXPECT_NE(cliError({"--workload=CG", "--sim-threads=4294967296"})
                  .find("bad sim-thread count '4294967296'"),
              std::string::npos);
    EXPECT_NE(cliError({"--workload=CG", "--jobs=4294967296"})
                  .find("bad job count '4294967296'"),
              std::string::npos);
    EXPECT_NE(cliError({"--workload=CG", "--cores=4294967360"})
                  .find("bad core count '4294967360'"),
              std::string::npos);
    EXPECT_NE(cliError({"--workload=CG", "--chips=4294967297"})
                  .find("bad chip count '4294967297'"),
              std::string::npos);
    EXPECT_NE(cliError({"--workload=CG", "--far-mem-bw=4294967304"})
                  .find("bad far-memory width '4294967304'"),
              std::string::npos);
    // The largest 32-bit value still parses.
    EXPECT_EQ(parseCli({"--workload=CG", "--jobs=4294967295"}).jobs,
              4294967295u);
}

TEST(CliRules, FlagValue)
{
    EXPECT_EQ(flagValue("--jobs=4", "--jobs"), "4");
    EXPECT_EQ(flagValue("--jobs=", "--jobs"), "");
    EXPECT_FALSE(flagValue("--jobs", "--jobs"));
    EXPECT_FALSE(flagValue("--jobsx=4", "--jobs"));
    EXPECT_FALSE(flagValue("--format=json", "--jobs"));
}

TEST(CliRules, ParseUint32)
{
    EXPECT_EQ(parseUint32("0"), 0u);
    EXPECT_EQ(parseUint32("8"), 8u);
    EXPECT_EQ(parseUint32("4294967295"), 4294967295u);
    // Past 32 bits is malformed, never wrapped (4294967304 ran 8).
    EXPECT_FALSE(parseUint32("4294967296"));
    EXPECT_FALSE(parseUint32("4294967304"));
    for (const char *bad : {"", "abc", "1x", "-1", " 1", "1.5"}) {
        SCOPED_TRACE(bad);
        EXPECT_FALSE(parseUint32(bad));
    }
}

TEST(CliRules, JobsFlag)
{
    std::vector<std::string> errs;
    EXPECT_EQ(parseJobsFlag("auto", errs), 0u);
    EXPECT_EQ(parseJobsFlag("4", errs), 4u);
    EXPECT_TRUE(errs.empty());
    for (const char *bad : {"0", "-2", "4294967296", "two"}) {
        SCOPED_TRACE(bad);
        errs.clear();
        EXPECT_FALSE(parseJobsFlag(bad, errs));
        ASSERT_EQ(errs.size(), 1u);
        EXPECT_NE(errs[0].find("--jobs"), std::string::npos);
        EXPECT_NE(errs[0].find(bad), std::string::npos);
    }
}

TEST(CliRules, FormatFlag)
{
    std::vector<std::string> errs;
    EXPECT_EQ(parseFormatFlag("table", errs), ResultFormat::Table);
    EXPECT_EQ(parseFormatFlag("csv", errs), ResultFormat::Csv);
    EXPECT_EQ(parseFormatFlag("json", errs), ResultFormat::Json);
    EXPECT_TRUE(errs.empty());
    EXPECT_FALSE(parseFormatFlag("xml", errs));
    ASSERT_EQ(errs.size(), 1u);
    EXPECT_NE(errs[0].find("--format"), std::string::npos);
}

TEST(CliRules, SimWindowFlag)
{
    std::vector<std::string> errs;
    const auto fixed = parseSimWindowFlag("5", errs);
    ASSERT_TRUE(fixed);
    EXPECT_EQ(fixed->window, 5u);
    EXPECT_EQ(fixed->windowMax, 0u);
    const auto adaptive = parseSimWindowFlag("auto", errs);
    ASSERT_TRUE(adaptive);
    EXPECT_EQ(adaptive->window, 0u);
    EXPECT_EQ(adaptive->windowMax, 128u);
    EXPECT_TRUE(errs.empty());
    for (const char *bad : {"0", "-5", "wide", ""}) {
        SCOPED_TRACE(bad);
        errs.clear();
        EXPECT_FALSE(parseSimWindowFlag(bad, errs));
        ASSERT_EQ(errs.size(), 1u);
        EXPECT_NE(errs[0].find("--sim-window"), std::string::npos);
    }
    // The window belongs to the partitioned core.
    errs.clear();
    checkSimWindowThreads(1, errs);
    EXPECT_TRUE(errs.empty());
    checkSimWindowThreads(0, errs);
    ASSERT_EQ(errs.size(), 1u);
    EXPECT_NE(errs[0].find("--sim-threads"), std::string::npos);
}

TEST(Cli, RejectsTickValuesPastMaxTicks)
{
    // The window wrapped the epoch horizon ("scheduling in the
    // past"); the far-memory latency wraps completion ticks.
    const auto expandError = [](const std::vector<std::string> &a) {
        const CliOptions opt = parseCli(a);
        try {
            SweepRunner().expand(opt.sweep);
        } catch (const FatalError &e) {
            return std::string(e.what());
        }
        ADD_FAILURE() << "expected FatalError";
        return std::string();
    };
    EXPECT_NE(expandError({"--workload=CG", "--cores=8",
                           "--sim-window=18446744073709551615",
                           "--sim-threads=1"})
                  .find("simWindow (18446744073709551615) exceeds "
                        "maxTicks"),
              std::string::npos);
    EXPECT_NE(expandError({"--workload=xpipeline", "--cores=16",
                           "--chips=2",
                           "--far-mem-lat=18446744073709551615"})
                  .find("farMemLat (18446744073709551615) exceeds "
                        "maxTicks"),
              std::string::npos);
    SweepSpec sweep;
    sweep.workloads = {"CG"};
    sweep.coreCounts = {8};
    sweep.simThreads = 1;
    sweep.simWindow = 8;
    sweep.simWindowMax = SystemParams{}.maxTicks + 1;
    try {
        SweepRunner().expand(sweep);
        ADD_FAILURE() << "expected FatalError";
    } catch (const FatalError &e) {
        EXPECT_NE(std::string(e.what()).find("simWindowMax ("),
                  std::string::npos);
    }
}

TEST(Cli, RejectsEmptyLists)
{
    // These ran the axis default (64 cores, scale 1, ...) before.
    for (const char *flag :
         {"--workload", "--mode", "--protocol", "--cores", "--chips",
          "--scale", "--filter-entries", "--prefetcher"}) {
        SCOPED_TRACE(flag);
        std::vector<std::string> args{std::string(flag) + "="};
        if (std::string(flag) != "--workload")
            args.push_back("--workload=CG");
        EXPECT_NE(cliError(args).find(std::string(flag) +
                                      " lists no values"),
                  std::string::npos);
    }
}

TEST(Cli, GeneratedTitleNamesTheAxes)
{
    const CliOptions opt =
        parseCli({"--workload=CG,EP", "--mode=cache"});
    const std::string t = opt.effectiveTitle();
    EXPECT_NE(t.find("CG"), std::string::npos);
    EXPECT_NE(t.find("EP"), std::string::npos);
    EXPECT_NE(t.find("cache"), std::string::npos);
}

// The parsed sweep is directly runnable: this is the spmcoh_run
// main() path minus the process glue, checked against a builder
// run of the same point.
TEST(Cli, ParsedSweepRunsThroughTheDriver)
{
    const CliOptions opt = parseCli(
        {"--workload=CG", "--cores=4", "--scale=0.25",
         "--jobs=2"});
    SweepRunner runner(WorkloadRegistry::global(), opt.jobs);
    const auto results = runner.run(opt.sweep);
    ASSERT_EQ(results.size(), 1u);

    const ExperimentResult direct = ExperimentBuilder()
                                        .workload("CG")
                                        .mode(SystemMode::HybridProto)
                                        .cores(4)
                                        .scale(0.25)
                                        .run();
    EXPECT_EQ(results[0].results.cycles, direct.results.cycles);
    EXPECT_EQ(results[0].results.traffic.totalPackets(),
              direct.results.traffic.totalPackets());
}

} // namespace
} // namespace spmcoh
