/**
 * @file
 * Shared scaffolding for the figure/table harnesses, built on the
 * experiment driver API. A sweeping harness runs its SweepSpecs
 * through a SweepRunner, and either renders its figure-shaped tables
 * (default) or streams the structured results through a CSV/JSON
 * ResultSink when invoked with --format=csv or --format=json. Flags
 * are parsed with the driver CLI's value rules (driver/Cli.hh).
 */

#ifndef SPMCOH_BENCH_BENCHUTIL_HH
#define SPMCOH_BENCH_BENCHUTIL_HH

#include <cstdio>
#include <cstdlib>
#include <iostream>
#include <optional>
#include <string>
#include <vector>

#include "driver/Cli.hh"
#include "driver/Driver.hh"
#include "workloads/NasBenchmarks.hh"

namespace spmcoh::benchutil
{

/** Evaluation scale: full Table 1 machine, default workload scale. */
constexpr std::uint32_t evalCores = 64;
constexpr double evalScale = 1.0;

/**
 * The six NAS workload names of the evaluation (Table 2 order).
 * The figure harnesses pin this set explicitly: the global registry
 * also carries the parameterized kernel workloads, which the paper
 * figures do not include.
 */
inline std::vector<std::string>
nasWorkloads()
{
    std::vector<std::string> out;
    for (NasBench b : allNasBenchmarks())
        out.push_back(nasBenchName(b));
    return out;
}

/** Parsed harness invocation. */
struct BenchMain
{
    ResultFormat format = ResultFormat::Table;
    SweepRunner runner;

    /** Figure-shaped printf output is wanted (default format). */
    bool table() const { return format == ResultFormat::Table; }

    /** Sink for csv/json; null in table mode. */
    std::unique_ptr<ResultSink>
    sink() const
    {
        if (table())
            return nullptr;
        return makeResultSink(format, std::cout);
    }
};

/** Print every collected flag error to stderr and exit 2 when there
 *  is one. */
inline void
exitOnErrors(const char *prog, const std::vector<std::string> &errs)
{
    if (errs.empty())
        return;
    std::fprintf(stderr, "%s: invalid invocation:\n", prog);
    for (const std::string &e : errs)
        std::fprintf(stderr, "  - %s\n", e.c_str());
    std::fprintf(stderr, "(run with --help for usage)\n");
    std::exit(2);
}

/**
 * Parse --format=table|csv|json, --jobs=N|auto (N worker threads
 * for the sweep points, 'auto' = hardware threads) and --help with
 * the driver CLI's value rules. @p desc is the one-line harness
 * description shown by --help. Exits 2 on bad args.
 */
inline BenchMain
parseArgs(int argc, char **argv, const char *desc)
{
    BenchMain bm;
    std::uint32_t jobs = 1;
    std::vector<std::string> errs;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        std::optional<std::string> v;
        if ((v = flagValue(arg, "--format"))) {
            if (const auto f = parseFormatFlag(*v, errs))
                bm.format = *f;
        } else if ((v = flagValue(arg, "--jobs"))) {
            if (const auto n = parseJobsFlag(*v, errs))
                jobs = *n;
        } else if (arg == "--help") {
            std::printf("%s\nusage: %s [--format=table|csv|json] "
                        "[--jobs=N|auto]\n", desc, argv[0]);
            std::exit(0);
        } else {
            errs.push_back("unknown argument '" + arg + "'");
        }
    }
    exitOnErrors(argv[0], errs);
    bm.runner = SweepRunner(WorkloadRegistry::global(), jobs);
    return bm;
}

/** Argument handling of the harnesses that run no sweep: --help
 *  prints @p desc, any other argument exits 2. */
inline void
parseHelpOnly(int argc, char **argv, const char *desc)
{
    std::vector<std::string> errs;
    for (int i = 1; i < argc; ++i) {
        if (std::string(argv[i]) == "--help") {
            std::printf("%s\nusage: %s\n", desc, argv[0]);
            std::exit(0);
        }
        errs.push_back("unknown argument '" + std::string(argv[i]) +
                       "'");
    }
    exitOnErrors(argv[0], errs);
}

/** The standard evaluation sweep: all NAS benchmarks x @p modes. */
inline SweepSpec
evalSweep(std::vector<SystemMode> modes)
{
    SweepSpec sweep;
    sweep.workloads = nasWorkloads();
    sweep.modes = std::move(modes);
    sweep.coreCounts = {evalCores};
    sweep.scales = {evalScale};
    return sweep;
}

inline void
header(const char *title)
{
    std::printf("\n==== %s ====\n", title);
}

} // namespace spmcoh::benchutil

#endif // SPMCOH_BENCH_BENCHUTIL_HH
