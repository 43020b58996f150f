/**
 * @file
 * Shared scaffolding for the figure/table harnesses, built on the
 * experiment driver API. Each harness declares a SweepSpec, runs it
 * through a SweepRunner, and either renders its figure-shaped table
 * (default) or streams the structured results through a CSV/JSON
 * ResultSink when invoked with --format=csv or --format=json.
 */

#ifndef SPMCOH_BENCH_BENCHUTIL_HH
#define SPMCOH_BENCH_BENCHUTIL_HH

#include <cctype>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <iostream>
#include <limits>
#include <string>
#include <vector>

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

/**
 * Parse --format=table|csv|json, --jobs=N (N worker threads for the
 * sweep points, 'auto' = hardware threads) and --help. @p desc is
 * the one-line harness description shown by --help. Exits on bad
 * args.
 */
inline BenchMain
parseArgs(int argc, char **argv, const char *desc = nullptr)
{
    BenchMain bm;
    std::uint32_t jobs = 1;
    for (int i = 1; i < argc; ++i) {
        const char *arg = argv[i];
        if (std::strncmp(arg, "--format=", 9) == 0) {
            const auto f = resultFormatFromName(arg + 9);
            if (!f) {
                std::fprintf(stderr,
                             "unknown format '%s' (expected "
                             "table, csv or json)\n", arg + 9);
                std::exit(2);
            }
            bm.format = *f;
        } else if (std::strncmp(arg, "--jobs=", 7) == 0) {
            if (std::strcmp(arg + 7, "auto") == 0) {
                jobs = 0;
            } else {
                char *end = nullptr;
                const unsigned long v =
                    std::strtoul(arg + 7, &end, 10);
                // strtoul accepts (and wraps) a leading '-'.
                if (v == 0 || *end != '\0' ||
                    v > std::numeric_limits<std::uint32_t>::max() ||
                    !std::isdigit(
                        static_cast<unsigned char>(arg[7]))) {
                    std::fprintf(stderr,
                                 "bad job count '%s' (expected a "
                                 "positive integer or 'auto')\n",
                                 arg + 7);
                    std::exit(2);
                }
                jobs = static_cast<std::uint32_t>(v);
            }
        } else if (std::strcmp(arg, "--help") == 0) {
            if (desc)
                std::printf("%s\n", desc);
            std::printf("usage: %s [--format=table|csv|json] "
                        "[--jobs=N|auto]\n", argv[0]);
            std::exit(0);
        } else {
            std::fprintf(stderr, "unknown argument '%s'\n", arg);
            std::exit(2);
        }
    }
    bm.runner = SweepRunner(WorkloadRegistry::global(), jobs);
    return bm;
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
