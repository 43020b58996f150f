/**
 * @file
 * Command-line front end for the experiment driver: parses the
 * spmcoh_run argument surface (workload/mode/cores/scale sweep
 * axes, variant axes, output format/file, worker count) into a
 * validated SweepSpec + options bundle. Kept independent of main()
 * so the parser is unit-testable, and its flag value rules are the
 * ones the bench harnesses parse with.
 */

#ifndef SPMCOH_DRIVER_CLI_HH
#define SPMCOH_DRIVER_CLI_HH

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "driver/ResultSink.hh"
#include "driver/SweepRunner.hh"

namespace spmcoh
{

/** Parsed spmcoh_run invocation. */
struct CliOptions
{
    /** Sweep axes assembled from --workload/--mode/--cores/--scale,
     *  the workload-parameter axes (--wparam=key=v1,v2, repeatable)
     *  and the variant axes (--filter-entries, --prefetcher). */
    SweepSpec sweep;
    ResultFormat format = ResultFormat::Table;
    /** Worker threads; 1 = serial, 0 = hardware parallelism. */
    std::uint32_t jobs = 1;
    std::string outFile;  ///< empty = stdout
    std::string title;    ///< empty = generated from the axes
    bool withStats = true;
    bool help = false;
    bool listWorkloads = false;
    bool listProtocols = false;

    /** The title to report: --title, or one built from the axes. */
    std::string effectiveTitle() const;
};

/** "a,b,c" -> {"a", "b", "c"}. Empty input gives an empty list. */
std::vector<std::string> splitList(const std::string &s);

/**
 * @name Flag grammar
 * The value rules every command-line binary shares (spmcoh_run and
 * the bench harnesses), so a flag reads the same everywhere. The
 * *Flag rules take a flag's value; on a malformed one they append a
 * message naming the flag to @p errs and return nullopt.
 * @{
 */

/** Value of "--flag=value" when @p arg starts with "--flag=". */
std::optional<std::string> flagValue(const std::string &arg,
                                     const std::string &flag);

/** A whole-string unsigned integer that fits 32 bits; nullopt when
 *  malformed or larger, never silently wrapped. */
std::optional<std::uint32_t> parseUint32(const std::string &s);

/** --jobs=N|auto: N >= 1 worker threads, 'auto' = 0 (hardware
 *  parallelism). */
std::optional<std::uint32_t> parseJobsFlag(const std::string &v,
                                           std::vector<std::string> &errs);

/** --format=table|csv|json. */
std::optional<ResultFormat>
parseFormatFlag(const std::string &v, std::vector<std::string> &errs);

/** Epoch window of the partitioned core (ExperimentSpec::simWindow
 *  and simWindowMax). */
struct SimWindowSetting
{
    Tick window = 0;     ///< base width; 0 = model default
    Tick windowMax = 0;  ///< adaptive ceiling; 0 = fixed window
};

/** --sim-window=W|auto: a fixed W >= 1 ticks, or 'auto' for the
 *  adaptive window (model-default base, 128-tick ceiling). */
std::optional<SimWindowSetting>
parseSimWindowFlag(const std::string &v, std::vector<std::string> &errs);

/** A --sim-window needs the partitioned core: appends the error
 *  when @p simThreads is 0. */
void checkSimWindowThreads(std::uint32_t simThreads,
                           std::vector<std::string> &errs);

/** @} */

/** Full usage text for --help and error hints. */
std::string cliUsage(const std::string &prog);

/**
 * Parse an spmcoh_run argument vector (argv[0] excluded). Throws
 * FatalError listing every problem found (unknown flags, bad
 * numbers, unknown workloads/modes/formats) when the invocation is
 * invalid. --workload is required unless --help, --list-workloads
 * or --list-protocols is present; "--workload=all" expands to every
 * registered name.
 */
CliOptions
parseCli(const std::vector<std::string> &args,
         const WorkloadRegistry &reg = WorkloadRegistry::global());

} // namespace spmcoh

#endif // SPMCOH_DRIVER_CLI_HH
