/**
 * @file
 * The simulator benchmark: fixed workloads driven through the public
 * experiment API step by step (the same calls, in the same order, as
 * runExperiment), timed from outside, checked for repeatability and
 * engine agreement, and reduced to named end-to-end and per-layer
 * metrics.
 *
 * A separate traced mode records one span around each public call
 * (name, start, end, parent, experiment id), keeps them in memory and
 * exports them as Chrome trace-event JSON; the per-layer host times
 * are the spans' self times.
 */

#ifndef PERFBENCH_BENCH_HH
#define PERFBENCH_BENCH_HH

#include <chrono>
#include <cstdint>
#include <functional>
#include <map>
#include <optional>
#include <ostream>
#include <string>
#include <vector>

#include "driver/Experiment.hh"

namespace perfbench
{

using Clock = std::chrono::steady_clock;

/** One experiment of a workload's fixed set. */
struct BenchSpec
{
    std::string workload;
    spmcoh::WorkloadParams wparams;
    std::uint32_t cores = 64;
    std::uint32_t chips = 1;
    double scale = 1.0;
    /** 0 = monolithic engine; N = partitioned engine, N threads,
     *  adaptive window (the CLI's --sim-window=auto). */
    std::uint32_t simThreads = 0;

    /** The validated ExperimentSpec (ExperimentBuilder::spec). */
    spmcoh::ExperimentSpec spec() const;
    /** The same spec on the monolithic engine. */
    BenchSpec monolithic() const;
    /** ExperimentSpec label plus "/stN" for partitioned runs. */
    std::string label() const;
};

/** A named workload: the fixed experiment set one run repeats. */
struct WorkloadDef
{
    std::string name;
    std::string why;
    std::vector<BenchSpec> specs;
};

/** The benchmark's workloads: cg256-mono, cg256-par, kern64. */
const std::vector<WorkloadDef> &workloads();

/** The workload named @p name, or null. */
const WorkloadDef *findWorkload(const std::string &name);

/** One recorded span: a public call into a simulator layer. */
struct Span
{
    std::string name;
    std::int64_t startNs = 0;   ///< since the tracer was created
    std::int64_t endNs = 0;
    std::int32_t parent = -1;   ///< index into spans(), -1 = root
    std::uint32_t experiment = 0;
};

/**
 * In-memory span recorder. Spans nest by call order: a span begun
 * while another is open becomes its child. When disabled, begin()
 * and end() record nothing.
 */
class Tracer
{
  public:
    explicit Tracer(bool enabled_) : enabled(enabled_) {}

    /** Open a span; returns its index (-1 when disabled). */
    std::int32_t begin(const char *name, std::uint32_t experiment);
    /** Close the span @p id returned by begin(). */
    void end(std::int32_t id);

    const std::vector<Span> &spans() const { return recorded; }

  private:
    bool enabled;
    Clock::time_point origin = Clock::now();
    std::vector<Span> recorded;
    std::vector<std::int32_t> open;
};

/** Closes its span when it goes out of scope (exceptions too). */
class SpanScope
{
  public:
    SpanScope(Tracer &tracer_, const char *name,
              std::uint32_t experiment)
        : tracer(tracer_), id(tracer_.begin(name, experiment))
    {}
    ~SpanScope() { tracer.end(id); }
    SpanScope(const SpanScope &) = delete;
    SpanScope &operator=(const SpanScope &) = delete;

  private:
    Tracer &tracer;
    std::int32_t id;
};

/** Per span: its duration minus the time its children cover. */
std::vector<std::int64_t> selfTimesNs(const std::vector<Span> &spans);

/** Chrome trace-event JSON ("X" complete events, microseconds). */
void writeChromeTrace(std::ostream &os, const std::vector<Span> &spans);

/** Host timestamps of one experiment, taken in every mode. */
struct StepTimes
{
    double wallS = 0;    ///< validation .. serialized result
    double setupS = 0;   ///< build, prepare, cuts, System, sources
    double runS = 0;     ///< System::run
};

/** Everything one step-by-step experiment produced. */
struct StepOutcome
{
    spmcoh::ExperimentResult result;
    /** The result serialized by the JSON ResultSink (with stats). */
    std::string json;
    std::uint64_t events = 0;     ///< System::events().executed()
    std::uint32_t regions = 0;    ///< System::numRegions()
    StepTimes times;
};

/**
 * Run @p b through the public API in runExperiment's order:
 * ExperimentBuilder::spec, WorkloadRegistry::build (stamping @p seed
 * onto ProgramDecl::seed when set), prepareProgram,
 * deriveRegionCuts, System::System, makeSources, System::run,
 * System::results + snapshotStats, and the JSON ResultSink.
 * Throws spmcoh::FatalError when the deadlock guard trips.
 */
StepOutcome runSteps(const BenchSpec &b,
                     std::optional<std::uint64_t> seed, Tracer &tracer,
                     std::uint32_t experiment);

/** The JSON ResultSink's rendering of one result. */
std::string serialize(const spmcoh::ExperimentResult &r);

/** One named metric. */
struct Metric
{
    std::string name;
    std::string unit;
    double value = 0;
};

struct RunOptions
{
    /** Workload seed; unset keeps each workload's registry seed. */
    std::optional<std::uint64_t> seed;
    /** Repeat the experiment set until this much host time passed. */
    double seconds = 10;
    /** Alternate traced and untraced repetitions. */
    bool trace = false;
    /** Fault injection for tests: may alter a result before the
     *  correctness check sees it. */
    std::function<void(std::uint32_t rep, const BenchSpec &,
                       spmcoh::ExperimentResult &)> perturb;
};

struct WorkloadReport
{
    std::string workload;
    std::optional<std::uint64_t> seed;
    double seconds = 0;
    bool trace = false;
    std::uint32_t reps = 0;         ///< untraced repetitions
    std::uint32_t tracedReps = 0;
    std::uint64_t attempted = 0;    ///< experiments, references too
    std::uint64_t failed = 0;
    std::vector<std::string> failures;
    std::vector<Metric> endToEnd;
    /** Per-repetition values behind each end-to-end timing. */
    std::map<std::string, std::vector<double>> samples;
    /** Model counters always; span self times in traced mode. */
    std::vector<Metric> perLayer;
    /** Traced mode: median traced over median untraced repetition
     *  wall time, minus one, in percent. */
    std::optional<double> traceOverheadPct;
    /** Traced mode: every span of the run, for the trace file. */
    std::vector<Span> spans;
};

/**
 * Measure @p w: repeat its experiment set for opts.seconds (and at
 * least three times), check every repetition against the
 * first and every partitioned run against its monolithic reference,
 * and reduce the timings and statistics to metrics. Failed
 * experiments are counted, never thrown.
 */
WorkloadReport runWorkload(const WorkloadDef &w,
                           const RunOptions &opts);

/** Human-readable report: every metric by name, value and unit. */
void printReport(std::ostream &os, const WorkloadReport &r);

/**
 * One-line JSON object {correct, attempted, failed, metrics, ...}:
 * the end-to-end metrics untraced, the per-layer ones traced.
 */
void printResultLine(std::ostream &os, const WorkloadReport &r);

} // namespace perfbench

#endif // PERFBENCH_BENCH_HH
