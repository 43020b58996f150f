/**
 * @file
 * Cartesian parameter sweeps over the experiment API: workloads x
 * modes x core counts x workload scales x named parameter variants.
 * PreparedPrograms are compiled once and shared across every sweep
 * point with the same (workload, cores, scale, spmBytes); points run
 * on a fixed number of worker threads (runJobs, ThreadPool.hh).
 */

#ifndef SPMCOH_DRIVER_SWEEPRUNNER_HH
#define SPMCOH_DRIVER_SWEEPRUNNER_HH

#include <functional>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "driver/Experiment.hh"
#include "driver/ResultSink.hh"

namespace spmcoh
{

/** One named point on the parameter-variant axis. */
struct SweepVariant
{
    std::string name;
    /** Applied to the resolved SystemParams of each point. */
    std::function<void(SystemParams &)> tweak;
};

/**
 * Axes of a cartesian sweep. workloads must be non-empty; so must
 * modes/coreCounts/scales (they start with one default point).
 * Empty paramPoints/variants axes default to a single baseline
 * point (spec-default parameters / no tweak).
 */
struct SweepSpec
{
    std::vector<std::string> workloads;
    std::vector<SystemMode> modes{SystemMode::HybridProto};
    /** Coherence-protocol axis; empty = default protocol only. */
    std::vector<std::string> protocols;
    std::vector<std::uint32_t> coreCounts{64};
    /** Chip-count axis (Topology::forSystem); {1} = single chip. */
    std::vector<std::uint32_t> chipCounts{1};
    std::vector<double> scales{1.0};
    /** Workload-parameter points; empty = spec defaults only. */
    std::vector<WorkloadParams> paramPoints;
    /** Empty = single un-tweaked baseline point. */
    std::vector<SweepVariant> variants;
    /**
     * Intra-run simulation worker threads, stamped onto every
     * expanded spec (ExperimentSpec::simThreads). Not an axis:
     * results are byte-identical for every value >= 1. Distinct from
     * the sweep-point parallelism (--jobs).
     */
    std::uint32_t simThreads = 0;
    /**
     * Epoch window width / adaptive ceiling for partitioned runs,
     * stamped onto every expanded spec (ExperimentSpec::simWindow /
     * simWindowMax); 0 keeps the model defaults. Not an axis, same
     * rationale as simThreads.
     */
    Tick simWindow = 0;
    Tick simWindowMax = 0;
    /**
     * Pooled far-memory tier, stamped onto every expanded spec
     * (ExperimentSpec::farMemLat/farMemBw); meaningful only with a
     * chips >= 2 point on the chip axis. Not an axis itself.
     */
    Tick farMemLat = 0;
    std::uint32_t farMemBw = 0;
};

/**
 * Expand named value lists ({"grids", {3, 5}}, {"hotKB", {8, 16}})
 * into their cartesian product of WorkloadParams points, first axis
 * outermost (later axes vary fastest). Empty input gives an empty
 * vector (= sweep at spec defaults); an axis with no values is
 * fatal, as is a repeated name.
 */
std::vector<WorkloadParams> expandParamAxes(
    const std::vector<std::pair<std::string, std::vector<double>>>
        &axes);

/** Expands and executes sweeps, caching compiled programs. */
class SweepRunner
{
  public:
    struct CacheStats
    {
        std::size_t compiles = 0;  ///< distinct programs compiled
        std::size_t hits = 0;      ///< points served from the cache
    };

    /** @param workers_ threads for the sweep points (--jobs):
     *  1 = in order on the calling thread, 0 = hardware threads. */
    explicit SweepRunner(
        const WorkloadRegistry &reg_ = WorkloadRegistry::global(),
        std::uint32_t workers_ = 1)
        : reg(&reg_), workers(workers_)
    {}

    /**
     * Expand the cartesian product of @p sweep into validated
     * specs, ordered workload-major (modes, protocols, cores,
     * chips, scales, workload parameters, variants vary fastest, in
     * that nesting order). Fatal listing every validation problem
     * when any point is invalid.
     */
    std::vector<ExperimentSpec> expand(const SweepSpec &sweep) const;

    /**
     * Expand and run the sweep. Results are in expand() order.
     * When @p sink is non-null every result is streamed into it
     * between begin(@p title) and end().
     */
    std::vector<ExperimentResult>
    run(const SweepSpec &sweep, ResultSink *sink = nullptr,
        const std::string &title = "");

    /** Run pre-expanded specs (cache + worker count still apply). */
    std::vector<ExperimentResult>
    runSpecs(const std::vector<ExperimentSpec> &specs,
             ResultSink *sink = nullptr,
             const std::string &title = "");

    const CacheStats &cacheStats() const { return cstats; }
    const WorkloadRegistry &registry() const { return *reg; }

  private:
    const PreparedProgram &prepared(const ExperimentSpec &spec);

    const WorkloadRegistry *reg;
    std::uint32_t workers;  ///< runJobs worker count
    std::map<std::string, std::unique_ptr<PreparedProgram>> cache;
    CacheStats cstats;
};

/** Find the first result matching workload and mode; fatal if none. */
const ExperimentResult &
findResult(const std::vector<ExperimentResult> &results,
           const std::string &workload, SystemMode mode,
           const std::string &variant = "");

/** Geometric mean (0 for an empty set). */
double geomean(const std::vector<double> &v);

} // namespace spmcoh

#endif // SPMCOH_DRIVER_SWEEPRUNNER_HH
