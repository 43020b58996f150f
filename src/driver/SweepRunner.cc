/**
 * @file
 * Sweep expansion and execution.
 */

#include "driver/SweepRunner.hh"

#include <cmath>

#include "driver/ThreadPool.hh"
#include "sim/Logging.hh"

namespace spmcoh
{

std::vector<WorkloadParams>
expandParamAxes(
    const std::vector<std::pair<std::string, std::vector<double>>>
        &axes)
{
    std::vector<WorkloadParams> points;
    for (const auto &[name, values] : axes) {
        if (name.empty())
            fatal("expandParamAxes: parameter name must not be "
                  "empty");
        if (values.empty())
            fatal("expandParamAxes: parameter '" + name +
                  "' lists no values");
        if (points.empty())
            points.push_back(WorkloadParams{});
        for (const WorkloadParams &p : points)
            if (p.has(name))
                fatal("expandParamAxes: parameter '" + name +
                      "' given twice");
        std::vector<WorkloadParams> next;
        next.reserve(points.size() * values.size());
        for (const WorkloadParams &p : points)
            for (double v : values)
                next.push_back(WorkloadParams(p).set(name, v));
        points = std::move(next);
    }
    return points;
}

std::vector<ExperimentSpec>
SweepRunner::expand(const SweepSpec &sweep) const
{
    if (sweep.workloads.empty())
        fatal("SweepRunner: sweep needs at least one workload");
    if (sweep.modes.empty() || sweep.coreCounts.empty() ||
        sweep.chipCounts.empty() || sweep.scales.empty())
        fatal("SweepRunner: sweep axes must not be empty");

    std::vector<SweepVariant> variants = sweep.variants;
    if (variants.empty())
        variants.push_back(SweepVariant{"", nullptr});
    std::vector<WorkloadParams> ppoints = sweep.paramPoints;
    if (ppoints.empty())
        ppoints.push_back(WorkloadParams{});
    std::vector<std::string> protocols = sweep.protocols;
    if (protocols.empty())
        protocols.push_back(ProtocolFactory::defaultName());

    std::vector<ExperimentSpec> specs;
    std::vector<std::string> errs;
    for (const std::string &w : sweep.workloads) {
        for (SystemMode m : sweep.modes) {
          for (const std::string &proto : protocols) {
            for (std::uint32_t c : sweep.coreCounts) {
              for (std::uint32_t ch : sweep.chipCounts) {
                for (double s : sweep.scales) {
                  for (const WorkloadParams &wp : ppoints) {
                    for (const SweepVariant &v : variants) {
                        ExperimentSpec e;
                        e.workload = w;
                        e.mode = m;
                        e.protocol = proto;
                        e.cores = c;
                        e.chips = ch;
                        // The far tier only exists behind a hub:
                        // single-chip points on a mixed chip axis
                        // run without it rather than failing
                        // validation.
                        e.farMemLat = ch > 1 ? sweep.farMemLat : 0;
                        e.farMemBw = ch > 1 ? sweep.farMemBw : 0;
                        e.scale = s;
                        e.wparams = wp;
                        e.variant = v.name;
                        e.simThreads = sweep.simThreads;
                        e.simWindow = sweep.simWindow;
                        e.simWindowMax = sweep.simWindowMax;
                        // Validate before resolving: the tweak
                        // needs resolvedParams, which derives a
                        // topology only defined for tileable core
                        // counts.
                        std::vector<std::string> point_errs =
                            validateExperiment(e, *reg);
                        if (point_errs.empty() && v.tweak) {
                            SystemParams p = e.resolvedParams();
                            v.tweak(p);
                            e.paramsOverride = p;
                            point_errs = validateExperiment(e, *reg);
                        }
                        for (const std::string &err : point_errs)
                            errs.push_back(e.label() + ": " + err);
                        specs.push_back(std::move(e));
                    }
                  }
                }
              }
            }
          }
        }
    }
    if (!errs.empty()) {
        std::string msg = "invalid sweep:";
        for (const std::string &e : errs)
            msg += "\n  - " + e;
        fatal(msg);
    }
    return specs;
}

const PreparedProgram &
SweepRunner::prepared(const ExperimentSpec &spec)
{
    const SystemParams p = spec.resolvedParams();
    char buf[64];
    std::snprintf(buf, sizeof(buf), "|%u|%.17g|%u|", spec.cores,
                  spec.scale, p.spmBytes);
    // Key on the spec-resolved assignment, not the caller's: a point
    // that spells out a default value compiles the same program as
    // one that omits it, and must share the cache entry.
    const std::string key = spec.workload + buf +
        reg->spec(spec.workload).resolve(spec.wparams).render();
    auto it = cache.find(key);
    if (it != cache.end()) {
        ++cstats.hits;
        return *it->second;
    }
    ++cstats.compiles;
    const ProgramDecl prog = reg->build(spec.workload, spec.cores,
                                        spec.scale, spec.wparams);
    auto pp = std::make_unique<PreparedProgram>(
        prepareProgram(prog, spec.cores, p.spmBytes));
    return *cache.emplace(key, std::move(pp)).first->second;
}

std::vector<ExperimentResult>
SweepRunner::runSpecs(const std::vector<ExperimentSpec> &specs,
                      ResultSink *sink, const std::string &title)
{
    // Compile phase: serial, so the jobs share read-only
    // PreparedPrograms and stay independent of each other.
    std::vector<const PreparedProgram *> programs;
    programs.reserve(specs.size());
    for (const ExperimentSpec &s : specs)
        programs.push_back(&prepared(s));

    std::vector<ExperimentResult> results(specs.size());
    std::vector<std::function<void()>> jobs;
    jobs.reserve(specs.size());
    for (std::size_t i = 0; i < specs.size(); ++i) {
        jobs.push_back([this, &specs, &programs, &results, i] {
            results[i] =
                runExperiment(specs[i], *reg, programs[i]);
        });
    }
    runJobs(workers, std::move(jobs));

    if (sink) {
        sink->begin(title);
        for (const ExperimentResult &r : results)
            sink->add(r);
        sink->end();
    }
    return results;
}

std::vector<ExperimentResult>
SweepRunner::run(const SweepSpec &sweep, ResultSink *sink,
                 const std::string &title)
{
    return runSpecs(expand(sweep), sink, title);
}

const ExperimentResult &
findResult(const std::vector<ExperimentResult> &results,
           const std::string &workload, SystemMode mode,
           const std::string &variant)
{
    for (const ExperimentResult &r : results)
        if (r.spec.workload == workload && r.spec.mode == mode &&
            r.spec.variant == variant)
            return r;
    fatal("findResult: no result for " + workload + "/" +
          systemModeName(mode) +
          (variant.empty() ? "" : "+" + variant));
}

double
geomean(const std::vector<double> &v)
{
    if (v.empty())
        return 0.0;
    double log_sum = 0.0;
    for (double x : v)
        log_sum += std::log(x);
    return std::exp(log_sum / static_cast<double>(v.size()));
}

} // namespace spmcoh
