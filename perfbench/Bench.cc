/**
 * @file
 * Benchmark workloads, the step-by-step experiment path, span
 * recording and metric reduction.
 */

#include "Bench.hh"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <exception>
#include <iterator>
#include <memory>
#include <sstream>

#include "driver/Json.hh"
#include "driver/ResultSink.hh"
#include "sim/Logging.hh"
#include "system/RegionMap.hh"

namespace perfbench
{

using namespace spmcoh;

namespace
{

/** Partitioned-engine thread count: the 4 hardware threads of the
 *  reference host, so the engine never oversubscribes it. */
constexpr std::uint32_t parThreads = 4;
/** Adaptive window ceiling of the CLI's --sim-window=auto. */
constexpr Tick autoWindowMax = 128;
/**
 * CG problem scale at 256 cores. Half the default problem keeps one
 * experiment near 2 s, so a run holds enough repetitions for a steady
 * median; the engines still differ by ~56% in cycles, as at full
 * scale (~55%).
 */
constexpr double cgScale = 0.5;
/** Fewest repetitions of the set in a run (traced mode: of each kind). */
constexpr std::uint32_t minReps = 3;
/**
 * hostSpeedProbe()'s time on the reference host (4-vCPU Xeon VM) at
 * its quietest, in seconds: the scale that turns an experiment's time
 * over the probe's into seconds on that host.
 */
constexpr double probeRefS = 0.0157;
/** Keeps the probe's result alive. */
volatile std::uint64_t probeSink;

double
seconds(Clock::duration d)
{
    return std::chrono::duration<double>(d).count();
}

double
median(std::vector<double> v)
{
    if (v.empty())
        return 0;
    std::sort(v.begin(), v.end());
    const std::size_t n = v.size();
    return n % 2 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2;
}

double
peakRssMb()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return double(ru.ru_maxrss) / 1024.0;   // ru_maxrss is in KiB
}

std::uint64_t
counter(const StatSnapshot &s, const std::string &group,
        const std::string &key)
{
    const auto g = s.find(group);
    if (g == s.end())
        return 0;
    const auto c = g->second.counters.find(key);
    return c == g->second.counters.end() ? 0 : c->second;
}

/** Samples and sum of one histogram (zero when absent). */
std::pair<std::uint64_t, std::uint64_t>
histogram(const StatSnapshot &s, const std::string &group,
          const std::string &key)
{
    const auto g = s.find(group);
    if (g == s.end())
        return {0, 0};
    const auto h = g->second.histograms.find(key);
    if (h == g->second.histograms.end())
        return {0, 0};
    return {h->second.samples, h->second.sum};
}

double
histogramMean(const StatSnapshot &s, const std::string &group,
              const std::string &key)
{
    const auto [n, sum] = histogram(s, group, key);
    return n ? double(sum) / double(n) : 0.0;
}

double
ratio(double num, double den)
{
    return den > 0 ? num / den : 0.0;
}

double
errPct(double value, double reference)
{
    return reference > 0 ? std::fabs(value - reference) / reference * 100
                         : 0.0;
}

/** Partitioned-vs-monolithic error of one histogram's mean. */
struct FidelityMetric
{
    const char *name;
    const char *group;
    const char *histogram;
};

const FidelityMetric fidelityMetrics[] = {
    {"fidelity.dmac_line_latency_err_pct", "dmac", "lineLatency"},
    {"fidelity.resolve_latency_err_pct", "coh", "resolveLatency"},
    {"fidelity.dir_txn_latency_err_pct", "dir", "txnLatency"},
};

/**
 * The model's per-layer counters, summed over @p runs (histogram
 * means pooled). Groups no run has (epochs on the monolithic engine,
 * the home agent and inter-chip links on one chip) are left out.
 */
void
appendModelMetrics(std::vector<Metric> &pl,
                   const std::vector<const StepOutcome *> &runs)
{
    auto has = [&](const char *g) {
        return std::any_of(runs.begin(), runs.end(),
                           [&](const StepOutcome *s) {
                               return s->result.stats.count(g) != 0;
                           });
    };
    auto sum = [&](auto fn) {
        double t = 0;
        for (const StepOutcome *s : runs)
            t += double(fn(*s));
        return t;
    };
    auto stat = [&](const char *g, const char *k) {
        return sum([&](const StepOutcome &s) {
            return counter(s.result.stats, g, k);
        });
    };
    auto count = [&](const char *name, const char *g, const char *k) {
        if (has(g))
            pl.push_back({name, "count", stat(g, k)});
    };
    auto mean = [&](const char *name, const char *g, const char *h) {
        if (!has(g))
            return;
        const double n = sum([&](const StepOutcome &s) {
            return histogram(s.result.stats, g, h).first;
        });
        const double total = sum([&](const StepOutcome &s) {
            return histogram(s.result.stats, g, h).second;
        });
        pl.push_back({name, "ticks", ratio(total, n)});
    };
    if (has("epochs")) {
        const double windows = stat("epochs", "windows");
        const double region_windows = sum([](const StepOutcome &s) {
            return double(counter(s.result.stats, "epochs", "windows")) *
                   s.regions;
        });
        pl.push_back({"epochs.windows", "count", windows});
        pl.push_back({"epochs.window_ticks_mean", "ticks",
                      ratio(stat("epochs", "windowTicks"), windows)});
        count("epochs.merge_entries", "epochs", "mergeEntries");
        pl.push_back({"epochs.skipped_frac", "ratio",
                      ratio(stat("epochs", "skippedRegions"),
                            region_windows)});
        count("epochs.widenings", "epochs", "widenings");
        count("epochs.shrinks", "epochs", "shrinks");
    }

    count("cpu.instructions", "core", "instructions");
    pl.push_back({"cpu.sim_cycles", "cycles", sum([](const StepOutcome &s) {
                      return s.result.results.cycles;
                  })});
    pl.push_back({"cpu.sync_cycles", "cycles",
                  sum([](const StepOutcome &s) {
                      return s.result.results.phaseCycles[std::size_t(
                          ExecPhase::Sync)];
                  })});
    count("cpu.rob_stalls", "core", "robStalls");

    count("mem.l1d_accesses", "l1d", "accesses");
    pl.push_back({"mem.l1d_miss_ratio", "ratio",
                  ratio(stat("l1d", "misses"), stat("l1d", "accesses"))});
    pl.push_back({"mem.l2_hit_ratio", "ratio",
                  ratio(stat("dir", "l2Hits"),
                        stat("dir", "l2Hits") + stat("dir", "l2Misses"))});
    pl.push_back({"mem.dir_txns", "count", sum([](const StepOutcome &s) {
                      return s.result.results.counters.dirTxns;
                  })});
    count("mem.dir_queued_requests", "dir", "queuedRequests");
    mean("mem.dir_txn_latency_mean", "dir", "txnLatency");
    count("mem.memctrl_reads", "memctrl", "reads");
    count("mem.memctrl_writes", "memctrl", "writes");

    count("coh.filter_lookups", "coh", "filterLookups");
    pl.push_back({"coh.filter_hit_ratio", "ratio",
                  ratio(stat("coh", "filterHits"),
                        stat("coh", "filterHits") +
                            stat("coh", "filterMisses"))});
    mean("coh.resolve_latency_mean", "coh", "resolveLatency");
    count("coh.remote_spm_served", "core", "guardedRemoteSpm");
    count("coh.fdir_broadcasts", "fdir", "broadcasts");
    count("coh.homeagent_crossings", "homeagent", "crossings");
    mean("coh.homeagent_txn_latency_mean", "homeagent", "txnLatency");

    pl.push_back({"spm.dma_lines", "count", sum([](const StepOutcome &s) {
                      return s.result.results.counters.dmaLines;
                  })});
    mean("spm.dmac_line_latency_mean", "dmac", "lineLatency");
    count("spm.dmac_cmd_queue_full", "dmac", "cmdQueueFull");

    pl.push_back({"noc.packets", "count", sum([](const StepOutcome &s) {
                      return s.result.results.traffic.totalPackets();
                  })});
    pl.push_back({"noc.flit_hops", "count", sum([](const StepOutcome &s) {
                      return s.result.results.traffic.flitHops;
                  })});
    pl.push_back({"noc.coh_packets", "count",
                  sum([](const StepOutcome &s) {
                      return s.result.results.traffic.packets[std::size_t(
                          TrafficClass::CohProt)];
                  })});
    mean("noc.iclink_queue_delay_mean", "iclink", "queueDelay");
}

/**
 * Time a fixed CPU-bound probe: eight independent multiply chains
 * (the core's issue rate) and a branchy read-modify-write walk over a
 * 1 MiB table (the core's L1/L2), geometric mean of the two, in
 * seconds. On a shared virtual machine other tenants' load can slow
 * all code on a vCPU by up to 2x, in phases of seconds to minutes; the
 * probe slows with it, and since it does not use the simulator, a
 * change to the simulator does not move it.
 */
double
hostSpeedProbe()
{
    static std::vector<std::uint32_t> table(256 * 1024);
    const auto t0 = Clock::now();
    std::uint64_t a[8] = {1, 2, 3, 4, 5, 6, 7, 8};
    for (int i = 0; i < 5'000'000; ++i)
        for (std::uint64_t &x : a)
            x = x * 6364136223846793005ull + 1442695040888963407ull;
    const auto t1 = Clock::now();
    std::uint32_t x = 1;
    std::uint64_t sum = a[0] ^ a[7];
    for (int i = 0; i < 4'000'000; ++i) {
        x ^= x << 13;
        x ^= x >> 17;
        x ^= x << 5;
        std::uint32_t &e = table[x & (table.size() - 1)];
        if (e & 1)
            e += x;
        else
            e ^= x >> 3;
        sum += e;
    }
    probeSink = sum;
    return std::sqrt(seconds(t1 - t0) * seconds(Clock::now() - t1));
}

/** Host timings of one complete repetition of the experiment set. */
struct RepSample
{
    bool traced = false;
    double wallS = 0;
    double setupS = 0;
    double runS = 0;
    double instructions = 0;
    double monoRunS = 0;
    double monoEvents = 0;
    /** Span self times summed per span name, in seconds. */
    std::map<std::string, double> selfS;
};

/** Metric name of a span's self time. */
std::string
spanMetric(const std::string &span)
{
    return span == "system.run" ? span + "_s" : span + "_ms";
}

} // namespace

// ------------------------------------------------------------ workloads

ExperimentSpec
BenchSpec::spec() const
{
    ExperimentBuilder eb;
    eb.workload(workload)
        .mode(SystemMode::HybridProto)
        .cores(cores)
        .chips(chips)
        .scale(scale)
        .workloadParams(wparams)
        .simThreads(simThreads);
    if (simThreads > 0)
        eb.simWindow(0, autoWindowMax);
    return eb.spec();
}

BenchSpec
BenchSpec::monolithic() const
{
    BenchSpec m = *this;
    m.simThreads = 0;
    return m;
}

std::string
BenchSpec::label() const
{
    ExperimentSpec s;
    s.workload = workload;
    s.cores = cores;
    s.chips = chips;
    s.scale = scale;
    s.wparams = wparams;
    std::string out = s.label();
    if (simThreads > 0)
        out += "/st" + std::to_string(simThreads);
    return out;
}

const std::vector<WorkloadDef> &
workloads()
{
    // Why each workload exists is recorded in perfbench/README.md.
    static const std::vector<WorkloadDef> defs = [] {
        const BenchSpec cg{"CG", {}, 256, 1, cgScale};
        BenchSpec cg_par = cg;
        cg_par.simThreads = parThreads;

        // Per-kernel problem scales keep the set near 3 s, so a run
        // holds 10+ repetitions, as for CG. contend stays at full
        // scale: it is cheap and sets the workload's cycle error
        // (36.2% there, 37.7% at half scale).
        WorkloadParams aliased;
        aliased.set("aliased", 1);
        std::vector<BenchSpec> kern;
        for (const BenchSpec &k :
             {BenchSpec{"contend", {}, 64},
              BenchSpec{"gather", aliased, 64, 1, 0.5},
              BenchSpec{"pipeline", {}, 64, 1, 0.5},
              BenchSpec{"xpipeline", {}, 64, 2, 0.25}}) {
            kern.push_back(k);
            BenchSpec par = k;
            par.simThreads = parThreads;
            kern.push_back(par);
        }
        return std::vector<WorkloadDef>{
            {"cg256-mono",
             "CG at 256 cores on the monolithic engine: event queue, "
             "DMA, mesh and memory-controller hot path",
             {cg}},
            {"cg256-par",
             "the same CG spec on the partitioned engine at 4 threads: "
             "epoch loop, merge and per-region pools",
             {cg_par}},
            {"kern64",
             "contend, aliased gather, pipeline and 2-chip xpipeline at "
             "64 cores on both engines: coherence layers and fidelity",
             kern},
        };
    }();
    return defs;
}

const WorkloadDef *
findWorkload(const std::string &name)
{
    for (const WorkloadDef &w : workloads())
        if (w.name == name)
            return &w;
    return nullptr;
}

// -------------------------------------------------------------- tracing

std::int32_t
Tracer::begin(const char *name, std::uint32_t experiment)
{
    if (!enabled)
        return -1;
    Span s;
    s.name = name;
    s.startNs = (Clock::now() - origin).count();
    s.parent = open.empty() ? -1 : open.back();
    s.experiment = experiment;
    recorded.push_back(std::move(s));
    open.push_back(static_cast<std::int32_t>(recorded.size() - 1));
    return open.back();
}

void
Tracer::end(std::int32_t id)
{
    if (id < 0)
        return;
    recorded[id].endNs = (Clock::now() - origin).count();
    open.pop_back();
}

std::vector<std::int64_t>
selfTimesNs(const std::vector<Span> &spans)
{
    std::vector<std::int64_t> self(spans.size());
    for (std::size_t i = 0; i < spans.size(); ++i)
        self[i] = spans[i].endNs - spans[i].startNs;
    for (const Span &s : spans)
        if (s.parent >= 0)
            self[s.parent] -= s.endNs - s.startNs;
    return self;
}

void
writeChromeTrace(std::ostream &os, const std::vector<Span> &spans)
{
    JsonWriter w(os);
    w.beginObject().key("traceEvents").beginArray();
    for (std::size_t i = 0; i < spans.size(); ++i) {
        const Span &s = spans[i];
        w.beginObject();
        w.key("name").value(s.name);
        w.key("cat").value(s.name.substr(0, s.name.find('.')));
        w.key("ph").value("X");
        w.key("ts").value(double(s.startNs) / 1e3);
        w.key("dur").value(double(s.endNs - s.startNs) / 1e3);
        w.key("pid").value(std::uint32_t(1));
        w.key("tid").value(std::uint32_t(1));
        w.key("args").beginObject();
        w.key("id").value(std::uint64_t(i));
        w.key("parent").value(std::int64_t(s.parent));
        w.key("experiment").value(s.experiment);
        w.endObject();
        w.endObject();
    }
    w.endArray().key("displayTimeUnit").value("ms").endObject();
    os << '\n';
}

// ------------------------------------------------------ experiment path

std::string
serialize(const ExperimentResult &r)
{
    std::ostringstream os;
    const auto sink = makeResultSink(ResultFormat::Json, os, true);
    sink->begin("");
    sink->add(r);
    sink->end();
    return os.str();
}

StepOutcome
runSteps(const BenchSpec &b, std::optional<std::uint64_t> seed,
         Tracer &tr, std::uint32_t exp)
{
    StepOutcome out;
    ExperimentResult &er = out.result;
    const auto t0 = Clock::now();
    SpanScope root(tr, "driver.experiment", exp);
    {
        SpanScope sp(tr, "driver.spec", exp);
        er.spec = b.spec();
        er.params = er.spec.resolvedParams();
    }
    const ExperimentSpec &spec = er.spec;

    const auto t_setup = Clock::now();
    ProgramDecl prog;
    {
        SpanScope sp(tr, "workloads.build", exp);
        prog = WorkloadRegistry::global().build(
            spec.workload, spec.cores, spec.scale, spec.wparams);
        if (seed)
            prog.seed = *seed;
    }
    PreparedProgram pp;
    {
        SpanScope sp(tr, "runtime.prepare", exp);
        pp = prepareProgram(prog, spec.cores, er.params.spmBytes);
    }
    if (spec.simThreads > 0) {
        SpanScope sp(tr, "system.region_cuts", exp);
        er.params.simThreads = spec.simThreads;
        er.params.regionCuts = deriveRegionCuts(
            er.params.mesh.width, er.params.mesh.height,
            defaultMaxRegions, pp.schedule.regionCutCandidates(),
            er.params.mesh.chips);
        if (spec.simWindow > 0)
            er.params.simWindowTicks = spec.simWindow;
        if (spec.simWindowMax > 0)
            er.params.simWindowMaxTicks = spec.simWindowMax;
    }
    std::unique_ptr<System> sys;
    {
        SpanScope sp(tr, "system.ctor", exp);
        sys = std::make_unique<System>(er.params);
    }
    std::vector<std::unique_ptr<OpSource>> sources;
    {
        SpanScope sp(tr, "runtime.sources", exp);
        sources = makeSources(pp, spec.cores, spec.mode,
                              er.params.spmBytes);
    }

    const auto t_run = Clock::now();
    out.times.setupS = seconds(t_run - t_setup);
    bool done = false;
    {
        SpanScope sp(tr, "system.run", exp);
        done = sys->run(std::move(sources));
    }
    const auto t_run_end = Clock::now();
    if (!done)
        fatal("experiment " + spec.label() +
              ": simulation did not complete (deadlock guard)");

    {
        SpanScope sp(tr, "driver.snapshot", exp);
        er.results = sys->results();
        er.stats = snapshotStats(*sys);
    }
    out.events = sys->events().executed();
    out.regions = sys->numRegions();
    {
        SpanScope sp(tr, "system.dtor", exp);
        sys.reset();
    }
    {
        SpanScope sp(tr, "driver.sink", exp);
        out.json = serialize(er);
    }
    const auto t_end = Clock::now();
    out.times.wallS = seconds(t_end - t0);
    out.times.runS = seconds(t_run_end - t_run);
    return out;
}

// ---------------------------------------------------------------- runner

WorkloadReport
runWorkload(const WorkloadDef &w, const RunOptions &o)
{
    WorkloadReport r;
    r.workload = w.name;
    r.seed = o.seed;
    r.seconds = o.seconds;
    r.trace = o.trace;

    Tracer off(false);
    Tracer tracer(o.trace);
    std::uint32_t next_exp = 0;

    auto fail = [&](const std::string &msg) {
        ++r.failed;
        r.failures.push_back(msg);
    };
    auto attempt = [&](const BenchSpec &b, std::uint32_t rep,
                       Tracer &t) -> std::optional<StepOutcome> {
        ++r.attempted;
        try {
            StepOutcome out = runSteps(b, o.seed, t, next_exp++);
            if (o.perturb) {
                o.perturb(rep, b, out.result);
                out.json = serialize(out.result);
            }
            return out;
        } catch (const std::exception &e) {
            fail(b.label() + " repetition " + std::to_string(rep) +
                 ": " + e.what());
            return std::nullopt;
        }
    };

    // Monolithic references of the partitioned specs, and the first
    // result (serialized and structured) of every spec in the set.
    std::map<std::string, StepOutcome> refs;
    std::map<std::string, StepOutcome> first;
    for (const BenchSpec &b : w.specs) {
        if (b.simThreads == 0)
            continue;
        const BenchSpec m = b.monolithic();
        const bool in_set =
            std::any_of(w.specs.begin(), w.specs.end(),
                        [&](const BenchSpec &s) {
                            return s.label() == m.label();
                        });
        if (in_set || refs.count(m.label()))
            continue;
        // One untimed run, outside the measured repetitions.
        if (auto out = attempt(m, 0, off))
            refs.emplace(m.label(), std::move(*out));
    }

    auto check = [&](const BenchSpec &b, std::uint32_t rep,
                     StepOutcome &out) {
        const std::string label = b.label();
        const auto f = first.find(label);
        if (f == first.end()) {
            if (b.simThreads == 0)
                refs.emplace(label, out);
            first.emplace(label, std::move(out));
            return true;
        }
        if (out.json != f->second.json) {
            fail(label + " repetition " + std::to_string(rep) +
                 ": results differ from the first repetition");
            return false;
        }
        return true;
    };
    auto check_engines = [&](const BenchSpec &b, std::uint32_t rep,
                             const StepOutcome &out) {
        if (b.simThreads == 0)
            return true;
        const auto ref = refs.find(b.monolithic().label());
        if (ref == refs.end()) {
            fail(b.label() + " repetition " + std::to_string(rep) +
                 ": no monolithic reference to check against");
            return false;
        }
        const auto want = ref->second.result.results.counters.instructions;
        const auto got = out.result.results.counters.instructions;
        if (got != want) {
            fail(b.label() + " repetition " + std::to_string(rep) +
                 ": retired " + std::to_string(got) +
                 " instructions, the monolithic engine " +
                 std::to_string(want));
            return false;
        }
        return true;
    };

    std::vector<RepSample> samples;
    // Untraced, per experiment: wall and run time of each passing
    // repetition, and the instructions it retired.
    const std::size_t n_specs = w.specs.size();
    std::vector<std::vector<double>> spec_wall(n_specs), spec_run(n_specs);
    std::vector<double> spec_instructions(n_specs, 0);
    double probe = hostSpeedProbe();
    const auto start = Clock::now();
    // A much slower program still ends a run in bounded time.
    const double cap = 5 * o.seconds;
    for (std::uint32_t rep = 0;; ++rep) {
        const bool traced = o.trace && rep % 2 == 1;
        RepSample s;
        s.traced = traced;
        Tracer &t = traced ? tracer : off;
        const std::size_t span_base = t.spans().size();
        bool complete = true;
        for (std::size_t i = 0; i < n_specs; ++i) {
            const BenchSpec &b = w.specs[i];
            std::optional<StepOutcome> out = attempt(b, rep, t);
            // Every end-to-end time is in reference-host seconds: the
            // experiment's host time scaled by the probes around it.
            const double probe_after = hostSpeedProbe();
            const double speed = probeRefS / std::sqrt(probe * probe_after);
            probe = probe_after;
            if (!out) {
                complete = false;
                continue;
            }
            StepTimes times = out->times;
            times.wallS *= speed;
            times.setupS *= speed;
            times.runS *= speed;
            const double instructions =
                double(out->result.results.counters.instructions);
            s.wallS += times.wallS;
            s.setupS += times.setupS;
            s.runS += times.runS;
            s.instructions += instructions;
            if (b.simThreads == 0) {
                s.monoRunS += times.runS;
                s.monoEvents += double(out->events);
            }
            const bool engines_ok = check_engines(b, rep, *out);
            const bool ok = check(b, rep, *out) && engines_ok;
            complete = complete && ok;
            if (ok && !traced) {
                spec_wall[i].push_back(times.wallS);
                spec_run[i].push_back(times.runS);
                spec_instructions[i] = instructions;
            }
        }
        if (traced) {
            const std::vector<Span> &spans = t.spans();
            const std::vector<std::int64_t> self = selfTimesNs(spans);
            for (std::size_t i = span_base; i < spans.size(); ++i)
                s.selfS[spans[i].name] += double(self[i]) / 1e9;
        }
        if (complete) {
            if (traced)
                ++r.tracedReps;
            else
                ++r.reps;
            samples.push_back(std::move(s));
        }

        const std::uint32_t done = rep + 1;
        const std::uint32_t each = o.trace ? (done + 1) / 2 : done;
        const double elapsed = seconds(Clock::now() - start);
        const bool enough = elapsed >= o.seconds &&
            each >= minReps && (!o.trace || done % 2 == 0);
        const bool capped = cap > 0 && elapsed >= cap &&
            done >= (o.trace ? 2u : 1u);
        if (enough || capped)
            break;
    }
    r.spans = tracer.spans();

    // ---------------------------------------------- end-to-end metrics
    std::vector<double> wall, setup, mips, traced_wall;
    for (const RepSample &s : samples) {
        if (s.traced) {
            traced_wall.push_back(s.wallS);
            continue;
        }
        wall.push_back(s.wallS);
        setup.push_back(s.setupS);
        mips.push_back(ratio(s.instructions, s.runS) / 1e6);
    }
    // Each experiment at its median scaled time, summed over the set.
    double wall_scaled = 0, run_scaled = 0, instructions = 0;
    for (std::size_t i = 0; i < n_specs; ++i) {
        if (spec_wall[i].empty())
            continue;
        wall_scaled += median(spec_wall[i]);
        run_scaled += median(spec_run[i]);
        instructions += spec_instructions[i];
    }
    double cycle_err = 0;
    for (const BenchSpec &b : w.specs) {
        const auto f = first.find(b.label());
        const auto ref = refs.find(b.monolithic().label());
        if (b.simThreads == 0 || f == first.end() || ref == refs.end())
            continue;
        cycle_err = std::max(
            cycle_err, errPct(double(f->second.result.results.cycles),
                              double(ref->second.result.results.cycles)));
    }
    r.samples = {{"wall_s", wall}, {"setup_s", setup}, {"sim_mips", mips}};
    r.endToEnd = {
        {"wall_s", "s", wall_scaled},
        {"setup_s", "s", median(setup)},
        {"sim_mips", "MIPS", ratio(instructions, run_scaled) / 1e6},
        {"peak_rss_mb", "MB", peakRssMb()},
        {"cycle_err_pct", "%", cycle_err},
        {"fail_frac", "ratio",
         ratio(double(r.failed), double(r.attempted))},
    };

    // ------------------------------------------------ per-layer metrics
    std::vector<Metric> &pl = r.perLayer;
    if (o.trace) {
        // Span self times, in call order of the first traced rep.
        std::vector<std::string> names;
        for (const Span &s : r.spans)
            if (std::find(names.begin(), names.end(), s.name) ==
                names.end())
                names.push_back(s.name);
        for (const std::string &n : names) {
            std::vector<double> v;
            for (const RepSample &s : samples)
                if (s.traced) {
                    const auto it = s.selfS.find(n);
                    v.push_back(it == s.selfS.end() ? 0 : it->second);
                }
            const bool in_s = n == "system.run";
            pl.push_back({spanMetric(n), in_s ? "s" : "ms",
                          median(v) * (in_s ? 1 : 1e3)});
        }
        r.traceOverheadPct = ratio(median(traced_wall) - median(wall),
                                   median(wall)) * 100;
    }

    // Model counters: deterministic, from each spec's first result.
    std::vector<const StepOutcome *> runs;
    for (const BenchSpec &b : w.specs)
        if (const auto f = first.find(b.label()); f != first.end())
            runs.push_back(&f->second);
    std::uint32_t regions = 0;
    for (const StepOutcome *s : runs)
        regions = std::max(regions, s->regions);
    pl.push_back({"system.regions", "count", double(regions)});

    const bool any_mono =
        std::any_of(w.specs.begin(), w.specs.end(),
                    [](const BenchSpec &b) { return b.simThreads == 0; });
    if (any_mono) {
        double events = 0;
        for (const StepOutcome *s : runs)
            events += s->regions == 0 ? double(s->events) : 0;
        pl.push_back({"sim.events", "count", events});
        if (o.trace) {
            std::vector<double> v;
            for (const RepSample &s : samples)
                if (s.traced)
                    v.push_back(ratio(s.monoRunS, s.monoEvents) * 1e9);
            pl.push_back({"sim.ns_per_event", "ns", median(v)});
        }
    }
    appendModelMetrics(pl, runs);

    // Fidelity: partitioned against monolithic histogram means.
    std::vector<double> fid(std::size(fidelityMetrics), 0.0);
    bool any_par = false;
    for (const BenchSpec &b : w.specs) {
        const auto f = first.find(b.label());
        const auto ref = refs.find(b.monolithic().label());
        if (b.simThreads == 0 || f == first.end() || ref == refs.end())
            continue;
        any_par = true;
        for (std::size_t k = 0; k < fid.size(); ++k) {
            const FidelityMetric &m = fidelityMetrics[k];
            fid[k] = std::max(
                fid[k],
                errPct(histogramMean(f->second.result.stats, m.group,
                                     m.histogram),
                       histogramMean(ref->second.result.stats, m.group,
                                     m.histogram)));
        }
    }
    if (any_par)
        for (std::size_t k = 0; k < fid.size(); ++k)
            pl.push_back({fidelityMetrics[k].name, "%", fid[k]});
    return r;
}

// ---------------------------------------------------------------- output

void
printReport(std::ostream &os, const WorkloadReport &r)
{
    char buf[200];
    std::snprintf(buf, sizeof(buf),
                  "perfbench %s: seed %s, %.0f s, %u repetitions "
                  "(+%u traced), %llu experiments, %llu failed\n",
                  r.workload.c_str(),
                  r.seed ? std::to_string(*r.seed).c_str() : "registry",
                  r.seconds, r.reps, r.tracedReps,
                  static_cast<unsigned long long>(r.attempted),
                  static_cast<unsigned long long>(r.failed));
    os << buf;
    for (const std::string &f : r.failures)
        os << "  FAILED " << f << '\n';
    auto section = [&](const char *title, const std::vector<Metric> &ms) {
        os << title << '\n';
        for (const Metric &m : ms) {
            std::snprintf(buf, sizeof(buf), "  %-38s %16.6g %s",
                          m.name.c_str(), m.value, m.unit.c_str());
            os << buf;
            if (const auto it = r.samples.find(m.name);
                it != r.samples.end()) {
                os << "  (of " << it->second.size() << ":";
                for (double v : it->second) {
                    std::snprintf(buf, sizeof(buf), " %.4g", v);
                    os << buf;
                }
                os << ')';
            }
            os << '\n';
        }
    };
    section("end-to-end", r.endToEnd);
    if (r.traceOverheadPct) {
        std::snprintf(buf, sizeof(buf),
                      "tracing overhead (traced against untraced "
                      "repetitions, median wall): %.3g %%\n",
                      *r.traceOverheadPct);
        os << buf;
    }
    section(r.trace ? "per-layer (self times from the traced repetitions)"
                    : "per-layer (model counters; --trace 1 adds "
                      "self times)",
            r.perLayer);
}

void
printResultLine(std::ostream &os, const WorkloadReport &r)
{
    JsonWriter w(os);
    w.beginObject();
    w.key("correct").value(r.failed == 0 && r.reps > 0);
    w.key("attempted").value(r.attempted);
    w.key("failed").value(r.failed);
    w.key("metrics").beginObject();
    for (const Metric &m : r.trace ? r.perLayer : r.endToEnd) {
        w.key(m.name).beginObject();
        w.key("value").value(m.value);
        w.key("unit").value(m.unit);
        w.endObject();
    }
    w.endObject();
    w.key("workload").value(r.workload);
    if (r.seed)
        w.key("seed").value(*r.seed);
    else
        w.key("seed").value("registry");
    w.endObject();
    os << '\n';
}

} // namespace perfbench
