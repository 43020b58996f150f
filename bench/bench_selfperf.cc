/**
 * @file
 * Simulator self-performance harness: wall-clock cost per simulated
 * cycle on a fixed experiment pair (CG and pipeline, 8 cores,
 * hybrid-proto). Unlike every other harness in bench/, this one
 * measures the simulator itself, not the simulated machine — it is
 * the regression baseline for "did this refactor slow the event
 * loop down". The checked-in BENCH_selfperf.json at the repo root
 * holds one reference capture; re-run after substantial core/mem
 * changes and compare nsPerSimCycle.
 *
 *   bench_selfperf [--reps=N] [--out=FILE]
 *
 * Each experiment is compiled once, run untimed once (warm-up),
 * then run N times (default 3); the fastest repetition is reported
 * to suppress scheduler noise. Output is JSON only.
 */

#include <chrono>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <optional>
#include <thread>

#include "BenchUtil.hh"
#include "driver/Json.hh"

#ifndef SPMCOH_BUILD_TYPE
#define SPMCOH_BUILD_TYPE "unknown"
#endif

using namespace spmcoh;

namespace
{

struct Sample
{
    std::string name;
    std::uint64_t simCycles = 0;
    std::uint64_t wallUs = 0;
    std::uint64_t nsPerSimCycle = 0;
};

Sample
measure(const ExperimentSpec &spec, std::uint32_t reps)
{
    runExperiment(spec);  // warm-up: page in code + allocator state
    double best_ms = 0.0;
    std::uint64_t cycles = 0;
    for (std::uint32_t r = 0; r < reps; ++r) {
        const auto t0 = std::chrono::steady_clock::now();
        const ExperimentResult res = runExperiment(spec);
        const auto t1 = std::chrono::steady_clock::now();
        const double ms =
            std::chrono::duration<double, std::milli>(t1 - t0)
                .count();
        cycles = res.results.cycles;
        if (r == 0 || ms < best_ms)
            best_ms = ms;
    }
    Sample s;
    s.name = spec.label();
    s.simCycles = cycles;
    // Integer us / ns keep the checked-in JSON diff-stable across
    // double-formatting quirks.
    s.wallUs =
        static_cast<std::uint64_t>(std::llround(best_ms * 1e3));
    s.nsPerSimCycle = cycles
        ? static_cast<std::uint64_t>(std::llround(
              best_ms * 1e6 / static_cast<double>(cycles)))
        : 0;
    return s;
}

} // namespace

int
main(int argc, char **argv)
{
    std::uint32_t reps = 3;
    std::uint32_t cores = 8;
    std::uint32_t chips = 1;
    std::uint32_t sim_threads = 0;
    std::optional<SimWindowSetting> window;
    std::string out_file;
    std::vector<std::string> errs;
    // A count flag: a 32-bit integer of at least @p min.
    const auto count = [&errs](const std::string &flag,
                               const std::string &v, std::uint32_t min,
                               std::uint32_t &out) {
        const auto n = parseUint32(v);
        if (!n || *n < min)
            errs.push_back("bad " + flag + " value '" + v +
                           "' (expected an integer >= " +
                           std::to_string(min) + ")");
        else
            out = *n;
    };
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        std::optional<std::string> v;
        if ((v = flagValue(arg, "--reps"))) {
            count("--reps", *v, 1, reps);
        } else if ((v = flagValue(arg, "--cores"))) {
            count("--cores", *v, 1, cores);
        } else if ((v = flagValue(arg, "--chips"))) {
            count("--chips", *v, 1, chips);
        } else if ((v = flagValue(arg, "--sim-threads"))) {
            count("--sim-threads", *v, 0, sim_threads);
        } else if ((v = flagValue(arg, "--sim-window"))) {
            if (const auto w = parseSimWindowFlag(*v, errs))
                window = w;
        } else if ((v = flagValue(arg, "--out"))) {
            if (v->empty())
                errs.push_back("--out needs a file name");
            else
                out_file = *v;
        } else if (arg == "--help") {
            std::printf("simulator wall-clock per simulated cycle "
                        "on fixed CG/pipeline experiments\n"
                        "usage: %s [--reps=N] [--cores=N] "
                        "[--chips=N] [--sim-threads=N] "
                        "[--sim-window=W|auto] [--out=FILE]\n",
                        argv[0]);
            return 0;
        } else {
            errs.push_back("unknown argument '" + arg + "'");
        }
    }
    if (window)
        checkSimWindowThreads(sim_threads, errs);
    benchutil::exitOnErrors(argv[0], errs);
    const SimWindowSetting win = window.value_or(SimWindowSetting{});

    try {
        // Build and validate both experiments before the first byte
        // of output, so a bad shape never leaves half a document.
        std::vector<ExperimentSpec> specs;
        for (const char *wl : {"CG", "pipeline"}) {
            ExperimentBuilder b = ExperimentBuilder()
                                      .workload(wl)
                                      .mode(SystemMode::HybridProto)
                                      .cores(cores)
                                      .chips(chips)
                                      .simThreads(sim_threads);
            if (window)
                b.simWindow(win.window, win.windowMax);
            specs.push_back(b.spec());
        }

        std::ofstream file;
        if (!out_file.empty()) {
            file.open(out_file);
            if (!file) {
                std::fprintf(stderr, "cannot open '%s'\n",
                             out_file.c_str());
                return 2;
            }
        }
        std::ostream &os = file.is_open()
            ? static_cast<std::ostream &>(file)
            : std::cout;

        JsonWriter w(os);
        w.beginObject();
        w.key("bench").value("selfperf");
        w.key("reps").value(reps);
        // Provenance: captures are only comparable within the same
        // build type and experiment shape — which now includes the
        // intra-run thread count (0 = monolithic event loop).
        w.key("buildType").value(SPMCOH_BUILD_TYPE);
        w.key("cores").value(std::uint64_t{cores});
        w.key("chips").value(std::uint64_t{chips});
        w.key("simThreads").value(std::uint64_t{sim_threads});
        // Worker threads only help when the host can actually run
        // them: stamp the hardware thread count so baseline lookups
        // (scripts/check_selfperf.py) never compare a parallel run
        // on a wide host against one captured on a single-core box.
        const unsigned hw = std::thread::hardware_concurrency();
        w.key("hostThreads").value(std::uint64_t{hw ? hw : 1});
        // Epoch window shape (partitioned runs): base width (0 =
        // model default) and adaptive ceiling (0 = fixed window).
        w.key("simWindow").value(std::uint64_t{win.window});
        w.key("simWindowMax").value(std::uint64_t{win.windowMax});
        w.key("experiments").beginArray();
        for (const ExperimentSpec &spec : specs) {
            const Sample s = measure(spec, reps);
            w.beginObject();
            w.key("name").value(s.name);
            w.key("simCycles").value(s.simCycles);
            w.key("wallUs").value(s.wallUs);
            w.key("nsPerSimCycle").value(s.nsPerSimCycle);
            w.endObject();
        }
        w.endArray();
        w.endObject();
        os << '\n';
        os.flush();
        return 0;
    } catch (const FatalError &e) {
        std::fprintf(stderr, "%s\n", e.what());
        return 2;
    }
}
