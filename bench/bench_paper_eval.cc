/**
 * @file
 * The paper's evaluation (Sec. 5) as one sweep: the 64-core Table 1
 * machine, run once per distinct point, rendering Figs. 7-11 and the
 * filter-size and prefetcher ablations from the one result vector.
 *
 * The 27 points are three sweeps run by a single runSpecs call:
 *  - the matrix: the six NAS benchmarks x {cache, hybrid-ideal,
 *    hybrid-proto} (Figs. 7-11);
 *  - CG and IS, hybrid-proto, with 4, 16 and 128 filter entries (the
 *    48-entry row is the matrix's Table 1 point);
 *  - FT, MG and SP, cache, with the L1D stride prefetcher off (the
 *    prefetcher-on column is the matrix's cache point).
 *
 * Each table prints the paper's reported range under the model's
 * numbers; docs/reproducing-figures.md ("Expected output shape")
 * says what to look for.
 */

#include <cstdio>

#include "BenchUtil.hh"

using namespace spmcoh;
using namespace spmcoh::benchutil;

namespace
{

using Results = std::vector<ExperimentResult>;

const RunResults &
at(const Results &results, const std::string &w, SystemMode mode,
   const std::string &variant = "")
{
    return findResult(results, w, mode, variant).results;
}

void
fig7(const Results &results)
{
    header("Figure 7: coherence protocol overheads vs ideal "
           "coherence (x)");
    std::printf("%-5s %12s %12s %12s\n", "Bench", "ExecTime",
                "Energy", "NoCtraffic");
    std::vector<double> ot, oe, on;
    for (const std::string &w : nasWorkloads()) {
        const RunResults &ideal =
            at(results, w, SystemMode::HybridIdeal);
        const RunResults &proto =
            at(results, w, SystemMode::HybridProto);
        const double t = double(proto.cycles) / double(ideal.cycles);
        const double e =
            proto.energy.total() / ideal.energy.total();
        const double n = double(proto.traffic.totalPackets()) /
                         double(ideal.traffic.totalPackets());
        ot.push_back(t);
        oe.push_back(e);
        on.push_back(n);
        std::printf("%-5s %12.3f %12.3f %12.3f\n", w.c_str(), t, e,
                    n);
    }
    std::printf("%-5s %12.3f %12.3f %12.3f\n", "gmean", geomean(ot),
                geomean(oe), geomean(on));
    std::printf("\npaper: avg overheads 4%% perf, 9%% energy, "
                "8%% traffic; IS worst (11%% perf), SP lowest\n");
}

void
fig8(const Results &results)
{
    header("Figure 8: filter hit ratio (%)");
    std::printf("%-5s %10s %14s %14s\n", "Bench", "HitRatio",
                "filterHits", "filterMisses");
    for (const std::string &w : nasWorkloads()) {
        const RunResults &r = at(results, w, SystemMode::HybridProto);
        if (r.filterHits + r.filterMisses == 0) {
            std::printf("%-5s %10s %14llu %14llu  (no guarded "
                        "accesses; filters gated off)\n",
                        w.c_str(), "n/a", 0ull, 0ull);
            continue;
        }
        std::printf("%-5s %9.1f%% %14llu %14llu\n", w.c_str(),
                    100.0 * r.filterHitRatio,
                    static_cast<unsigned long long>(r.filterHits),
                    static_cast<unsigned long long>(r.filterMisses));
    }
    std::printf("\npaper: >=97%% for CG/EP/FT/MG, ~92%% for IS, "
                "no guarded accesses in SP\n");
}

void
fig9Bar(const char *label, const RunResults &r, double norm)
{
    const double scale = 1.0 / (norm * evalCores);
    std::printf("  %-3s total %6.3f | control %6.3f  sync %6.3f  "
                "work %6.3f\n",
                label, double(r.cycles) / norm,
                double(r.phaseCycles[0]) * scale,
                double(r.phaseCycles[1]) * scale,
                double(r.phaseCycles[2]) * scale);
}

void
fig9(const Results &results)
{
    header("Figure 9: normalized cycles, cache-based (C) vs hybrid "
           "(H)");
    std::vector<double> speedups;
    for (const std::string &w : nasWorkloads()) {
        const RunResults &c = at(results, w, SystemMode::CacheOnly);
        const RunResults &h = at(results, w, SystemMode::HybridProto);
        const double norm = double(c.cycles);
        std::printf("%s:\n", w.c_str());
        fig9Bar("C", c, norm);
        fig9Bar("H", h, norm);
        const double sp = double(c.cycles) / double(h.cycles);
        speedups.push_back(sp);
        const double work_red =
            1.0 - double(h.phaseCycles[2]) / double(c.phaseCycles[2]);
        std::printf("  speedup %.3fx, work-phase reduction %.1f%%\n",
                    sp, 100.0 * work_red);
    }
    std::printf("\ngeomean speedup: %.3fx  (paper: 1.03x-1.22x, "
                "average 1.14x; work phase -25%%..-43%%)\n",
                geomean(speedups));
}

void
fig10Bar(const char *label, const TrafficCounters &t, double norm)
{
    std::printf("  %-3s total %6.3f |", label,
                double(t.totalPackets()) / norm);
    for (std::size_t c = 0; c < numTrafficClasses; ++c) {
        std::printf(" %s %5.3f",
                    trafficClassName(static_cast<TrafficClass>(c)),
                    double(t.packets[c]) / norm);
    }
    std::printf("\n");
}

void
fig10(const Results &results)
{
    header("Figure 10: normalized NoC packets, cache-based (C) vs "
           "hybrid (H)");
    std::vector<double> reductions;
    for (const std::string &w : nasWorkloads()) {
        const RunResults &c = at(results, w, SystemMode::CacheOnly);
        const RunResults &h = at(results, w, SystemMode::HybridProto);
        const double norm = double(c.traffic.totalPackets());
        std::printf("%s:\n", w.c_str());
        fig10Bar("C", c.traffic, norm);
        fig10Bar("H", h.traffic, norm);
        const double ratio =
            double(h.traffic.totalPackets()) / norm;
        reductions.push_back(ratio);
        std::printf("  traffic ratio H/C = %.3f\n", ratio);
    }
    std::printf("\ngeomean H/C packet ratio: %.3f  (paper: 0.66-0.80 "
                "except EP ~1.0; average 0.71)\n",
                geomean(reductions));
}

void
fig11Bar(const char *label, const EnergyBreakdown &e, double norm)
{
    std::printf("  %-3s total %6.3f | CPUs %5.3f Caches %5.3f "
                "NoC %5.3f Others %5.3f SPMs %5.3f CohProt %5.3f\n",
                label, e.total() / norm, e.cpus / norm,
                e.caches / norm, e.noc / norm, e.others / norm,
                e.spms / norm, e.cohProt / norm);
}

void
fig11(const Results &results)
{
    header("Figure 11: normalized energy, cache-based (C) vs hybrid "
           "(H)");
    std::vector<double> ratios;
    for (const std::string &w : nasWorkloads()) {
        const RunResults &c = at(results, w, SystemMode::CacheOnly);
        const RunResults &h = at(results, w, SystemMode::HybridProto);
        const double norm = c.energy.total();
        std::printf("%s:\n", w.c_str());
        fig11Bar("C", c.energy, norm);
        fig11Bar("H", h.energy, norm);
        const double ratio = h.energy.total() / norm;
        ratios.push_back(ratio);
        std::printf("  energy ratio H/C = %.3f (cache energy "
                    "reduction %.1fx)\n",
                    ratio, c.energy.caches / h.energy.caches);
    }
    std::printf("\ngeomean H/C energy ratio: %.3f  (paper: 0.76-0.87 "
                "except EP 1.03; average 0.83)\n",
                geomean(ratios));
}

/** Filter capacities of the ablation; Table 1's 48 is the matrix's
 *  un-tweaked hybrid-proto point. */
constexpr std::uint32_t filterSizes[] = {4, 16, 48, 128};
constexpr std::uint32_t table1FilterEntries = 48;

std::string
filterVariant(std::uint32_t n)
{
    return n == table1FilterEntries ? "" : "filter" + std::to_string(n);
}

void
filterAblation(const Results &results)
{
    header("Ablation: filter size sweep (hybrid-proto)");
    for (const char *w : {"CG", "IS"}) {
        std::printf("%s:\n", w);
        std::printf("  %8s %10s %12s %14s\n", "entries", "hit%",
                    "cycles", "CohProt pkts");
        for (std::uint32_t n : filterSizes) {
            const ExperimentResult &er = findResult(
                results, w, SystemMode::HybridProto, filterVariant(n));
            if (er.params.coh.filterEntries != n)
                fatal("bench_paper_eval: the " + er.spec.label() +
                      " point does not run " + std::to_string(n) +
                      " filter entries");
            const RunResults &r = er.results;
            std::printf("  %8u %9.1f%% %12llu %14llu\n", n,
                        100.0 * r.filterHitRatio,
                        static_cast<unsigned long long>(r.cycles),
                        static_cast<unsigned long long>(
                            r.traffic.classPackets(
                                TrafficClass::CohProt)));
        }
    }
}

void
prefetcherAblation(const Results &results)
{
    header("Ablation: cache-based baseline prefetcher on/off");
    std::printf("%-5s %14s %14s %10s\n", "Bench", "cycles(pf on)",
                "cycles(pf off)", "pf gain");
    for (const char *w : {"FT", "MG", "SP"}) {
        // The stride prefetcher is on in Table 1's machine.
        const RunResults &on = at(results, w, SystemMode::CacheOnly);
        const RunResults &off =
            at(results, w, SystemMode::CacheOnly, "pf-off");
        std::printf("%-5s %14llu %14llu %9.3fx\n", w,
                    static_cast<unsigned long long>(on.cycles),
                    static_cast<unsigned long long>(off.cycles),
                    double(off.cycles) / double(on.cycles));
    }
}

} // namespace

int
main(int argc, char **argv)
{
    BenchMain bm = parseArgs(
        argc, argv,
        "Paper evaluation: Figs. 7-11 and the filter-size and "
        "prefetcher ablations from one 27-point sweep of the "
        "64-core machine");

    SweepSpec filter = evalSweep({SystemMode::HybridProto});
    filter.workloads = {"CG", "IS"};
    for (std::uint32_t n : filterSizes) {
        if (n == table1FilterEntries)
            continue;
        filter.variants.push_back(SweepVariant{
            filterVariant(n),
            [n](SystemParams &p) { p.coh.filterEntries = n; }});
    }
    SweepSpec prefetcher = evalSweep({SystemMode::CacheOnly});
    prefetcher.workloads = {"FT", "MG", "SP"};
    prefetcher.variants = {SweepVariant{
        "pf-off",
        [](SystemParams &p) { p.l1d.prefetcher.enabled = false; }}};

    std::vector<ExperimentSpec> specs;
    for (const SweepSpec &s :
         {evalSweep({SystemMode::CacheOnly, SystemMode::HybridIdeal,
                     SystemMode::HybridProto}),
          filter, prefetcher}) {
        const std::vector<ExperimentSpec> e = bm.runner.expand(s);
        specs.insert(specs.end(), e.begin(), e.end());
    }

    const auto sink = bm.sink();
    const Results results = bm.runner.runSpecs(
        specs, sink.get(),
        "Paper evaluation: Figs. 7-11, filter-size and prefetcher "
        "ablations");
    if (!bm.table())
        return 0;

    fig7(results);
    fig8(results);
    fig9(results);
    fig10(results);
    fig11(results);
    filterAblation(results);
    prefetcherAblation(results);
    return 0;
}
