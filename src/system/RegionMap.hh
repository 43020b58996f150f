/**
 * @file
 * Region cut derivation for the partitioned simulation core.
 *
 * Regions are contiguous bands of whole mesh rows (tiles are laid
 * out row-major), so a partition is fully described by its interior
 * cut rows. Cuts are derived from the machine topology and — when
 * the workload's phase graph is available — snapped to core-group
 * boundaries, so kernels that synchronize tightly tend to land in
 * one region and cross-region traffic concentrates at phase
 * barriers, where the epoch merge is cheapest.
 *
 * Crucially, the derivation never looks at how many worker threads
 * will execute the partition: the region structure is a pure
 * function of (mesh, target region count, phase graph), which is
 * what makes results byte-identical across --sim-threads values.
 */

#ifndef SPMCOH_SYSTEM_REGIONMAP_HH
#define SPMCOH_SYSTEM_REGIONMAP_HH

#include <cstdint>
#include <vector>

namespace spmcoh
{

/** Default ceiling on regions per machine (callers may override).
 *  Raised from 8 to 16 once the epoch merge went sharded: the
 *  single-threaded slice of each epoch no longer grows with the
 *  region count, and drained regions are skipped rather than
 *  scanned-and-barriered, so wider machines (32x32 = 1024 cores)
 *  can hand a full 16 row bands to the workers. Still snapped to
 *  phase-graph and chip boundaries by deriveRegionCuts. */
constexpr std::uint32_t defaultMaxRegions = 16;

/**
 * Interior cut tile indices for up to @p target_regions even row
 * bands of a @p width x @p height mesh. Fewer than two feasible
 * bands yields an empty result (run as one region). On a multi-chip
 * fabric (@p chips > 1, chips stacked in tile-id space) every chip
 * boundary is a mandatory cut — a region may never straddle two
 * chips — and the remaining budget splits evenly inside each chip.
 */
std::vector<std::uint32_t>
evenRegionCuts(std::uint32_t width, std::uint32_t height,
               std::uint32_t target_regions, std::uint32_t chips = 1);

/**
 * Like evenRegionCuts, but each cut snaps to the nearest row
 * boundary in @p aligned_cores — core indices at which some phase-
 * graph group begins or ends (PhaseSchedule::regionCutCandidates).
 * A candidate aligns with a row boundary when it is a multiple of
 * @p width; candidates that are not row-aligned are ignored. When
 * no candidate is usable for a cut, the even cut is kept. Cuts are
 * strictly increasing; ties in distance prefer the lower row.
 * Chip boundaries (@p chips > 1) are always cut, whatever the
 * target or candidate set — cross-chip traffic must flow through
 * the epoch merge for the inter-chip link state to stay
 * single-threaded.
 */
std::vector<std::uint32_t>
deriveRegionCuts(std::uint32_t width, std::uint32_t height,
                 std::uint32_t target_regions,
                 const std::vector<std::uint32_t> &aligned_cores,
                 std::uint32_t chips = 1);

} // namespace spmcoh

#endif // SPMCOH_SYSTEM_REGIONMAP_HH
