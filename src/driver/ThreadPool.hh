/**
 * @file
 * Batch execution for SweepRunner: runJobs drains a batch of
 * independent jobs on a fixed number of worker threads. Sweep points
 * are independent once the compile phase has run, so the pool needs
 * no work stealing or locking beyond an atomic next-job cursor.
 */

#ifndef SPMCOH_DRIVER_THREADPOOL_HH
#define SPMCOH_DRIVER_THREADPOOL_HH

#include <cstdint>
#include <functional>
#include <vector>

namespace spmcoh
{

/**
 * A sensible default worker count: the hardware thread count, or 1
 * when the platform cannot report it.
 */
std::uint32_t hardwareParallelism();

/**
 * Run every job in @p jobs on @p workers threads (0 =
 * hardwareParallelism()); returns once all claimed jobs finished.
 *
 * - **Job independence.** The caller guarantees jobs are
 *   thread-safe against each other. SweepRunner's are: each builds
 *   its own System, draws from its own deterministic Rngs and writes
 *   only its own pre-allocated result slot, while the shared inputs
 *   (the WorkloadRegistry and the PreparedProgram cache) are
 *   read-only — compilation is hoisted into a serial phase before
 *   the batch runs.
 * - **Ordering.** Jobs are claimed in index order but may complete
 *   in any order on any worker. Results are position-stable (per-job
 *   slots), so a sweep's output is byte-identical whatever the
 *   worker count.
 * - **Exceptions.** When jobs throw (FatalError/PanicError from a
 *   misconfigured or deadlocked point), no further job is handed
 *   out, every worker is joined, and the exception of the
 *   lowest-indexed failed job is rethrown on the calling thread —
 *   the one an in-order run would have surfaced. Jobs already
 *   running when another fails still run to completion.
 *
 * With one worker (or one job) the jobs run in order on the calling
 * thread and no thread is spawned: this is the reference every
 * worker count must reproduce.
 */
void runJobs(std::uint32_t workers,
             std::vector<std::function<void()>> jobs);

} // namespace spmcoh

#endif // SPMCOH_DRIVER_THREADPOOL_HH
