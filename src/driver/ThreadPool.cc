/**
 * @file
 * Worker-pool batch execution.
 */

#include "driver/ThreadPool.hh"

#include <atomic>
#include <exception>
#include <mutex>
#include <thread>

namespace spmcoh
{

std::uint32_t
hardwareParallelism()
{
    const unsigned n = std::thread::hardware_concurrency();
    return n ? n : 1;
}

void
runJobs(std::uint32_t workers, std::vector<std::function<void()>> jobs)
{
    if (workers == 0)
        workers = hardwareParallelism();
    if (workers == 1 || jobs.size() <= 1) {
        // In order on the calling thread; the first failure
        // propagates and stops the batch.
        for (auto &j : jobs)
            j();
        return;
    }

    // Shared queue is just an atomic cursor over the job vector;
    // each worker claims the next unclaimed index until the queue
    // drains or a job fails.
    std::atomic<std::size_t> next{0};
    std::atomic<bool> failed{false};
    std::mutex errMutex;
    std::size_t errIndex = jobs.size();
    std::exception_ptr errPtr;

    auto worker = [&] {
        while (!failed.load(std::memory_order_relaxed)) {
            const std::size_t i =
                next.fetch_add(1, std::memory_order_relaxed);
            if (i >= jobs.size())
                return;
            try {
                jobs[i]();
            } catch (...) {
                failed.store(true, std::memory_order_relaxed);
                std::lock_guard<std::mutex> lock(errMutex);
                // Keep the lowest-indexed failure: it is the one an
                // in-order run would have thrown.
                if (i < errIndex) {
                    errIndex = i;
                    errPtr = std::current_exception();
                }
            }
        }
    };

    const std::size_t nthreads =
        std::min<std::size_t>(workers, jobs.size());
    std::vector<std::thread> threads;
    threads.reserve(nthreads);
    for (std::size_t t = 0; t < nthreads; ++t)
        threads.emplace_back(worker);
    for (std::thread &t : threads)
        t.join();

    if (errPtr)
        std::rethrow_exception(errPtr);
}

} // namespace spmcoh
