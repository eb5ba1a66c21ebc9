/**
 * @file
 * Per-thread issue engine state.
 *
 * Each of the 1024 hardware threads drives a restricted-open-loop miss
 * stream: misses are separated by the workload's think time (measured
 * issue to issue), a per-thread window bounds memory-level parallelism
 * (a modern non-blocking L2 overlaps several misses per thread), and the
 * cluster MSHR file bounds the per-cluster total. ThreadContext is the
 * bookkeeping shared by the simulation driver and tests.
 */

#ifndef CORONA_WORKLOAD_THREAD_MODEL_HH
#define CORONA_WORKLOAD_THREAD_MODEL_HH

#include <cstddef>

#include "topology/geometry.hh"

namespace corona::workload {

/** Issue-engine state of one hardware thread. */
class ThreadContext
{
  public:
    /**
     * @param id Global thread id.
     * @param cluster Owning cluster.
     * @param window Maximum outstanding misses for this thread.
     */
    ThreadContext(std::size_t id, topology::ClusterId cluster,
                  std::size_t window);

    std::size_t id() const { return _id; }
    topology::ClusterId cluster() const { return _cluster; }
    std::size_t window() const { return _window; }

    std::size_t outstanding() const { return _outstanding; }
    bool windowFull() const { return _outstanding >= _window; }

    /** Record an issued miss. */
    void issued() { ++_outstanding; }

    /** Record a returned fill. */
    void completed();

    /** True while the thread is parked waiting for window space. */
    bool waitingForWindow() const { return _waitingForWindow; }
    void setWaitingForWindow(bool waiting) { _waitingForWindow = waiting; }

  private:
    std::size_t _id;
    topology::ClusterId _cluster;
    std::size_t _window;
    std::size_t _outstanding = 0;
    bool _waitingForWindow = false;
};

} // namespace corona::workload

#endif // CORONA_WORKLOAD_THREAD_MODEL_HH
