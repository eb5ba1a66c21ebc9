/**
 * @file
 * Reusable simulation contexts.
 *
 * Building a 64-cluster CoronaSystem allocates hundreds of components
 * (channels, arbiters, routers, links, buffers, controllers, hubs);
 * campaign grids at 10k-cell scale used to pay that construction and
 * teardown for every cell. A SimContext bundles the EventQueue with the
 * system it drives, and reset() restores both to the pristine
 * post-construction state — construction involves no randomness, so a
 * reset context is observationally identical to a fresh one and every
 * run on it stays bit-identical.
 *
 * SystemPool caches contexts per configuration for one worker thread:
 * workers lease a context per cell and the pool resets it on each
 * lease, so a sweep revisiting the same configurations (the common
 * workload-major grid shape) reconstructs nothing. The pool is
 * intentionally not thread-safe — each campaign worker owns one.
 */

#ifndef CORONA_CORONA_CONTEXT_HH
#define CORONA_CORONA_CONTEXT_HH

#include <cstdint>
#include <memory>
#include <vector>

#include "corona/system.hh"
#include "obs/registry.hh"
#include "obs/scratch.hh"
#include "sim/event_queue.hh"
#include "sim/parallel.hh"

namespace corona::core {

/**
 * An EventQueue plus the CoronaSystem wired to it.
 *
 * With @p sim_threads > 0 the context instead owns a ShardedExecutor
 * (K lockstep event queues; see sim/parallel.hh) and builds the
 * system across its entity queues. Callers size it with
 * effectiveSimThreads() — the context clamps to the cluster count,
 * and NetworkSimulation refuses a run for which effectiveSimThreads()
 * gives another shard count. The engine choice is part of the
 * context's identity (SystemPool keys on it): a context never
 * switches engines across leases.
 */
class SimContext
{
  public:
    explicit SimContext(const SystemConfig &config,
                        unsigned sim_threads = 0);

    SimContext(const SimContext &) = delete;
    SimContext &operator=(const SimContext &) = delete;

    /** The classic single queue (unused when sharded). */
    sim::EventQueue &eq() { return _eq; }

    /** The sharded executor, or null on the classic engine. */
    sim::ShardedExecutor *executor() { return _exec.get(); }

    /** Effective shard count (0 = classic single-queue engine). */
    unsigned simThreads() const { return _simThreads; }

    CoronaSystem &system() { return *_system; }
    const SystemConfig &config() const { return _system->config(); }

    /** True when no event ever ran and none is pending — the state
     * NetworkSimulation requires of a leased context. */
    bool
    pristine() const
    {
        if (_exec)
            return _exec->pristine();
        return _eq.now() == 0 && _eq.empty() && _eq.executed() == 0;
    }

    /**
     * The cached probe registry for this context. Empty until the
     * first observed run instruments the system into it; after that,
     * reused as-is across leases — the config (and so the probe set)
     * is fixed for the context's lifetime, and the probes read
     * counters that reset() zeroes in place.
     */
    obs::Registry &obsRegistry() { return _obsRegistry; }

    /**
     * The cached tracer ring and sampler buffers. RunObserver reuses
     * these across leases so an observed campaign pays the large
     * observability allocations once per context, not once per run.
     */
    obs::ObsScratch &obsScratch() { return _obsScratch; }

    /** Restore the pristine state of the queue(s) and every
     * component. */
    void
    reset()
    {
        _eq.reset();
        if (_exec)
            _exec->reset();
        _system->reset();
    }

  private:
    sim::EventQueue _eq;
    std::unique_ptr<sim::ShardedExecutor> _exec;
    std::unique_ptr<CoronaSystem> _system;
    unsigned _simThreads = 0;
    obs::Registry _obsRegistry;
    obs::ObsScratch _obsScratch;
};

/**
 * A per-worker cache of SimContexts keyed by configuration (every
 * SystemConfig field, compared with ==) and shard count, bounded by
 * LRU eviction so a config-heavy grid cannot hold an unbounded number
 * of full systems resident.
 */
class SystemPool
{
  public:
    /** Resident-context cap per pool (the paper sweeps cycle through
     * 5 configurations; anything past the cap evicts the
     * least-recently-used system and rebuilds on return). */
    static constexpr std::size_t maxContexts = 8;

    SystemPool() = default;

    SystemPool(const SystemPool &) = delete;
    SystemPool &operator=(const SystemPool &) = delete;

    /**
     * A pristine context for @p config: an existing one reset, or a
     * newly built one. The reference stays valid until the pool
     * evicts it (only a later lease of a different config can) or is
     * destroyed; lease again for the same configuration returns the
     * same context, so at most one run may use it at a time.
     * @p sim_threads is the effective shard count and is part of the
     * pool key: serial and sharded runs of one configuration lease
     * distinct contexts.
     */
    SimContext &lease(const SystemConfig &config,
                      unsigned sim_threads = 0);

    /** Configurations currently resident. */
    std::size_t size() const { return _slots.size(); }

    /** Leases served by an existing context (reset, not rebuilt). */
    std::uint64_t reuses() const { return _reuses; }

  private:
    struct Slot
    {
        /** The shard count leased with; the context clamps its own
         * to the cluster count. */
        unsigned sim_threads = 0;
        std::unique_ptr<SimContext> context;
        std::uint64_t last_used = 0;
    };

    /** Linear scan over <= maxContexts entries beats hashing here. */
    std::vector<Slot> _slots;
    std::uint64_t _clock = 0;
    std::uint64_t _reuses = 0;
};

} // namespace corona::core

#endif // CORONA_CORONA_CONTEXT_HH
