#include "corona/context.hh"

#include <algorithm>

#include "corona/exec_plan.hh"
#include "sim/logging.hh"

namespace corona::core {

SimContext::SimContext(const SystemConfig &config, unsigned sim_threads)
{
    if (sim_threads > 0) {
        const unsigned shards = static_cast<unsigned>(
            std::min<std::size_t>(sim_threads, config.clusters));
        const sim::Tick lookahead = lookaheadTicks(config);
        if (lookahead == 0)
            sim::fatal("SimContext: configuration has no lookahead; "
                       "effectiveSimThreads() plans such runs serial");
        _exec = std::make_unique<sim::ShardedExecutor>(
            entityShardMap(config, shards), shards, lookahead);
        _simThreads = shards;
        _system = std::make_unique<CoronaSystem>(*_exec, config);
    } else {
        _system = std::make_unique<CoronaSystem>(_eq, config);
    }
}

SimContext &
SystemPool::lease(const SystemConfig &config, unsigned sim_threads)
{
    for (Slot &slot : _slots) {
        // Engine choice is context identity: a sharded system's
        // components live on different queues than a serial one's.
        if (slot.sim_threads == sim_threads &&
            slot.context->config() == config) {
            slot.last_used = ++_clock;
            ++_reuses;
            slot.context->reset();
            return *slot.context;
        }
    }
    if (_slots.size() >= maxContexts) {
        // Evict the least-recently-used context: the pool bounds
        // resident systems while a grid cycling through up to
        // maxContexts configurations (the paper sweeps use 5) still
        // reuses every one.
        const auto victim = std::min_element(
            _slots.begin(), _slots.end(),
            [](const Slot &a, const Slot &b) {
                return a.last_used < b.last_used;
            });
        _slots.erase(victim);
    }
    _slots.push_back(
        Slot{sim_threads,
             std::make_unique<SimContext>(config, sim_threads),
             ++_clock});
    return *_slots.back().context;
}

} // namespace corona::core
