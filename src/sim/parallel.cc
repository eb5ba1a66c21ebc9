#include "sim/parallel.hh"

#include <algorithm>
#include <barrier>
#include <exception>
#include <stdexcept>
#include <thread>
#include <utility>

#include "sim/logging.hh"

namespace corona::sim {

ShardedExecutor::ShardedExecutor(std::vector<std::uint32_t> entity_shard,
                                 std::size_t shards, Tick lookahead)
    : _entityShard(std::move(entity_shard)), _lookahead(lookahead)
{
    if (shards == 0)
        throw std::invalid_argument("ShardedExecutor: need >= 1 shard");
    if (lookahead == 0)
        throw std::invalid_argument(
            "ShardedExecutor: lookahead must be >= 1 tick");
    for (const std::uint32_t shard : _entityShard) {
        if (shard >= shards)
            throw std::invalid_argument(
                "ShardedExecutor: entity mapped past the last shard");
    }
    _queues.reserve(shards);
    for (std::size_t k = 0; k < shards; ++k)
        _queues.push_back(std::make_unique<EventQueue>());
    _lanes.resize(2 * shards * shards);
    _earliest.resize(shards);
    _keyBuffers.resize(shards);
}

void
ShardedExecutor::badEntity()
{
    throw std::out_of_range("ShardedExecutor::post: bad entity");
}

void
ShardedExecutor::belowHorizon()
{
    panic("ShardedExecutor: staged event below the lookahead horizon "
          "(cross-shard latency shorter than the declared lookahead)");
}

void
ShardedExecutor::setTickHook(Tick period, std::function<void(Tick)> hook)
{
    if (period == 0)
        throw std::invalid_argument(
            "ShardedExecutor: tick hook period must be > 0");
    _hookPeriod = period;
    _nextHook = period;
    _hook = std::move(hook);
}

void
ShardedExecutor::clearTickHook()
{
    _hookPeriod = 0;
    _nextHook = 0;
    _hook = nullptr;
}

void
ShardedExecutor::importStaged(std::size_t shard)
{
    const std::size_t gen = _gen ^ 1;
    std::vector<Key> &keys = _keyBuffers[shard].keys;
    keys.clear();
    for (std::size_t from = 0; from < _queues.size(); ++from) {
        const std::vector<Staged> &items = lane(gen, from, shard);
        for (std::size_t pos = 0; pos < items.size(); ++pos)
            keys.push_back(Key{items[pos].when, items[pos].src,
                               static_cast<std::uint32_t>(pos)});
    }
    if (keys.empty())
        return;
    // (when, src, pos) is a total order, and for one source it is
    // post order, so this queue's schedule() sequence is independent
    // of the shard count and of which thread staged first.
    std::sort(keys.begin(), keys.end(), [](const Key &a, const Key &b) {
        if (a.when != b.when)
            return a.when < b.when;
        if (a.src != b.src)
            return a.src < b.src;
        return a.pos < b.pos;
    });
    EventQueue &queue = *_queues[shard];
    for (const Key &key : keys) {
        Staged &item = lane(gen, _entityShard[key.src], shard)[key.pos];
        queue.schedule(key.when, std::move(item.cb));
    }
    for (std::size_t from = 0; from < _queues.size(); ++from)
        lane(gen, from, shard).clear();
}

void
ShardedExecutor::barrierPhase()
{
    Tick next = maxTick;
    for (const auto &queue : _queues)
        next = std::min(next, queue->nextTick());
    for (Earliest &earliest : _earliest) {
        next = std::min(next, earliest.tick);
        earliest.tick = maxTick;
    }

    if (next == maxTick) {
        _done = true;
        return;
    }
    if (_hookPeriod != 0 && _hook) {
        while (_nextHook < next) {
            _hook(_nextHook);
            _nextHook += _hookPeriod;
        }
    }
    Tick end = next + _lookahead;
    if (_hookPeriod != 0 && end > _nextHook + 1)
        end = _nextHook + 1;
    _windowEnd = end;
    _gen ^= 1;
}

Tick
ShardedExecutor::run()
{
    if (_running)
        panic("ShardedExecutor::run: reentered");
    // Cleared on every exit, also when an event throws, so a reset()
    // executor runs again.
    struct Running
    {
        bool &flag;
        ~Running() { flag = false; }
    } running{_running};
    _running = true;
    _done = false;

    // The first window is computed on the calling thread; every later
    // one inside the barrier's completion callback, where all shards
    // are quiescent.
    barrierPhase();

    if (_forceSerial || _queues.size() == 1) {
        while (!_done) {
            for (std::size_t shard = 0; shard < _queues.size(); ++shard) {
                importStaged(shard);
                _queues[shard]->run(_windowEnd - 1);
            }
            barrierPhase();
        }
    } else {
        // An event that throws must not leave its thread: each shard
        // keeps its window's exception, still arrives at the barrier,
        // and the completion step ends the run once any shard failed.
        std::vector<std::exception_ptr> errors(_queues.size());
        const auto failed = [&errors] {
            return std::any_of(errors.begin(), errors.end(),
                               [](const std::exception_ptr &e) {
                                   return e != nullptr;
                               });
        };
        std::barrier sync(static_cast<std::ptrdiff_t>(_queues.size()),
                          [this, &failed]() noexcept {
                              if (failed())
                                  _done = true;
                              else
                                  barrierPhase();
                          });
        auto loop = [this, &sync, &errors](std::size_t shard) {
            while (!_done) {
                try {
                    importStaged(shard);
                    _queues[shard]->run(_windowEnd - 1);
                } catch (...) {
                    errors[shard] = std::current_exception();
                }
                sync.arrive_and_wait();
            }
        };
        std::vector<std::thread> threads;
        threads.reserve(_queues.size() - 1);
        for (std::size_t k = 1; k < _queues.size(); ++k)
            threads.emplace_back(loop, k);
        loop(0);
        for (std::thread &t : threads)
            t.join();
        // The lowest-numbered shard's fault: the one the serial path,
        // which runs a window's shards in order, would report.
        for (const std::exception_ptr &error : errors) {
            if (error)
                std::rethrow_exception(error);
        }
    }
    return now();
}

std::uint64_t
ShardedExecutor::executed() const
{
    std::uint64_t total = 0;
    for (const auto &queue : _queues)
        total += queue->executed();
    return total;
}

bool
ShardedExecutor::empty() const
{
    for (const auto &queue : _queues) {
        if (!queue->empty())
            return false;
    }
    for (const Lane &lane : _lanes) {
        if (!lane.items.empty())
            return false;
    }
    return true;
}

bool
ShardedExecutor::pristine() const
{
    for (const auto &queue : _queues) {
        if (queue->now() != 0 || !queue->empty() ||
            queue->executed() != 0)
            return false;
    }
    for (const Lane &lane : _lanes) {
        if (!lane.items.empty())
            return false;
    }
    return true;
}

Tick
ShardedExecutor::now() const
{
    Tick last = 0;
    for (const auto &queue : _queues)
        last = std::max(last, queue->now());
    return last;
}

void
ShardedExecutor::reset()
{
    for (auto &queue : _queues)
        queue->reset();
    for (Lane &lane : _lanes)
        lane.items.clear();
    for (Earliest &earliest : _earliest)
        earliest.tick = maxTick;
    _gen = 0;
    _windowEnd = 0;
    _done = false;
}

} // namespace corona::sim
