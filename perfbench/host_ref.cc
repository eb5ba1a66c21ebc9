// corona-bench-ref: a fixed reference workload that measures how fast the
// host is right now, so run.py can take the host's speed out of its times.
//
//   corona-bench-ref [--threads N]
//
// Each thread runs the same small discrete-event simulation: a binary-heap
// event queue, a hash map of outstanding requests, per-node FIFOs and
// random reads and writes into a 4 MiB table, the mix of work the Corona
// simulator does. The table is twice a core's L2 on the host the
// benchmark was tuned on, so, like the simulator, the reference slows
// down when other tenants take shared cache; references that mostly miss
// to DRAM or mostly compute tracked the simulator worse. The work is
// fixed; it must never change, or every time scaled by it changes with
// it. Prints one line, "checksum <hex>", which is the same on every host
// and for every thread count.

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <deque>
#include <queue>
#include <thread>
#include <unordered_map>
#include <vector>

namespace {

constexpr uint32_t kNodes = 256;
constexpr uint64_t kTableWords = uint64_t{1} << 19;  // 4 MiB of uint64_t
constexpr uint64_t kReadsPerArrival = 8;
constexpr uint64_t kEvents = 1'500'000;

uint64_t mix(uint64_t x) {
  x ^= x >> 33;
  x *= 0xff51afd7ed558ccdULL;
  x ^= x >> 33;
  x *= 0xc4ceb9fe1a85ec53ULL;
  return x ^ (x >> 33);
}

struct Event {
  uint64_t tick;
  uint32_t node;
  uint32_t kind;  // 0 issue, 1 arrive, 2 reply
  uint64_t addr;
  bool operator>(const Event& o) const {
    return tick != o.tick ? tick > o.tick : node > o.node;
  }
};

uint64_t simulate() {
  std::vector<uint64_t> table(kTableWords);
  for (uint64_t i = 0; i < kTableWords; ++i) table[i] = mix(i);
  std::priority_queue<Event, std::vector<Event>, std::greater<Event>> queue;
  std::unordered_map<uint64_t, uint32_t> outstanding;
  std::vector<std::deque<uint64_t>> fifos(kNodes);
  uint64_t rng = 0x9e3779b97f4a7c15ULL, sum = 0;
  for (uint32_t n = 0; n < kNodes; ++n) queue.push({n, n, 0, 0});
  for (uint64_t done = 0; done < kEvents && !queue.empty(); ++done) {
    Event e = queue.top();
    queue.pop();
    rng = mix(rng + e.tick);
    switch (e.kind) {
      case 0: {
        uint64_t addr = rng % kTableWords;
        outstanding[addr * kNodes + e.node] = e.node;
        queue.push({e.tick + 8 + rng % 64, static_cast<uint32_t>(addr % kNodes), 1,
                    addr * kNodes + e.node});
        break;
      }
      case 1: {
        auto it = outstanding.find(e.addr);
        uint64_t word = e.addr / kNodes;
        for (uint64_t k = 0; k < kReadsPerArrival; ++k) {
          uint64_t other = mix(word + k + e.tick) % kTableWords;
          table[other] += table[(other * 7) % kTableWords];
        }
        table[word] = mix(table[word] + e.tick);
        uint32_t home = it == outstanding.end() ? e.node : it->second;
        if (it != outstanding.end()) outstanding.erase(it);
        queue.push({e.tick + 4 + (table[word] & 31), home, 2, table[word]});
        break;
      }
      default: {
        auto& fifo = fifos[e.node];
        fifo.push_back(e.addr);
        if (fifo.size() > 8) {
          sum += fifo.front();
          fifo.pop_front();
        }
        queue.push({e.tick + 1 + (e.addr & 7), e.node, 0, 0});
        break;
      }
    }
  }
  for (uint64_t i = 0; i < kTableWords; i += 4096) sum ^= table[i];
  return sum;
}

}  // namespace

int main(int argc, char** argv) {
  int threads = 1;
  if (argc == 3 && std::strcmp(argv[1], "--threads") == 0) {
    threads = std::atoi(argv[2]);
  } else if (argc != 1) {
    threads = 0;
  }
  if (threads < 1 || threads > 64) {
    std::fprintf(stderr, "usage: corona-bench-ref [--threads N], 1 <= N <= 64\n");
    return 2;
  }
  std::vector<uint64_t> sums(threads);
  std::vector<std::thread> pool;
  for (int t = 0; t < threads; ++t) pool.emplace_back([&sums, t] { sums[t] = simulate(); });
  for (auto& t : pool) t.join();
  for (int t = 1; t < threads; ++t) {
    if (sums[t] != sums[0]) {
      std::fprintf(stderr, "corona-bench-ref: threads disagree\n");
      return 1;
    }
  }
  std::printf("checksum %016llx\n", static_cast<unsigned long long>(sums[0]));
  return 0;
}
