#include "benchmarks/host_probe.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <thread>
#include <vector>

namespace autocomp::bench {
namespace {

/// Aggregate iterations per second of a spin loop on `threads` threads
/// over `seconds` of wall time.
double SpinRate(int threads, double seconds) {
  std::atomic<bool> stop{false};
  std::vector<int64_t> counts(static_cast<size_t>(threads), 0);
  std::vector<std::thread> pool;
  for (int t = 0; t < threads; ++t) {
    pool.emplace_back([&, t] {
      uint64_t x = static_cast<uint64_t>(t) + 1;
      int64_t n = 0;
      while (!stop.load(std::memory_order_relaxed)) {
        for (int i = 0; i < 4096; ++i) {
          x = x * 6364136223846793005ULL + 1442695040888963407ULL;
        }
        n += 4096;
      }
      counts[static_cast<size_t>(t)] = n + static_cast<int64_t>(x & 1);
    });
  }
  const auto start = std::chrono::steady_clock::now();
  std::this_thread::sleep_for(std::chrono::duration<double>(seconds));
  stop.store(true);
  for (std::thread& th : pool) th.join();
  const double elapsed =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();
  int64_t total = 0;
  for (int64_t c : counts) total += c;
  return elapsed > 0 ? static_cast<double>(total) / elapsed : 0;
}

}  // namespace

void HostParallelism::NoteIfOversubscribed(const std::string& name,
                                           int workers) const {
  if (workers > hardware_concurrency ||
      static_cast<double>(workers) > effective_parallelism) {
    std::printf(
        "NOTE: %s is wider than this host (hardware_concurrency %d, "
        "effective_parallelism %.2f): its speedup measures contention\n",
        name.c_str(), hardware_concurrency, effective_parallelism);
  }
}

JsonValue HostParallelism::ToJson() const {
  JsonValue out = JsonValue::Object();
  out.Set("hardware_concurrency", hardware_concurrency);
  out.Set("effective_parallelism", effective_parallelism);
  return out;
}

void HostParallelism::FlagPoolRow(int workers, JsonValue* row) const {
  row->Set("wider_than_hardware_concurrency", workers > hardware_concurrency);
  row->Set("wider_than_effective_parallelism",
           static_cast<double>(workers) > effective_parallelism);
}

HostParallelism ProbeHostParallelism() {
  HostParallelism host;
  host.hardware_concurrency =
      std::max(1, static_cast<int>(std::thread::hardware_concurrency()));
  SpinRate(1, 0.05);  // warm-up: let the core leave any idle state
  std::vector<double> ratios;
  for (int i = 0; i < 3; ++i) {
    const double one = SpinRate(1, 0.1);
    const double all = SpinRate(host.hardware_concurrency, 0.1);
    ratios.push_back(one > 0 ? all / one : 0);
  }
  std::sort(ratios.begin(), ratios.end());
  host.effective_parallelism = ratios[1];
  return host;
}

}  // namespace autocomp::bench
