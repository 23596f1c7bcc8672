#include "engine/cluster.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <functional>
#include <limits>

namespace autocomp::engine {

Cluster::Cluster(std::string name, ClusterOptions options, const Clock* clock)
    : name_(std::move(name)), options_(options), clock_(clock) {
  assert(clock_ != nullptr);
  assert(options_.executors > 0 && options_.cores_per_executor > 0);
  slot_free_at_.assign(static_cast<size_t>(total_slots()), 0.0);
  RebuildHeap();
}

void Cluster::RebuildHeap() {
  slot_heap_.clear();
  slot_heap_.reserve(slot_free_at_.size());
  for (size_t i = 0; i < slot_free_at_.size(); ++i) {
    slot_heap_.emplace_back(slot_free_at_[i], i);
  }
  std::make_heap(slot_heap_.begin(), slot_heap_.end(), std::greater<>());
}

TaskBagResult Cluster::RunTasks(SimTime submit_time,
                                std::vector<double> task_seconds) {
  TaskBagResult result;
  result.start_time = submit_time;
  result.end_time = submit_time;
  if (task_seconds.empty()) return result;

  // Longest-processing-time-first placement.
  std::sort(task_seconds.begin(), task_seconds.end(), std::greater<double>());

  const double submit = static_cast<double>(submit_time);
  double first_start = std::numeric_limits<double>::max();
  double last_end = submit;
  for (double duration : task_seconds) {
    duration = std::max(0.0, duration);
    // Earliest-available slot; ties resolved by index (deterministic).
    std::pop_heap(slot_heap_.begin(), slot_heap_.end(), std::greater<>());
    SlotKey& best = slot_heap_.back();
    const double start = std::max(submit, best.first);
    result.queue_wait_seconds += start - submit;
    const double end = start + duration;
    best.first = end;
    slot_free_at_[best.second] = end;
    std::push_heap(slot_heap_.begin(), slot_heap_.end(), std::greater<>());
    result.busy_seconds += duration;
    first_start = std::min(first_start, start);
    last_end = std::max(last_end, end);
  }
  result.start_time = static_cast<SimTime>(std::llround(first_start));
  result.end_time = static_cast<SimTime>(std::llround(std::ceil(last_end)));
  total_busy_seconds_ += result.busy_seconds;
  total_gb_hours_ += GbHoursFor(result.busy_seconds);
  return result;
}

double Cluster::GbHoursFor(double busy_seconds) const {
  // One busy slot-second holds (executor_memory_gb / cores) GB for 1/3600
  // of an hour.
  const double gb_per_slot =
      options_.executor_memory_gb / options_.cores_per_executor;
  return gb_per_slot * busy_seconds / 3600.0;
}

void Cluster::Reset() {
  const double now = static_cast<double>(clock_->Now());
  std::fill(slot_free_at_.begin(), slot_free_at_.end(), now);
  RebuildHeap();
}

}  // namespace autocomp::engine
