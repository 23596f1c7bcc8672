/// \file host_probe.h
/// \brief How much real parallelism the host gives right now. On a shared
/// host the CPUs that hardware_concurrency reports are not all ours: the
/// neighbours' load moves the usable width between about 1 and nproc from
/// minute to minute. The throughput benches record it next to their pool
/// rows and flag the rows wider than it, whose timings measure contention
/// rather than speedup.

#pragma once

#include <string>

#include "common/json.h"

namespace autocomp::bench {

struct HostParallelism {
  /// std::thread::hardware_concurrency() (at least 1).
  int hardware_concurrency = 1;
  /// Aggregate rate of a pure-ALU spin loop on every hardware thread over
  /// the single-thread rate.
  double effective_parallelism = 1;

  /// Prints a NOTE line naming row `name` when a pool `workers` wide is
  /// wider than either width.
  void NoteIfOversubscribed(const std::string& name, int workers) const;
  /// {"hardware_concurrency": H, "effective_parallelism": E}
  JsonValue ToJson() const;
  /// Sets "wider_than_hardware_concurrency" and
  /// "wider_than_effective_parallelism" on the JSON row of a pool
  /// `workers` wide.
  void FlagPoolRow(int workers, JsonValue* row) const;
};

/// Probes the host: the median ratio of three alternations of a
/// single-thread and an all-threads spin, since the host's parallelism
/// flickers on sub-second scales when neighbours share it. About 0.7 s
/// of wall time.
HostParallelism ProbeHostParallelism();

}  // namespace autocomp::bench
