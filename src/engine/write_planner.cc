#include "engine/write_planner.h"

#include <algorithm>
#include <cassert>
#include <cmath>

namespace autocomp::engine {

WriterProfile TunedPipelineProfile() {
  WriterProfile p;
  p.target_file_bytes = 512 * kMiB;
  p.write_tasks = 8;
  p.size_jitter_sigma = 0.15;
  p.coalesce_output = true;
  return p;
}

WriterProfile UntunedUserJobProfile() {
  WriterProfile p;
  // Untuned jobs flush per shuffle task; an AQE mis-sizing or high default
  // parallelism yields many files in the 1-32MiB range (Figure 1).
  p.target_file_bytes = 16 * kMiB;
  p.write_tasks = 64;
  p.size_jitter_sigma = 0.8;
  return p;
}

std::vector<PlannedFile> PlanWriteFiles(
    int64_t logical_bytes, const std::vector<std::string>& partitions,
    const WriterProfile& profile, const format::ColumnarFileModel& format,
    Rng* rng) {
  assert(rng != nullptr);
  std::vector<PlannedFile> out;
  if (logical_bytes <= 0) return out;
  out.reserve(static_cast<size_t>(
      PlannedFileCount(logical_bytes, partitions.size(), profile, format)));

  const std::vector<std::string> parts =
      partitions.empty() ? std::vector<std::string>{""} : partitions;
  const int64_t bytes_per_partition =
      std::max<int64_t>(1, logical_bytes / static_cast<int64_t>(parts.size()));

  auto emit = [&](const std::string& partition, int64_t logical) {
    double jitter = 1.0;
    if (profile.size_jitter_sigma > 0) {
      // Mean-one lognormal jitter: exp(N(-s^2/2, s)).
      const double s = profile.size_jitter_sigma;
      jitter = rng->LogNormal(-0.5 * s * s, s);
    }
    logical = std::max<int64_t>(
        1,
        static_cast<int64_t>(std::llround(static_cast<double>(logical) *
                                          jitter)));
    PlannedFile f;
    f.partition = partition;
    f.stored_bytes = format.StoredBytesFor(logical);
    f.record_count = std::max<int64_t>(1, format.RecordsFor(logical));
    out.push_back(std::move(f));
  };

  for (const std::string& partition : parts) {
    if (profile.coalesce_output) {
      // Tuned writers roll files at the target stored size: full files at
      // the target, plus one remainder (Spark's rolling file writer).
      const int64_t logical_per_full = std::max<int64_t>(
          1, format.LogicalBytesForStored(profile.target_file_bytes));
      int64_t remaining = bytes_per_partition;
      while (remaining >= logical_per_full) {
        emit(partition, logical_per_full);
        remaining -= logical_per_full;
      }
      // Tiny remainders (<5% of a file) are folded into the last file in
      // practice; emit only meaningful leftovers.
      if (remaining > logical_per_full / 20 || out.empty()) {
        emit(partition, remaining > 0 ? remaining : 1);
      }
      continue;
    }
    // Untuned writers: every task holding rows flushes its own file;
    // tasks are capped by the number of row "chunks" available. Many
    // tasks ⇒ many small files.
    const int64_t packed_stored = format.StoredBytesFor(bytes_per_partition);
    const int64_t by_target = std::max<int64_t>(
        1, (packed_stored + profile.target_file_bytes - 1) /
               profile.target_file_bytes);
    const int64_t min_chunk = 256 * kKiB;
    const int64_t max_chunks =
        std::max<int64_t>(1, bytes_per_partition / min_chunk);
    const int64_t by_tasks =
        std::min<int64_t>(profile.write_tasks, max_chunks);
    const int64_t num_files = std::max(by_target, by_tasks);
    const int64_t logical_per_file =
        std::max<int64_t>(1, bytes_per_partition / num_files);
    for (int64_t i = 0; i < num_files; ++i) {
      emit(partition, logical_per_file);
    }
  }
  return out;
}

int64_t PlannedFileCount(int64_t logical_bytes, size_t num_partitions,
                         const WriterProfile& profile,
                         const format::ColumnarFileModel& format) {
  if (logical_bytes <= 0) return 0;
  // Mirrors PlanWriteFiles step for step; `count` stands in for
  // out.size(), including the cross-partition out.empty() in the
  // coalesce remainder rule. Any drift between the two is caught by the
  // randomized equivalence test and the fleet driver's debug assert.
  const int64_t parts =
      std::max<int64_t>(1, static_cast<int64_t>(num_partitions));
  const int64_t bytes_per_partition =
      std::max<int64_t>(1, logical_bytes / parts);
  int64_t count = 0;
  for (int64_t p = 0; p < parts; ++p) {
    if (profile.coalesce_output) {
      const int64_t logical_per_full = std::max<int64_t>(
          1, format.LogicalBytesForStored(profile.target_file_bytes));
      const int64_t full = bytes_per_partition / logical_per_full;
      const int64_t remaining =
          bytes_per_partition - full * logical_per_full;
      count += full;
      if (remaining > logical_per_full / 20 || count == 0) ++count;
      continue;
    }
    const int64_t packed_stored = format.StoredBytesFor(bytes_per_partition);
    const int64_t by_target = std::max<int64_t>(
        1, (packed_stored + profile.target_file_bytes - 1) /
               profile.target_file_bytes);
    const int64_t min_chunk = 256 * kKiB;
    const int64_t max_chunks =
        std::max<int64_t>(1, bytes_per_partition / min_chunk);
    const int64_t by_tasks =
        std::min<int64_t>(profile.write_tasks, max_chunks);
    count += std::max(by_target, by_tasks);
  }
  return count;
}

}  // namespace autocomp::engine
