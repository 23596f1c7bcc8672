// Heap-allocation budgets for the engine's create → commit → open path.
//
// This executable replaces the global operator new with a counting one
// that counts only while a window is open on the calling thread. Each
// bound compares a 1,000-file and a 2,000-file case, so the constant
// costs (table handles, vector buffers, map nodes created once per hour)
// cancel and only the per-file growth is measured: the bounds hold on any
// standard library. Sanitizer runtimes replace operator new themselves,
// so the suite carries its own ctest label (`alloc`) and stays out of the
// sanitizer selections.

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdlib>
#include <new>
#include <string>

#include "catalog/catalog.h"
#include "common/clock.h"
#include "engine/cluster.h"
#include "engine/query_engine.h"
#include "engine/write_planner.h"
#include "storage/filesystem.h"

namespace {

thread_local bool t_counting = false;
thread_local int64_t t_allocations = 0;

}  // namespace

// The replacements pair malloc with free by construction; GCC cannot see
// that through its inlined view of new and delete, and warns.
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"
#endif

void* operator new(std::size_t size) {
  if (t_counting) ++t_allocations;
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc();
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }

namespace autocomp::engine {
namespace {

/// Counts the operator-new calls `fn` makes on this thread.
template <typename Fn>
int64_t CountAllocations(Fn&& fn) {
  t_allocations = 0;
  t_counting = true;
  fn();
  t_counting = false;
  return t_allocations;
}

/// One catalog, one single-shard filesystem, one query cluster and an
/// engine; `force_timeouts` sets the NameNode so that every open() past
/// the setup writes times out.
class Lake {
 public:
  explicit Lake(bool force_timeouts)
      : dfs_(&clock_, 1, NameNodeOptionsFor(force_timeouts)),
        catalog_(&clock_, &dfs_),
        cluster_("q", ClusterOptions{}, &clock_),
        engine_(&cluster_, &catalog_, &clock_) {
    EXPECT_TRUE(catalog_.CreateDatabase("db").ok());
    EXPECT_TRUE(catalog_
                    .CreateTable("db", "t",
                                 lst::Schema(0, {{1, "d", lst::FieldType::kDate,
                                                  true}}),
                                 lst::PartitionSpec(
                                     1, {{1, lst::Transform::kMonth, "m"}}))
                    .ok());
  }

  /// An append that writes exactly `files` files into one partition.
  WriteSpec AppendOf(int files) const {
    WriteSpec spec;
    spec.table = "db.t";
    spec.kind = WriteKind::kAppend;
    spec.partitions = {"m=2024-01"};
    spec.profile.target_file_bytes = 16 * kMiB;
    spec.profile.write_tasks = files;
    spec.profile.coalesce_output = false;
    spec.profile.size_jitter_sigma = 0;
    spec.logical_bytes = static_cast<int64_t>(files) * 8 * kMiB;
    EXPECT_EQ(PlannedFileCount(spec.logical_bytes, 1, spec.profile,
                               engine_.format()),
              files);
    return spec;
  }

  QueryEngine& engine() { return engine_; }

 private:
  static storage::NameNodeOptions NameNodeOptionsFor(bool force_timeouts) {
    storage::NameNodeOptions options;
    if (force_timeouts) {
      // Any load above one RPC per hour times out with certainty.
      options.rpc_capacity_per_hour = 1;
      options.overload_factor = 1.0;
      options.max_timeout_probability = 1.0;
    }
    return options;
  }

  SimulatedClock clock_{0};
  storage::DistributedFileSystem dfs_;
  catalog::Catalog catalog_;
  Cluster cluster_;
  QueryEngine engine_;
};

/// Allocations of one append of `files` files into an empty table.
int64_t AppendAllocations(int files) {
  Lake lake(/*force_timeouts=*/false);
  const WriteSpec spec = lake.AppendOf(files);
  Result<WriteResult> written = Status::Internal("not run");
  const int64_t count = CountAllocations(
      [&] { written = lake.engine().ExecuteWrite(spec, 0); });
  EXPECT_TRUE(written.ok());
  EXPECT_EQ(written->files_written, files);
  return count;
}

/// Allocations of one full-table read over `files` files, with every
/// open() and its retry timing out.
int64_t TimedOutReadAllocations(int files) {
  Lake lake(/*force_timeouts=*/true);
  EXPECT_TRUE(lake.engine().ExecuteWrite(lake.AppendOf(files), 0).ok());
  Result<QueryResult> read = Status::Internal("not run");
  const int64_t count = CountAllocations(
      [&] { read = lake.engine().ExecuteRead("db.t", std::nullopt, 10); });
  EXPECT_TRUE(read.ok());
  EXPECT_EQ(read->files_scanned, files);
  EXPECT_EQ(read->open_timeouts, 2 * files);
  return count;
}

TEST(AllocBudgetTest, AppendCostsAtMostThreeAllocationsPerFile) {
  const int64_t small = AppendAllocations(1000);
  const int64_t large = AppendAllocations(2000);
  // Per file: the path string, and the NameNode's map node plus its key.
  EXPECT_LE(large - small, 3 * 1000)
      << "1,000 files: " << small << ", 2,000 files: " << large;
}

TEST(AllocBudgetTest, TimedOutFullReadAllocatesIndependentlyOfFileCount) {
  const int64_t small = TimedOutReadAllocations(1000);
  const int64_t large = TimedOutReadAllocations(2000);
  EXPECT_LE(large - small, 4)
      << "1,000 files: " << small << ", 2,000 files: " << large;
}

}  // namespace
}  // namespace autocomp::engine
