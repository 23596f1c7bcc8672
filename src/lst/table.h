/// \file table.h
/// \brief Table handle: the public entry point for reads and writes.

#pragma once

#include <optional>
#include <string>
#include <vector>

#include "common/clock.h"
#include "common/status.h"
#include "lst/transaction.h"

namespace autocomp::lst {

/// \brief Result of scan planning: the files a query must read.
struct ScanPlan {
  std::vector<DataFile> files;
  int64_t total_bytes = 0;
  int64_t total_records = 0;
  /// Manifests inspected during planning — planning cost grows with
  /// metadata bloat, one of the paper's small-file costs.
  int64_t manifests_scanned = 0;
  /// Snapshot the plan is pinned to.
  int64_t snapshot_id = 0;
};

/// \brief Lightweight handle binding a table name to a MetadataStore.
///
/// Handles are cheap to copy; they hold no table state. Every read loads
/// the current metadata from the store (snapshot isolation: the returned
/// plan/transaction is pinned to the version read).
class Table {
 public:
  Table(MetadataStore* store, std::string name, const Clock* clock);

  const std::string& name() const { return name_; }

  /// Loads the current metadata version.
  Result<TableMetadataPtr> Metadata() const;

  /// Starts a transaction pinned to the current version.
  Result<Transaction> NewTransaction(
      ValidationMode mode = ValidationMode::kStrictTableLevel) const;

  /// Plans a scan over the current snapshot, optionally pruned to one
  /// partition. Planning walks manifests (partition summaries prune).
  Result<ScanPlan> PlanScan(
      const std::optional<std::string>& partition = std::nullopt) const;

 private:
  MetadataStore* store_;
  std::string name_;
  const Clock* clock_;
};

/// \brief Outcome of snapshot expiry.
struct ExpireResult {
  TableMetadataPtr metadata;
  /// Files no longer referenced by any retained snapshot; the caller
  /// deletes them from storage (the sim's equivalent of Iceberg's
  /// expire_snapshots + orphan cleanup, which OpenHouse runs as a data
  /// service). Sorted, without duplicates.
  std::vector<std::string> orphaned_paths;
  int64_t expired_snapshots = 0;
  /// Removed-path entries the orphan computation read on the committed
  /// attempt: the sizes of `removed_paths` of every snapshot whose
  /// predecessor expired. Deterministic; live files are never walked.
  int64_t paths_examined = 0;
};

/// \brief Removes snapshots older than `older_than`, always retaining the
/// current snapshot and the most recent `keep_last` snapshots. Commits the
/// trimmed metadata with CAS retries.
///
/// Orphans come from lineage, in O(removed paths): a path removed by
/// snapshot k is orphaned when snapshot k-1 expires. That needs the
/// snapshot list to be a parent-linked chain whose retained snapshots
/// form a suffix (true of every history commits build: timestamps never
/// decrease and there is no rollback). Otherwise returns
/// FailedPrecondition and commits nothing.
Result<ExpireResult> ExpireSnapshots(MetadataStore* store,
                                     const std::string& table_name,
                                     const Clock* clock, SimTime older_than,
                                     int keep_last = 1);

}  // namespace autocomp::lst
