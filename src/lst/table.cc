#include "lst/table.h"

#include <algorithm>
#include <cassert>
#include <cstddef>

#include "fault/fault_injector.h"

namespace autocomp::lst {

Table::Table(MetadataStore* store, std::string name, const Clock* clock)
    : store_(store), name_(std::move(name)), clock_(clock) {
  assert(store_ != nullptr && clock_ != nullptr);
}

Result<TableMetadataPtr> Table::Metadata() const {
  return store_->LoadTable(name_);
}

Result<Transaction> Table::NewTransaction(ValidationMode mode) const {
  AUTOCOMP_ASSIGN_OR_RETURN(TableMetadataPtr base, Metadata());
  return Transaction(store_, name_, std::move(base), clock_, mode,
                     store_->fault_injector(), store_->trace_recorder());
}

Result<ScanPlan> Table::PlanScan(
    const std::optional<std::string>& partition) const {
  AUTOCOMP_ASSIGN_OR_RETURN(TableMetadataPtr meta, Metadata());
  ScanPlan plan;
  const Snapshot* snap = meta->current_snapshot();
  if (snap == nullptr) return plan;
  plan.snapshot_id = snap->snapshot_id;
  for (const ManifestPtr& m : snap->manifests) {
    if (partition && !m->ContainsPartition(*partition)) continue;  // pruned
    ++plan.manifests_scanned;
    for (const DataFile& f : m->files()) {
      if (partition && f.partition != *partition) continue;
      plan.total_bytes += f.file_size_bytes;
      plan.total_records += f.record_count;
      plan.files.push_back(f);
    }
  }
  return plan;
}

namespace {

// Expiry derives orphans from lineage, which needs the snapshot list to be
// one parent-linked chain. Every commit path builds that shape; a
// hand-edited or corrupt history is refused before a file is named for
// deletion.
Status CheckParentChain(const TableMetadata& meta) {
  const auto& snapshots = meta.snapshots();
  for (size_t i = 1; i < snapshots.size(); ++i) {
    if (snapshots[i].parent_snapshot_id != snapshots[i - 1].snapshot_id) {
      return Status::FailedPrecondition(
          "cannot expire " + meta.name() + ": snapshot " +
          std::to_string(snapshots[i].snapshot_id) + " has parent " +
          std::to_string(snapshots[i].parent_snapshot_id) +
          ", not its predecessor " +
          std::to_string(snapshots[i - 1].snapshot_id));
    }
  }
  return Status::OK();
}

}  // namespace

Result<ExpireResult> ExpireSnapshots(MetadataStore* store,
                                     const std::string& table_name,
                                     const Clock* clock, SimTime older_than,
                                     int keep_last) {
  assert(store != nullptr && clock != nullptr);
  constexpr int kMaxCasRetries = 5;
  for (int attempt = 0;; ++attempt) {
    AUTOCOMP_ASSIGN_OR_RETURN(TableMetadataPtr meta,
                              store->LoadTable(table_name));
    const auto& snapshots = meta->snapshots();
    if (snapshots.empty()) {
      return ExpireResult{meta, {}, 0, 0};
    }

    // Retention keeps the lineage tail, the current snapshot, and every
    // snapshot at or after `older_than`. With no rollback, timestamps
    // never decrease and the current snapshot is the tail, so the
    // retained snapshots are a suffix [first_retained, n).
    const size_t n = snapshots.size();
    const size_t keep_tail =
        std::min(n, static_cast<size_t>(std::max(1, keep_last)));
    auto is_retained = [&](size_t i) {
      const Snapshot& s = snapshots[i];
      return i + keep_tail >= n ||
             s.snapshot_id == meta->current_snapshot_id() ||
             s.timestamp >= older_than;
    };
    size_t first_retained = 0;
    while (!is_retained(first_retained)) ++first_retained;
    for (size_t i = first_retained + 1; i < n; ++i) {
      if (!is_retained(i)) {
        return Status::FailedPrecondition(
            "cannot expire " + table_name + ": snapshot " +
            std::to_string(snapshots[i].snapshot_id) +
            " would expire after a retained snapshot");
      }
    }
    if (first_retained == 0) {
      return ExpireResult{meta, {}, 0, 0};
    }
    AUTOCOMP_RETURN_NOT_OK(CheckParentChain(*meta));

    // A path in snapshot k's removed_paths was live up to snapshot k-1 and
    // in no later snapshot, so it is orphaned exactly when k-1 expires:
    // the orphans are the removals of snapshots 1..first_retained. Cost
    // is O(removed paths); no live manifest is walked.
    std::vector<std::string> orphaned;
    for (size_t k = 1; k <= first_retained; ++k) {
      const auto& removed = snapshots[k].removed_paths;
      if (removed == nullptr) continue;
      orphaned.insert(orphaned.end(), removed->begin(), removed->end());
    }
    const auto paths_examined = static_cast<int64_t>(orphaned.size());
    std::sort(orphaned.begin(), orphaned.end());
    orphaned.erase(std::unique(orphaned.begin(), orphaned.end()),
                   orphaned.end());

    TableMetadata::Builder builder(*meta);
    builder.SetSnapshots(std::vector<Snapshot>(
        snapshots.begin() + static_cast<std::ptrdiff_t>(first_retained),
        snapshots.end()));
    builder.SetLastUpdatedAt(clock->Now());
    AUTOCOMP_ASSIGN_OR_RETURN(TableMetadataPtr next, builder.Build());
    // Injected commit faults on the maintenance path: a CAS race means a
    // concurrent writer won the swap before the truncation landed —
    // recompute the expiry set against the new version, like an organic
    // conflict below. Anything else configured at the site is terminal.
    if (fault::FaultInjector* injector = store->fault_injector();
        injector != nullptr) {
      const fault::FaultKind kind =
          injector->Arm(fault::kSiteRetentionExpire, table_name);
      if (kind == fault::FaultKind::kCasRaceConflict) {
        if (attempt >= kMaxCasRetries) {
          return fault::FaultInjector::ToStatus(
              kind, fault::kSiteRetentionExpire, table_name);
        }
        continue;
      }
      if (kind != fault::FaultKind::kNone) {
        return fault::FaultInjector::ToStatus(
            kind, fault::kSiteRetentionExpire, table_name);
      }
    }
    const Status cas = store->CommitTable(table_name, meta->version(), next);
    if (cas.ok()) {
      ExpireResult result;
      result.metadata = next;
      result.orphaned_paths = std::move(orphaned);
      result.expired_snapshots = static_cast<int64_t>(first_retained);
      result.paths_examined = paths_examined;
      return result;
    }
    if (!cas.IsCommitConflict() || attempt >= kMaxCasRetries) return cas;
    // CAS race with a concurrent commit: recompute on the new version.
  }
}

}  // namespace autocomp::lst
