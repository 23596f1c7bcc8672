#include "lst/transaction.h"

#include <algorithm>
#include <cassert>

#include "common/logging.h"
#include "fault/fault_injector.h"
#include "obs/trace.h"

namespace autocomp::lst {

Transaction::Transaction(MetadataStore* store, std::string table_name,
                         TableMetadataPtr base, const Clock* clock,
                         ValidationMode mode, fault::FaultInjector* injector,
                         obs::TraceRecorder* trace)
    : store_(store),
      table_name_(std::move(table_name)),
      base_(std::move(base)),
      clock_(clock),
      mode_(mode),
      injector_(injector),
      trace_(trace) {
  assert(store_ != nullptr && clock_ != nullptr && base_ != nullptr);
}

Status Transaction::Conflict(ConflictKind kind,
                             const std::string& detail) const {
  last_conflict_.kind = kind;
  last_conflict_.table = table_name_;
  last_conflict_.detail = detail;
  if (trace_ != nullptr && trace_->enabled(obs::TraceLevel::kFull)) {
    trace_->Instant(obs::TraceLevel::kFull, obs::SpanCategory::kCommit,
                    "commit.conflict", clock_->Now(),
                    "table=" + table_name_ +
                        ";kind=" + ConflictKindName(kind) +
                        ";retryable=" + (last_conflict_.retryable() ? "1"
                                                                    : "0"));
  }
  return Status::CommitConflict(detail);
}

Status Transaction::EnsureOperation(SnapshotOperation op) {
  if (has_operation_ && operation_ != op) {
    return Status::FailedPrecondition(
        "transaction already staged a different operation");
  }
  has_operation_ = true;
  operation_ = op;
  return Status::OK();
}

void Transaction::StageAdded(std::vector<DataFile>&& files) {
  if (added_.empty()) {
    added_ = std::move(files);
    return;
  }
  added_.insert(added_.end(), std::make_move_iterator(files.begin()),
                std::make_move_iterator(files.end()));
}

Status Transaction::Append(std::vector<DataFile> files) {
  AUTOCOMP_RETURN_NOT_OK(EnsureOperation(SnapshotOperation::kAppend));
  if (files.empty()) {
    return Status::InvalidArgument("append requires at least one file");
  }
  StageAdded(std::move(files));
  return Status::OK();
}

Status Transaction::Overwrite(std::vector<std::string> replaced_paths,
                              std::vector<DataFile> added) {
  AUTOCOMP_RETURN_NOT_OK(EnsureOperation(SnapshotOperation::kOverwrite));
  replaced_paths_.insert(replaced_paths_.end(),
                         std::make_move_iterator(replaced_paths.begin()),
                         std::make_move_iterator(replaced_paths.end()));
  StageAdded(std::move(added));
  return Status::OK();
}

Status Transaction::RewriteFiles(std::vector<std::string> replaced_paths,
                                 std::vector<DataFile> added) {
  AUTOCOMP_RETURN_NOT_OK(EnsureOperation(SnapshotOperation::kReplace));
  if (replaced_paths.empty()) {
    return Status::InvalidArgument("rewrite requires input files");
  }
  replaced_paths_.insert(replaced_paths_.end(),
                         std::make_move_iterator(replaced_paths.begin()),
                         std::make_move_iterator(replaced_paths.end()));
  StageAdded(std::move(added));
  return Status::OK();
}

Status Transaction::DeleteFiles(std::vector<std::string> paths) {
  AUTOCOMP_RETURN_NOT_OK(EnsureOperation(SnapshotOperation::kDelete));
  if (paths.empty()) {
    return Status::InvalidArgument("delete requires at least one path");
  }
  replaced_paths_.insert(replaced_paths_.end(),
                         std::make_move_iterator(paths.begin()),
                         std::make_move_iterator(paths.end()));
  return Status::OK();
}

Status Transaction::ValidateAgainst(const TableMetadata& current,
                                    const StagedPathSet& staged) const {
  const auto intervening = current.SnapshotsAfter(base_->current_snapshot_id());
  if (intervening.empty()) return Status::OK();

  switch (operation_) {
    case SnapshotOperation::kAppend:
      // Fast-append: never conflicts; it only adds a manifest.
      return Status::OK();
    case SnapshotOperation::kReplace: {
      // Which partitions do my input files live in? Scan the base
      // snapshot's manifests in place — materializing LiveFiles() here
      // copied every live DataFile (paths, partitions) per validation,
      // which dominates rebase cost on large tables.
      std::set<std::string> my_partitions;
      base_->ForEachLiveFile([&](const DataFile& f) {
        if (staged.count(f.path) > 0) my_partitions.insert(f.partition);
      });
      for (const Snapshot* s : intervening) {
        // Fast-appends never invalidate a rewrite: they only add files,
        // and the rebase keeps them. (Iceberg rewrites succeed under
        // concurrent appends.)
        if (s->operation == SnapshotOperation::kAppend) continue;
        // Any operation that removed one of my inputs kills the rewrite
        // — its outputs would resurrect deleted/rewritten data.
        if (s->removed_paths != nullptr) {
          for (const std::string& p : *s->removed_paths) {
            if (staged.count(p) > 0) {
              return Conflict(
                  ConflictKind::kInputRemoved,
                  "rewrite input removed by concurrent commit: " + p);
            }
          }
        }
        if (s->operation == SnapshotOperation::kReplace) {
          if (mode_ == ValidationMode::kStrictTableLevel) {
            // Iceberg v1.2.0 behaviour observed in the paper (§4.4):
            // concurrent rewrites of the SAME TABLE conflict even when
            // they target disjoint partitions.
            return Conflict(ConflictKind::kStrictTableLevel,
                            "concurrent rewrite on table " + table_name_ +
                                " (strict table-level validation)");
          }
          // Partition-aware conflict filtering (§8): only overlapping
          // partitions conflict.
          for (const std::string& part : s->touched_partitions) {
            if (my_partitions.count(part) > 0) {
              return Conflict(ConflictKind::kPartitionOverlap,
                              "concurrent rewrite touched partition " + part);
            }
          }
        }
      }
      return Status::OK();
    }
    case SnapshotOperation::kOverwrite:
    case SnapshotOperation::kDelete: {
      // An overwrite/delete read specific files; it conflicts when any of
      // them is no longer live (e.g. compaction rewrote them) — this is
      // the client-side versioning conflict users hit when compaction
      // races their write queries (Table 1).
      for (const std::string& path : replaced_paths_) {
        if (!current.IsLive(path)) {
          return Conflict(
              ConflictKind::kStaleOverwrite,
              "overwritten file no longer live (stale metadata): " + path);
        }
      }
      return Status::OK();
    }
  }
  return Status::Internal("unreachable");
}

Result<TableMetadataPtr> Transaction::Apply(const TableMetadata& current,
                                            const StagedPathSet& staged,
                                            CommitDelta* delta) {
  TableMetadata::Builder builder(current);
  Snapshot snap;
  snap.snapshot_id = builder.AllocateSnapshotId();
  snap.parent_snapshot_id = current.current_snapshot_id();
  snap.sequence_number = builder.AllocateSequenceNumber();
  snap.timestamp = clock_->Now();
  snap.operation = operation_;

  delta->known = true;
  delta->snapshot_id = snap.snapshot_id;
  delta->operation = operation_;
  delta->added_manifest = nullptr;
  delta->removed.clear();

  const Snapshot* base_snap = current.current_snapshot();
  ManifestList manifests =
      base_snap == nullptr ? ManifestList{} : base_snap->manifests;

  auto removed = std::make_shared<std::set<std::string>>();

  if (!replaced_paths_.empty()) {
    ManifestList filtered;
    filtered.reserve(manifests.size());
    for (const ManifestPtr& m : manifests) {
      const bool touched = std::any_of(
          m->files().begin(), m->files().end(),
          [&](const DataFile& f) { return staged.count(f.path) > 0; });
      if (!touched) {
        filtered.push_back(m);
        continue;
      }
      std::vector<DataFile> kept = builder.TakeFileBuffer();
      kept.reserve(m->files().size());
      for (const DataFile& f : m->files()) {
        if (staged.count(f.path) > 0) {
          snap.deleted_files += 1;
          snap.deleted_bytes += f.file_size_bytes;
          snap.touched_partitions.insert(f.partition);
          removed->insert(f.path);
          delta->removed.push_back(&f);
        } else {
          kept.push_back(f);
        }
      }
      if (!kept.empty()) {
        filtered.push_back(builder.NewManifest(std::move(kept)));
      }
    }
    manifests = std::move(filtered);
    // Replaced paths that were not live: appends racing deletes could
    // cause this; validation should have caught genuine conflicts.
    if (removed->size() != replaced_paths_.size()) {
      return Conflict(ConflictKind::kReplacedNotLive,
                      "some replaced files are not live in " + table_name_);
    }
  }

  if (!added_.empty()) {
    for (DataFile& f : added_) {
      f.added_snapshot_id = snap.snapshot_id;
      f.sequence_number = snap.sequence_number;
      snap.added_files += 1;
      snap.added_bytes += f.file_size_bytes;
      snap.added_records += f.record_count;
      snap.touched_partitions.insert(f.partition);
    }
    // The staged files move into the manifest; the delta shares it.
    delta->added_manifest = builder.NewManifest(std::move(added_));
    added_.clear();
    manifests.push_back(delta->added_manifest);
  }

  const int64_t max_manifests =
      current.properties().GetInt(kPropMaxManifests, 100);
  manifests = MaybeMergeManifests(std::move(manifests), max_manifests,
                                  &builder);

  snap.manifests = std::move(manifests);
  snap.removed_paths =
      removed->empty() ? nullptr
                       : std::shared_ptr<const std::set<std::string>>(removed);
  builder.AddSnapshot(std::move(snap));
  builder.SetLastUpdatedAt(clock_->Now());
  return builder.Build();
}

Result<CommitResult> Transaction::CommitInternal(bool* cas_race) {
  *cas_race = false;
  if (!has_operation_) {
    return Status::FailedPrecondition("nothing staged to commit");
  }
  AUTOCOMP_ASSIGN_OR_RETURN(TableMetadataPtr current,
                            store_->LoadTable(table_name_));
  const StagedPathSet staged(replaced_paths_.begin(), replaced_paths_.end());
  if (current->version() != base_->version()) {
    // Someone committed since we captured the base: validate the rebase.
    // A rejection here is terminal (the operation is genuinely lost).
    AUTOCOMP_RETURN_NOT_OK(ValidateAgainst(*current, staged));
  }
  // Injected commit faults: a CAS race (a concurrent writer "won" the
  // swap — retryable, nothing was installed) or a validation abort
  // (terminal). The disjoint-rewrite kind models the v1.2.0 quirk and
  // only applies to rewrites; for other operations it degrades to no
  // fault.
  if (injector_ != nullptr) {
    const fault::FaultKind kind =
        injector_->Arm(fault::kSiteLstCommit, table_name_);
    const Status injected =
        fault::FaultInjector::ToStatus(kind, fault::kSiteLstCommit,
                                       table_name_);
    switch (kind) {
      case fault::FaultKind::kCasRaceConflict:
        *cas_race = true;
        return Conflict(ConflictKind::kInjectedCasRace, injected.message());
      case fault::FaultKind::kValidationAbort:
        return Conflict(ConflictKind::kInjectedValidation,
                        injected.message());
      case fault::FaultKind::kDisjointRewriteAbort:
        if (operation_ == SnapshotOperation::kReplace) {
          return Conflict(ConflictKind::kInjectedValidation,
                          injected.message());
        }
        break;
      default:
        break;
    }
  }
  const size_t added_count = added_.size();
  CommitDelta delta;
  Result<TableMetadataPtr> applied = Apply(*current, staged, &delta);
  if (!applied.ok()) {
    RestoreAdded(delta);
    return applied.status();
  }
  TableMetadataPtr next = std::move(applied).value();
  const Status cas = store_->CommitTableWithDelta(table_name_,
                                                  current->version(), next,
                                                  delta);
  if (!cas.ok()) {
    RestoreAdded(delta);
    // A CAS failure means another commit landed between our load and our
    // swap; the caller may rebase and retry.
    *cas_race = cas.IsCommitConflict();
    if (*cas_race) {
      return Conflict(ConflictKind::kCasRace, cas.message());
    }
    return cas;
  }
  CommitResult result;
  result.snapshot_id = next->current_snapshot_id();
  result.retries = 0;
  result.metadata = next;
  last_conflict_ = ConflictInfo{};
  if (trace_ != nullptr && trace_->enabled(obs::TraceLevel::kFull)) {
    trace_->Instant(obs::TraceLevel::kFull, obs::SpanCategory::kCommit,
                    "commit.success", clock_->Now(),
                    "table=" + table_name_ + ";op=" +
                        SnapshotOperationName(operation_) + ";snapshot=" +
                        std::to_string(result.snapshot_id),
                    static_cast<double>(added_count));
  }
  return result;
}

void Transaction::RestoreAdded(const CommitDelta& delta) {
  // Only a lost attempt lands here (a CAS race before a retry, or a store
  // failure), so the copy stays off the successful commit path.
  if (delta.added_manifest != nullptr) added_ = delta.added_manifest->files();
}

Result<CommitResult> Transaction::Commit() {
  bool cas_race = false;
  return CommitInternal(&cas_race);
}

Result<CommitResult> Transaction::CommitWithRetries(int max_retries) {
  int retries = 0;
  while (true) {
    bool cas_race = false;
    Result<CommitResult> attempt = CommitInternal(&cas_race);
    if (attempt.ok()) {
      attempt->retries = retries;
      return attempt;
    }
    if (!cas_race) return attempt.status();  // validation rejection: final
    if (retries >= max_retries) {
      return Conflict(ConflictKind::kRetriesExhausted,
                      "retries exhausted after " + std::to_string(retries) +
                          " attempts");
    }
    ++retries;
    // Retry: CommitInternal reloads the current version and re-validates
    // against the ORIGINAL base, so strict-mode rewrites still conflict
    // after a rebase.
  }
}

}  // namespace autocomp::lst
