/// \file transaction.h
/// \brief Optimistic-concurrency transactions over a MetadataStore.
///
/// A Transaction captures a base metadata version at creation, stages one
/// operation (append / overwrite / rewrite / delete), and commits via the
/// catalog's compare-and-swap. If other commits landed in between, the
/// transaction attempts to *rebase*: appends always rebase; rewrites and
/// overwrites re-validate against the intervening snapshots and fail with
/// CommitConflict when the validation mode rejects them.
///
/// Two validation modes are provided:
///  * kStrictTableLevel — a rewrite conflicts with ANY intervening commit
///    to the table, even one touching disjoint partitions. This mirrors
///    the Apache Iceberg v1.2.0 behaviour the paper observed ("compaction
///    operations executed concurrently could result in conflicts when
///    targeting distinct partitions within a table", §4.4).
///  * kPartitionAware — a rewrite conflicts only when an intervening
///    commit removed one of its input files or touched one of its
///    partitions (the paper's suggested "conflict filtering" fix, §8).

#pragma once

#include <cstdint>
#include <set>
#include <string>
#include <string_view>
#include <unordered_set>
#include <vector>

#include "common/clock.h"
#include "common/status.h"
#include "lst/commit_delta.h"
#include "lst/conflict.h"
#include "lst/table_metadata.h"

namespace autocomp::lst {

enum class ValidationMode : int {
  kStrictTableLevel,
  kPartitionAware,
};

/// \brief Result of a successful commit.
struct CommitResult {
  int64_t snapshot_id = 0;
  /// Number of rebase retries needed (0 = clean first attempt). The
  /// experiments count these as client-side conflicts (Table 1).
  int retries = 0;
  TableMetadataPtr metadata;
};

/// \brief Single-operation optimistic transaction.
class Transaction {
 public:
  /// Captures the current version of `table_name` as the base. Fails later
  /// at Commit if the table vanishes. With `injector` set, every commit
  /// attempt arms fault::kSiteLstCommit (injected CAS races and
  /// validation aborts); Table::NewTransaction wires the store's injector
  /// through automatically. With `trace` set, every commit outcome is
  /// recorded (at TraceLevel::kFull): "commit.success" with the new
  /// snapshot id, "commit.conflict" with the structured ConflictKind.
  Transaction(MetadataStore* store, std::string table_name,
              TableMetadataPtr base, const Clock* clock,
              ValidationMode mode = ValidationMode::kStrictTableLevel,
              fault::FaultInjector* injector = nullptr,
              obs::TraceRecorder* trace = nullptr);

  /// Stages an append of new files. May be called repeatedly before
  /// Commit; files accumulate.
  Status Append(std::vector<DataFile> files);

  /// Stages a logical overwrite: `replaced_paths` leave the live set,
  /// `added` files join it. Used for CoW updates/deletes.
  Status Overwrite(std::vector<std::string> replaced_paths,
                   std::vector<DataFile> added);

  /// Stages a compaction rewrite: logically content-preserving.
  Status RewriteFiles(std::vector<std::string> replaced_paths,
                      std::vector<DataFile> added);

  /// Stages a file deletion (data removal).
  Status DeleteFiles(std::vector<std::string> paths);

  /// One commit attempt. On CommitConflict the transaction stays usable
  /// and CommitWithRetries may rebase it.
  Result<CommitResult> Commit();

  /// Commit with automatic rebase, up to `max_retries` retries. Returns
  /// CommitConflict when validation rejects the rebase (the operation is
  /// genuinely lost) or retries are exhausted.
  Result<CommitResult> CommitWithRetries(int max_retries);

  SnapshotOperation operation() const { return operation_; }
  const TableMetadataPtr& base() const { return base_; }

  /// Structured reason for the most recent commit failure (kNone after a
  /// success or before any attempt). `last_conflict().retryable()` is the
  /// signal the compaction runner's retry loop keys off: CAS races
  /// rebase-and-retry, validation rejections abandon.
  const ConflictInfo& last_conflict() const { return last_conflict_; }

  /// Files the staged operation adds, as staged. A lost commit leaves
  /// them here (a failed attempt puts them back), so a caller cleaning up
  /// the outputs of a lost commit reads them from the transaction; after
  /// a successful commit they live in the new manifest and this is empty.
  const std::vector<DataFile>& added_files() const { return added_; }

  /// Paths the staged operation removes from the live set. The runner's
  /// pre-retry re-validation checks these are still live before paying
  /// for another commit attempt.
  const std::vector<std::string>& replaced_paths() const {
    return replaced_paths_;
  }

 private:
  /// Membership view of replaced_paths_, built once per commit attempt.
  /// Only probed, never iterated, so hash order cannot reach an output.
  using StagedPathSet = std::unordered_set<std::string_view>;

  Status EnsureOperation(SnapshotOperation op);
  /// Appends `files` to added_, taking the buffer whole when nothing is
  /// staged yet.
  void StageAdded(std::vector<DataFile>&& files);
  /// Records `kind` + `detail` into last_conflict_ and returns the
  /// matching CommitConflict Status (single exit for all conflict paths).
  Status Conflict(ConflictKind kind, const std::string& detail) const;
  /// One commit attempt; sets *cas_race when the failure was a raw CAS
  /// race (retryable) rather than a validation rejection (terminal).
  Result<CommitResult> CommitInternal(bool* cas_race);
  /// Validates the staged operation against snapshots committed after the
  /// base version. Returns CommitConflict on rejection.
  Status ValidateAgainst(const TableMetadata& current,
                         const StagedPathSet& staged) const;
  /// Builds the successor metadata from `current` and the staged op.
  /// Records the exact live-set change into `*delta` (added files as
  /// stamped, removed files with their live descriptors) — the commit
  /// hands it to MetadataStore::CommitTableWithDelta so incremental
  /// consumers avoid rescanning the table. The staged files move into
  /// the new manifest (`delta->added_manifest`); a caller whose attempt
  /// fails after Apply puts them back with RestoreAdded.
  Result<TableMetadataPtr> Apply(const TableMetadata& current,
                                 const StagedPathSet& staged,
                                 CommitDelta* delta);
  /// Re-stages the files Apply moved into `delta.added_manifest`.
  void RestoreAdded(const CommitDelta& delta);

  MetadataStore* store_;
  std::string table_name_;
  /// Metadata as of transaction start; never rebased — validation always
  /// runs against the state the operation actually read.
  TableMetadataPtr base_;
  const Clock* clock_;
  ValidationMode mode_;
  fault::FaultInjector* injector_;
  obs::TraceRecorder* trace_;
  /// Set on every conflict path, including inside const validation (hence
  /// mutable); cleared by a successful commit.
  mutable ConflictInfo last_conflict_;

  bool has_operation_ = false;
  SnapshotOperation operation_ = SnapshotOperation::kAppend;
  std::vector<DataFile> added_;
  std::vector<std::string> replaced_paths_;
};

}  // namespace autocomp::lst
