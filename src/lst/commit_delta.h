/// \file commit_delta.h
/// \brief The net live-file change produced by one commit.
///
/// AutoComp's observe phase is O(fleet live files) when every cycle
/// rescans manifests; maintaining aggregates incrementally from commit
/// deltas makes it O(files changed since last cycle) instead (the
/// LSM-compaction design-space trade: amortize bookkeeping into the
/// write path). Transactions record the exact added/removed DataFile
/// descriptors while building the successor metadata — the information
/// is free at that point — and hand them to the MetadataStore so commit
/// listeners (core::IncrementalStatsIndex) can apply O(delta) updates.
///
/// Commit paths that edit history wholesale (snapshot expiry, rollback)
/// do not produce a delta; they commit with `known == false` and
/// consumers fall back to a full-table rebuild.

#pragma once

#include <cstdint>
#include <vector>

#include "lst/data_file.h"
#include "lst/manifest.h"
#include "lst/snapshot.h"

namespace autocomp::lst {

/// \brief Added/removed live files of one committed snapshot.
struct CommitDelta {
  /// False when the commit path could not (or did not bother to) derive
  /// the exact live-set change; consumers must treat the whole table as
  /// invalidated.
  bool known = false;
  /// Snapshot produced by the commit (0 when unknown).
  int64_t snapshot_id = 0;
  SnapshotOperation operation = SnapshotOperation::kAppend;
  /// The manifest the commit built for the files that joined the live
  /// set, stamped with their snapshot id and sequence number (full
  /// descriptors: partition, size, content, ...). The delta shares it
  /// with the new snapshot instead of copying the files; nullptr when the
  /// commit added nothing.
  ManifestPtr added_manifest;
  /// Files that left the live set, with the descriptors they had while
  /// live (Snapshot::removed_paths keeps only paths; incremental
  /// consumers need partition and size to reverse the aggregates). They
  /// point into the manifests of the version the commit replaced, which
  /// the committing transaction pins while the delta is delivered.
  std::vector<const DataFile*> removed;

  /// The added files (empty when the commit added none).
  const std::vector<DataFile>& added() const {
    static const std::vector<DataFile> kNone;
    return added_manifest != nullptr ? added_manifest->files() : kNone;
  }
};

}  // namespace autocomp::lst
