/// \file filesystem.h
/// \brief Federated distributed-filesystem facade over NameNode shards.
///
/// The paper notes that LinkedIn's HDFS deployment uses federation to
/// spread namespace load across NameNodes (§1, §7). The facade routes each
/// path to a shard via a mount table of path prefixes, mirroring
/// ViewFs-style federation, and aggregates fleet-wide statistics.

#pragma once

#include <memory>
#include <string>
#include <vector>

#include "common/clock.h"
#include "storage/namenode.h"

namespace autocomp::storage {

/// \brief Mount-table federated filesystem. With a single shard it behaves
/// as a plain HDFS cluster.
class DistributedFileSystem {
 public:
  /// Creates `num_shards` NameNodes; shard i owns mount prefix
  /// "/shard<i>" plus anything routed to it by AddMount. Paths that match
  /// no mount are routed by a stable hash of their first path component.
  DistributedFileSystem(const Clock* clock, int num_shards,
                        NameNodeOptions options = {});

  /// Routes all paths under `prefix` to shard `shard`.
  Status AddMount(const std::string& prefix, int shard);

  Status CreateFile(const std::string& path, int64_t size_bytes,
                    int64_t record_count);
  Status DeleteFile(const std::string& path);
  Status Open(const std::string& path);
  Result<FileInfo> Stat(const std::string& path) const;
  bool Exists(const std::string& path) const;
  std::vector<FileInfo> ListFiles(const std::string& dir_prefix);

  void SetNamespaceQuota(const std::string& dir, int64_t max_objects);
  QuotaStatus GetQuota(const std::string& dir) const;

  /// Fleet-wide aggregation across shards.
  NameNodeStats AggregateStats() const;
  int64_t OpenCallsInHour(SimTime hour_start) const;
  /// RPCs issued during the hour starting at `hour_start`, summed across
  /// NameNode shards (epoch-barrier load tallies).
  int64_t RpcsInHour(SimTime hour_start) const;

  /// Installs (or clears, with nullptr) the epoch-barriered fleet load
  /// view on every NameNode shard (see NameNode::SetEpochLoadView).
  void SetEpochLoadView(const EpochLoadView* view);

  /// Installs (or clears, with nullptr) the fault injector on every
  /// NameNode shard (see NameNode::SetFaultInjector).
  void SetFaultInjector(fault::FaultInjector* injector);

  /// Installs (or clears, with nullptr) the trace recorder on every
  /// NameNode shard (see NameNode::SetTraceRecorder).
  void SetTraceRecorder(obs::TraceRecorder* trace);

  /// Runs NameNode::AuditAccounting on every shard; first failure wins.
  Status AuditAccounting() const;

  int num_shards() const { return static_cast<int>(shards_.size()); }
  NameNode& shard(int i) { return *shards_[static_cast<size_t>(i)]; }
  const NameNode& shard(int i) const { return *shards_[static_cast<size_t>(i)]; }

 private:
  int ShardFor(const std::string& path) const;

  std::vector<std::unique_ptr<NameNode>> shards_;
  std::vector<std::pair<std::string, int>> mounts_;  // longest-prefix wins
};

}  // namespace autocomp::storage
