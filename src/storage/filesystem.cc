#include "storage/filesystem.h"

#include <algorithm>
#include <cassert>
#include <functional>

namespace autocomp::storage {

DistributedFileSystem::DistributedFileSystem(const Clock* clock,
                                             int num_shards,
                                             NameNodeOptions options) {
  assert(num_shards >= 1);
  shards_.reserve(static_cast<size_t>(num_shards));
  for (int i = 0; i < num_shards; ++i) {
    NameNodeOptions shard_options = options;
    shard_options.seed = options.seed + static_cast<uint64_t>(i) * 7919;
    shards_.push_back(std::make_unique<NameNode>(clock, shard_options));
  }
}

Status DistributedFileSystem::AddMount(const std::string& prefix, int shard) {
  if (shard < 0 || shard >= num_shards()) {
    return Status::InvalidArgument("shard out of range: " +
                                   std::to_string(shard));
  }
  if (prefix.empty() || prefix.front() != '/') {
    return Status::InvalidArgument("mount prefix must be absolute");
  }
  mounts_.emplace_back(prefix, shard);
  // Longest-prefix-first ordering makes ShardFor a linear scan that stops
  // at the first (most specific) match.
  std::sort(mounts_.begin(), mounts_.end(),
            [](const auto& a, const auto& b) {
              return a.first.size() > b.first.size();
            });
  return Status::OK();
}

int DistributedFileSystem::ShardFor(const std::string& path) const {
  for (const auto& [prefix, shard] : mounts_) {
    if (path.compare(0, prefix.size(), prefix) == 0 &&
        (path.size() == prefix.size() || path[prefix.size()] == '/')) {
      return shard;
    }
  }
  // Stable routing by first path component.
  const size_t end = path.find('/', 1);
  const std::string head =
      end == std::string::npos ? path : path.substr(0, end);
  return static_cast<int>(std::hash<std::string>{}(head) % shards_.size());
}

Status DistributedFileSystem::CreateFile(const std::string& path,
                                         int64_t size_bytes,
                                         int64_t record_count) {
  return shards_[static_cast<size_t>(ShardFor(path))]->CreateFile(
      path, size_bytes, record_count);
}

Status DistributedFileSystem::DeleteFile(const std::string& path) {
  return shards_[static_cast<size_t>(ShardFor(path))]->DeleteFile(path);
}

Status DistributedFileSystem::Open(const std::string& path) {
  return shards_[static_cast<size_t>(ShardFor(path))]->Open(path);
}

Result<FileInfo> DistributedFileSystem::Stat(const std::string& path) const {
  return shards_[static_cast<size_t>(ShardFor(path))]->Stat(path);
}

bool DistributedFileSystem::Exists(const std::string& path) const {
  return shards_[static_cast<size_t>(ShardFor(path))]->Exists(path);
}

std::vector<FileInfo> DistributedFileSystem::ListFiles(
    const std::string& dir_prefix) {
  // A directory may only live on one shard (mount granularity is a
  // prefix), but hash-routed paths sharing the prefix could scatter; list
  // all shards and merge to stay correct in both regimes.
  std::vector<FileInfo> out;
  for (auto& shard : shards_) {
    auto part = shard->ListFiles(dir_prefix);
    out.insert(out.end(), part.begin(), part.end());
  }
  std::sort(out.begin(), out.end(),
            [](const FileInfo& a, const FileInfo& b) { return a.path < b.path; });
  return out;
}

void DistributedFileSystem::SetNamespaceQuota(const std::string& dir,
                                              int64_t max_objects) {
  shards_[static_cast<size_t>(ShardFor(dir))]->SetNamespaceQuota(dir,
                                                                 max_objects);
}

QuotaStatus DistributedFileSystem::GetQuota(const std::string& dir) const {
  return shards_[static_cast<size_t>(ShardFor(dir))]->GetQuota(dir);
}

NameNodeStats DistributedFileSystem::AggregateStats() const {
  NameNodeStats agg;
  for (const auto& shard : shards_) {
    const NameNodeStats& s = shard->stats();
    agg.total_objects += s.total_objects;
    agg.file_count += s.file_count;
    agg.open_calls += s.open_calls;
    agg.create_calls += s.create_calls;
    agg.delete_calls += s.delete_calls;
    agg.list_calls += s.list_calls;
    agg.timeouts += s.timeouts;
  }
  return agg;
}

int64_t DistributedFileSystem::OpenCallsInHour(SimTime hour_start) const {
  int64_t total = 0;
  for (const auto& shard : shards_) total += shard->OpenCallsInHour(hour_start);
  return total;
}

int64_t DistributedFileSystem::RpcsInHour(SimTime hour_start) const {
  int64_t total = 0;
  for (const auto& shard : shards_) total += shard->RpcsInHour(hour_start);
  return total;
}

void DistributedFileSystem::SetEpochLoadView(const EpochLoadView* view) {
  for (const auto& shard : shards_) shard->SetEpochLoadView(view);
}

void DistributedFileSystem::SetFaultInjector(fault::FaultInjector* injector) {
  for (const auto& shard : shards_) shard->SetFaultInjector(injector);
}

void DistributedFileSystem::SetTraceRecorder(obs::TraceRecorder* trace) {
  for (const auto& shard : shards_) shard->SetTraceRecorder(trace);
}

Status DistributedFileSystem::AuditAccounting() const {
  for (size_t i = 0; i < shards_.size(); ++i) {
    if (Status s = shards_[i]->AuditAccounting(); !s.ok()) {
      return Status::Internal("shard " + std::to_string(i) + ": " +
                              s.message());
    }
  }
  return Status::OK();
}

}  // namespace autocomp::storage
