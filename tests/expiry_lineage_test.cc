// Snapshot expiry from commit lineage (labels: fault, expiry).
// lst::ExpireSnapshots derives orphans from the removed_paths of the
// snapshots whose predecessor expires, never walking live manifests. This
// suite pins that against the string-set algorithm it replaced, kept here
// as the oracle, over randomized histories; proves the O(removed) cost
// with a deterministic counter; and checks that a history the lineage
// rule cannot trust is refused without deleting anything.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <functional>
#include <map>
#include <ostream>
#include <random>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "catalog/catalog.h"
#include "catalog/control_plane.h"
#include "common/blob.h"
#include "common/clock.h"
#include "fault/fault_injector.h"
#include "lst/metadata_blob.h"
#include "lst/table.h"
#include "lst/transaction.h"
#include "storage/filesystem.h"

namespace autocomp::lst {
namespace {

// ------------------------------------------------------------ Oracle

struct ReferenceExpiry {
  std::vector<std::string> orphaned_paths;
  int64_t expired_snapshots = 0;
};

// The orphan computation ExpireSnapshots used before it derived orphans
// from lineage: classify each snapshot, build the string set of every
// path any retained snapshot references, and orphan every path of an
// expired snapshot outside it. O(live files x retained snapshots).
ReferenceExpiry ReferenceExpire(const TableMetadata& meta, SimTime older_than,
                                int keep_last) {
  ReferenceExpiry out;
  const auto& snapshots = meta.snapshots();
  const size_t keep_tail = std::min(
      snapshots.size(), static_cast<size_t>(std::max(1, keep_last)));
  std::vector<const Snapshot*> retained;
  std::vector<const Snapshot*> expired;
  for (size_t i = 0; i < snapshots.size(); ++i) {
    const Snapshot& s = snapshots[i];
    const bool in_tail = i + keep_tail >= snapshots.size();
    const bool is_current = s.snapshot_id == meta.current_snapshot_id();
    if (in_tail || is_current || s.timestamp >= older_than) {
      retained.push_back(&s);
    } else {
      expired.push_back(&s);
    }
  }
  std::set<std::string> referenced;
  for (const Snapshot* s : retained) {
    for (const ManifestPtr& m : s->manifests) {
      for (const DataFile& f : m->files()) referenced.insert(f.path);
    }
  }
  std::set<std::string> orphaned;
  for (const Snapshot* s : expired) {
    for (const ManifestPtr& m : s->manifests) {
      for (const DataFile& f : m->files()) {
        if (referenced.count(f.path) == 0) orphaned.insert(f.path);
      }
    }
  }
  out.orphaned_paths.assign(orphaned.begin(), orphaned.end());
  out.expired_snapshots = static_cast<int64_t>(expired.size());
  return out;
}

// ------------------------------------------------------------ Fixtures

// In-memory MetadataStore that remembers the version each successful
// commit replaced (the metadata an expiry was computed against) and can
// land one concurrent commit just before the next expiry CAS, so the
// expiry loses the race organically and recomputes on the new version.
class RacingStore final : public MetadataStore {
 public:
  Result<TableMetadataPtr> LoadTable(const std::string& name) const override {
    const auto it = tables_.find(name);
    if (it == tables_.end()) return Status::NotFound(name);
    return it->second;
  }
  Status CommitTable(const std::string& name, int64_t base_version,
                     TableMetadataPtr new_metadata) override {
    if (race_) {
      std::function<void()> race = std::move(race_);
      race_ = nullptr;
      race();
    }
    auto it = tables_.find(name);
    if (it == tables_.end()) return Status::NotFound(name);
    if (it->second->version() != base_version) {
      return Status::CommitConflict("version moved");
    }
    last_replaced_ = std::move(it->second);
    it->second = std::move(new_metadata);
    return Status::OK();
  }
  fault::FaultInjector* fault_injector() const override { return injector_; }

  void Put(const std::string& name, TableMetadataPtr meta) {
    tables_[name] = std::move(meta);
  }
  void SetFaultInjector(fault::FaultInjector* injector) {
    injector_ = injector;
  }
  // Runs `race` inside the next CommitTable, before its version check.
  void RaceNextCommit(std::function<void()> race) { race_ = std::move(race); }
  const TableMetadataPtr& last_replaced() const { return last_replaced_; }

 private:
  std::map<std::string, TableMetadataPtr> tables_;
  fault::FaultInjector* injector_ = nullptr;
  std::function<void()> race_;
  TableMetadataPtr last_replaced_;
};

constexpr char kTable[] = "db.t";

TableMetadataPtr NewTableMetadata() {
  Schema schema(0, {{1, "d", FieldType::kDate, true}});
  PartitionSpec spec(1, {{1, Transform::kMonth, "m"}});
  TableMetadata::Builder builder(kTable, "/data/db/t", schema, spec);
  builder.SetCreatedAt(0);
  auto meta = builder.Build();
  EXPECT_TRUE(meta.ok());
  return *meta;
}

DataFile NewFile(int64_t id, std::mt19937_64* rng,
                 FileContent content = FileContent::kData) {
  DataFile f;
  f.path = "/data/db/t/f" + std::to_string(id);
  f.partition = "m=2024-0" + std::to_string(1 + (*rng)() % 4);
  f.content = content;
  f.file_size_bytes = 1 + static_cast<int64_t>((*rng)() % 1000);
  f.record_count = 1;
  return f;
}

std::vector<std::string> LivePaths(const TableMetadata& meta) {
  std::vector<std::string> paths;
  meta.ForEachLiveFile([&](const DataFile& f) { paths.push_back(f.path); });
  return paths;
}

// Picks between 1 and `max` distinct live paths.
std::vector<std::string> PickLive(const TableMetadata& meta, size_t max,
                                  std::mt19937_64* rng) {
  std::vector<std::string> live = LivePaths(meta);
  std::shuffle(live.begin(), live.end(), *rng);
  live.resize(std::min(live.size(), 1 + (*rng)() % max));
  return live;
}

// One random commit: appends (data or MoR position-delete files),
// compaction rewrites, CoW overwrites and deletes, in a mix that keeps the
// live set growing so the manifest list passes the merge threshold.
void RandomCommit(RacingStore* store, const Clock* clock, int64_t* next_file,
                  std::mt19937_64* rng) {
  Table table(store, kTable, clock);
  auto meta = table.Metadata();
  ASSERT_TRUE(meta.ok());
  const bool has_live = (*meta)->live_file_count() > 0;
  auto txn = table.NewTransaction();
  ASSERT_TRUE(txn.ok());
  const uint64_t op = (*rng)() % 20;
  if (!has_live || op < 14) {
    std::vector<DataFile> files;
    const int n = 1 + static_cast<int>((*rng)() % 3);
    for (int i = 0; i < n; ++i) {
      const FileContent content = (*rng)() % 4 == 0
                                      ? FileContent::kPositionDeletes
                                      : FileContent::kData;
      files.push_back(NewFile((*next_file)++, rng, content));
    }
    ASSERT_TRUE(txn->Append(std::move(files)).ok());
  } else if (op < 16) {
    ASSERT_TRUE(txn->RewriteFiles(PickLive(**meta, 6, rng),
                                  {NewFile((*next_file)++, rng)})
                    .ok());
  } else if (op < 19) {
    std::vector<DataFile> added;
    const int n = static_cast<int>((*rng)() % 3);
    for (int i = 0; i < n; ++i) added.push_back(NewFile((*next_file)++, rng));
    ASSERT_TRUE(txn->Overwrite(PickLive(**meta, 2, rng), std::move(added))
                    .ok());
  } else {
    ASSERT_TRUE(txn->DeleteFiles(PickLive(**meta, 2, rng)).ok());
  }
  ASSERT_TRUE(txn->Commit().ok());
}

// Replaces the stored metadata with its blob round-trip, so the next
// expiry reads removed_paths as the checkpoint codec restored them.
void RoundTripThroughBlob(RacingStore* store) {
  auto meta = store->LoadTable(kTable);
  ASSERT_TRUE(meta.ok());
  common::BlobWriter writer;
  TableMetadataToBlob(**meta, &writer);
  const std::string blob = writer.Take();
  common::BlobReader reader(blob);
  auto restored = TableMetadataFromBlob(&reader);
  ASSERT_TRUE(restored.ok()) << restored.status();
  ASSERT_EQ((*restored)->version(), (*meta)->version());
  store->Put(kTable, *restored);
}

// ------------------------------------------------------------ Oracle test

struct HistoryConfig {
  uint64_t seed = 0;
  int commits = 0;
  int keep_last = 1;
  bool blob_round_trip = false;
  bool scripted_races = false;
};

// Replays one randomized history, expiring every seventh commit, and
// checks every expiry against the oracle applied to the exact version the
// expiry committed against. Counts committed expiries, their orphans and
// the longest head manifest list, so callers can reject vacuous runs.
void RunHistory(const HistoryConfig& config, int64_t* expiries,
                int64_t* orphans, size_t* max_manifests) {
  std::mt19937_64 rng(config.seed);
  SimulatedClock clock(0);
  RacingStore store;
  store.Put(kTable, NewTableMetadata());

  fault::FaultInjectorOptions fault_options;
  fault_options.enabled = config.scripted_races;
  for (uint64_t hit : {1, 2, 4, 7, 11, 12, 20, 31}) {
    fault_options.schedule.Add(fault::kSiteRetentionExpire, hit,
                               fault::FaultKind::kCasRaceConflict);
  }
  fault::FaultInjector injector(fault_options);
  injector.set_armed(true);
  store.SetFaultInjector(&injector);

  int64_t next_file = 0;
  for (int c = 0; c < config.commits; ++c) {
    clock.Advance(static_cast<SimTime>(rng() % 3) * kHour);
    RandomCommit(&store, &clock, &next_file, &rng);
    if (::testing::Test::HasFatalFailure()) return;
    if (auto meta = store.LoadTable(kTable); meta.ok()) {
      const Snapshot* head = (*meta)->current_snapshot();
      *max_manifests = std::max(*max_manifests, head->manifests.size());
    }
    if (c % 7 != 6) continue;

    if (config.blob_round_trip) {
      RoundTripThroughBlob(&store);
      if (::testing::Test::HasFatalFailure()) return;
    }
    if (config.scripted_races && rng() % 2 == 0) {
      // A writer lands an append between the expiry's load and its CAS.
      store.RaceNextCommit([&store, &clock, &next_file, &rng] {
        Table table(&store, kTable, &clock);
        auto txn = table.NewTransaction();
        ASSERT_TRUE(txn.ok());
        ASSERT_TRUE(txn->Append({NewFile(next_file++, &rng)}).ok());
        ASSERT_TRUE(txn->Commit().ok());
      });
    }
    const SimTime older_than =
        clock.Now() - static_cast<SimTime>(rng() % 12) * kHour;
    auto before = store.LoadTable(kTable);
    ASSERT_TRUE(before.ok());
    auto result =
        ExpireSnapshots(&store, kTable, &clock, older_than, config.keep_last);
    ASSERT_TRUE(result.ok()) << result.status();
    store.RaceNextCommit(nullptr);
    if (result->expired_snapshots == 0) {
      // Nothing expired, nothing committed: the oracle agrees on the
      // version the call last loaded.
      auto now = store.LoadTable(kTable);
      ASSERT_TRUE(now.ok());
      const ReferenceExpiry want =
          ReferenceExpire(**now, older_than, config.keep_last);
      EXPECT_EQ(want.expired_snapshots, 0);
      EXPECT_TRUE(result->orphaned_paths.empty());
      continue;
    }
    // The expiry committed; its base is the version it replaced.
    const TableMetadataPtr& base = store.last_replaced();
    ASSERT_NE(base, nullptr);
    const ReferenceExpiry want =
        ReferenceExpire(*base, older_than, config.keep_last);
    ASSERT_EQ(result->orphaned_paths, want.orphaned_paths)
        << "seed " << config.seed << " commit " << c;
    ASSERT_EQ(result->expired_snapshots, want.expired_snapshots);
    ASSERT_TRUE(std::is_sorted(result->orphaned_paths.begin(),
                               result->orphaned_paths.end()));
    // Paths are never reused, so every removed path read is an orphan.
    EXPECT_EQ(result->paths_examined,
              static_cast<int64_t>(result->orphaned_paths.size()));
    EXPECT_EQ(result->metadata->snapshots().size(),
              base->snapshots().size() -
                  static_cast<size_t>(want.expired_snapshots));
    ++*expiries;
    *orphans += static_cast<int64_t>(result->orphaned_paths.size());
  }
  if (config.scripted_races) {
    EXPECT_GT(injector.total_injected(), 0) << "vacuous race script";
  }
}

std::string ConfigName(const HistoryConfig& c) {
  return "keep" + std::to_string(c.keep_last) +
         (c.blob_round_trip ? "_blob" : "_live") +
         (c.scripted_races ? "_races" : "_calm");
}

void PrintTo(const HistoryConfig& c, std::ostream* os) {
  *os << ConfigName(c) << "_seed" << c.seed;
}

class ExpiryOracleTest : public ::testing::TestWithParam<HistoryConfig> {};

TEST_P(ExpiryOracleTest, MatchesStringSetReference) {
  int64_t expiries = 0;
  int64_t orphans = 0;
  size_t max_manifests = 0;
  RunHistory(GetParam(), &expiries, &orphans, &max_manifests);
  if (HasFatalFailure()) return;
  EXPECT_GT(expiries, 5);
  EXPECT_GT(orphans, 0);
  // More than 100 manifests were written, so MaybeMergeManifests fired
  // and capped the head's list at the default maximum.
  EXPECT_EQ(max_manifests, 100u);
}

std::vector<HistoryConfig> OracleConfigs() {
  std::vector<HistoryConfig> configs;
  uint64_t seed = 11;
  for (int keep_last : {1, 3}) {
    for (bool blob : {false, true}) {
      for (bool races : {false, true}) {
        configs.push_back(HistoryConfig{seed++, 600, keep_last, blob, races});
      }
    }
  }
  return configs;
}

INSTANTIATE_TEST_SUITE_P(
    Histories, ExpiryOracleTest, ::testing::ValuesIn(OracleConfigs()),
    [](const ::testing::TestParamInfo<HistoryConfig>& info) {
      return ConfigName(info.param);
    });

// ------------------------------------------------------- Cost by construction

// N live files; the expired snapshot's successor removed k of them. The
// orphan computation reads exactly those k removed paths, whatever N is,
// and never the later snapshot's removals (its predecessor is retained).
TEST(ExpiryCostTest, ExaminesOnlyPathsRemovedAtTheExpiryBoundary) {
  for (const int64_t n : {int64_t{10}, int64_t{10'000}}) {
    SCOPED_TRACE("N=" + std::to_string(n));
    std::mt19937_64 rng(n);
    SimulatedClock clock(0);
    RacingStore store;
    store.Put(kTable, NewTableMetadata());
    Table table(&store, kTable, &clock);
    int64_t next_file = 0;
    {
      std::vector<DataFile> files;
      for (int64_t i = 0; i < n; ++i) files.push_back(NewFile(next_file++, &rng));
      auto txn = table.NewTransaction();
      ASSERT_TRUE(txn->Append(std::move(files)).ok());
      ASSERT_TRUE(txn->Commit().ok());
    }
    constexpr int64_t kRemoved = 3;
    clock.AdvanceTo(kHour);
    {
      auto txn = table.NewTransaction();
      ASSERT_TRUE(txn->RewriteFiles({"/data/db/t/f0", "/data/db/t/f1",
                                     "/data/db/t/f2"},
                                    {NewFile(next_file++, &rng)})
                      .ok());
      ASSERT_TRUE(txn->Commit().ok());
    }
    clock.AdvanceTo(2 * kHour);
    {
      auto txn = table.NewTransaction();
      ASSERT_TRUE(txn->DeleteFiles({"/data/db/t/f3", "/data/db/t/f4"}).ok());
      ASSERT_TRUE(txn->Commit().ok());
    }
    clock.AdvanceTo(10 * kHour);
    auto result = ExpireSnapshots(&store, kTable, &clock,
                                  /*older_than=*/5 * kHour, /*keep_last=*/2);
    ASSERT_TRUE(result.ok()) << result.status();
    EXPECT_EQ(result->expired_snapshots, 1);
    EXPECT_EQ(result->paths_examined, kRemoved);
    EXPECT_EQ(result->orphaned_paths,
              (std::vector<std::string>{"/data/db/t/f0", "/data/db/t/f1",
                                        "/data/db/t/f2"}));
    EXPECT_EQ(result->metadata->live_file_count(), n - 4);
  }
}

// ------------------------------------------------------- Corrupt lineage

class CorruptLineageTest : public ::testing::Test {
 protected:
  CorruptLineageTest() : dfs_(&clock_, 1), catalog_(&clock_, &dfs_),
                         plane_(&catalog_) {
    EXPECT_TRUE(catalog_.CreateDatabase("db").ok());
    EXPECT_TRUE(catalog_
                    .CreateTable("db", "t",
                                 Schema(0, {{1, "d", FieldType::kDate, true}}),
                                 PartitionSpec::Unpartitioned())
                    .ok());
    catalog::TablePolicy policy;
    policy.snapshot_retention = kHour;
    plane_.SetPolicy(kTable, policy);
  }

  DataFile StoreFile(const std::string& path) {
    EXPECT_TRUE(dfs_.CreateFile(path, 100, 1).ok());
    DataFile f;
    f.path = path;
    f.file_size_bytes = 100;
    f.record_count = 1;
    return f;
  }

  // append(a, b) -> rewrite(a, b -> c) -> append(d): expiring the first
  // two snapshots would orphan a and b.
  void BuildHistory() {
    Table table = *catalog_.GetTable(kTable);
    auto append = table.NewTransaction();
    ASSERT_TRUE(append->Append({StoreFile("/a"), StoreFile("/b")}).ok());
    ASSERT_TRUE(append->Commit().ok());
    clock_.AdvanceTo(kHour);
    auto rewrite = table.NewTransaction();
    ASSERT_TRUE(rewrite->RewriteFiles({"/a", "/b"}, {StoreFile("/c")}).ok());
    ASSERT_TRUE(rewrite->Commit().ok());
    clock_.AdvanceTo(2 * kHour);
    auto tail = table.NewTransaction();
    ASSERT_TRUE(tail->Append({StoreFile("/d")}).ok());
    ASSERT_TRUE(tail->Commit().ok());
  }

  // Re-commits the history with `edit` applied to the snapshot list,
  // built through Builder::SetSnapshots the way a hand-edited or corrupt
  // metadata file would arrive.
  void CommitEditedHistory(
      const std::function<void(std::vector<Snapshot>*)>& edit) {
    TableMetadataPtr meta = *catalog_.LoadTable(kTable);
    std::vector<Snapshot> snapshots = meta->snapshots();
    edit(&snapshots);
    TableMetadata::Builder builder(*meta);
    Snapshot head = snapshots.back();
    snapshots.pop_back();
    builder.SetSnapshots(std::move(snapshots));
    builder.AddSnapshot(std::move(head));
    auto edited = builder.Build();
    ASSERT_TRUE(edited.ok());
    ASSERT_TRUE(catalog_.CommitTable(kTable, meta->version(), *edited).ok());
  }

  // Runs retention and asserts it was refused with nothing deleted and no
  // metadata version committed.
  void ExpectRefused() {
    const int64_t files_before = dfs_.AggregateStats().file_count;
    const int64_t version_before = (*catalog_.LoadTable(kTable))->version();
    clock_.AdvanceTo(100 * kHour);
    auto report = plane_.RunRetentionFor(kTable);
    ASSERT_FALSE(report.ok());
    EXPECT_TRUE(report.status().IsFailedPrecondition()) << report.status();
    EXPECT_EQ(dfs_.AggregateStats().file_count, files_before);
    EXPECT_EQ((*catalog_.LoadTable(kTable))->version(), version_before);
    EXPECT_TRUE(dfs_.Exists("/a"));
    EXPECT_TRUE(dfs_.Exists("/b"));
  }

  SimulatedClock clock_{0};
  storage::DistributedFileSystem dfs_;
  catalog::Catalog catalog_;
  catalog::ControlPlane plane_;
};

TEST_F(CorruptLineageTest, BrokenParentLinkIsRefused) {
  BuildHistory();
  CommitEditedHistory(
      [](std::vector<Snapshot>* s) { (*s)[1].parent_snapshot_id = 999; });
  ExpectRefused();
}

TEST_F(CorruptLineageTest, RetainedSnapshotsNotASuffixAreRefused) {
  BuildHistory();
  // The first snapshot claims a timestamp after the cutoff while its
  // successor falls before it: retention would keep a snapshot ahead of
  // an expired one.
  CommitEditedHistory(
      [](std::vector<Snapshot>* s) { (*s)[0].timestamp = 1000 * kHour; });
  ExpectRefused();
}

TEST_F(CorruptLineageTest, IntactLineageStillExpires) {
  BuildHistory();
  clock_.AdvanceTo(100 * kHour);
  auto report = plane_.RunRetentionFor(kTable);
  ASSERT_TRUE(report.ok()) << report.status();
  EXPECT_EQ(report->snapshots_expired, 2);
  EXPECT_EQ(report->files_deleted, 2);
  EXPECT_FALSE(dfs_.Exists("/a"));
  EXPECT_FALSE(dfs_.Exists("/b"));
  EXPECT_TRUE(dfs_.Exists("/c"));
}

}  // namespace
}  // namespace autocomp::lst
