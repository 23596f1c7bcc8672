// Bit-identity and bounded-residency tests for the fleet lane evictor
// (DESIGN.md §10). The contract under test: dehydrating lanes into
// checkpoints at ANY budget — even "evict everything, every hour" — and
// restoring them on their next due event must not change a single
// sample of the merged metrics, any total, or the injected-fault
// stream, across seeds, shard counts and pool sizes. The runs span
// enough days that 3-day snapshot retention actually expires lineage
// (with a persisted metadata footprint, so expiry is storage-visible
// and a mistimed deferred tick would diverge the RPC stream).

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <utility>

#include "common/blob.h"
#include "common/thread_pool.h"
#include "fault/fault_injector.h"
#include "lst/metadata_blob.h"
#include "lst/metadata_json.h"
#include "lst/transaction.h"
#include "sim/fleet_driver.h"
#include "sim/metrics.h"
#include "storage/filesystem.h"

namespace autocomp::sim {
namespace {

FleetSimOptions EvictableFleet(uint64_t seed) {
  FleetSimOptions options;
  // 4 days > the fleet's 3-day snapshot retention: day-0 lineage heads
  // expire mid-run, so the evictor's effective-retention wake is load
  // bearing, not vacuous.
  options.days = 4;
  options.seed = seed;
  options.fleet.num_databases = 6;
  options.fleet.tables_per_db = 3;
  options.fleet.new_tables_per_day = 2;
  // Low capacity so fleet-wide load crosses it and the epoch-load
  // timeout path fires — the cross-lane coupling eviction must not skew.
  options.env.namenode.rpc_capacity_per_hour = 200;
  // Persisted metadata makes snapshot expiry visible in storage (object
  // creates/deletes): any divergence in deferred retention ticks shows
  // up in total_files and the RPC tallies, not just catalog internals.
  options.env.catalog.persist_metadata = true;
  options.driver.sample_interval = 4 * kHour;
  options.driver.retention_interval = kHour;
  return options;
}

FleetSimResult RunOrDie(FleetSimOptions options) {
  FleetSimulation simulation(std::move(options));
  auto result = simulation.Run();
  EXPECT_TRUE(result.ok()) << result.status();
  if (!result.ok()) return {};
  return std::move(*result);
}

void ExpectSameReplay(const FleetSimResult& a, const FleetSimResult& b,
                      const std::string& label) {
  EXPECT_EQ(a.events_executed, b.events_executed) << label;
  EXPECT_EQ(a.total_files, b.total_files) << label;
  EXPECT_EQ(a.open_calls, b.open_calls) << label;
  EXPECT_EQ(a.faults_injected, b.faults_injected) << label;
  std::string why;
  EXPECT_TRUE(a.metrics.Equals(b.metrics, &why)) << label << ": " << why;
}

// The headline matrix: evict-everything-every-hour under a budget of
// one resident lane vs never-evict, across seeds × shards × pools, once
// plain and once in deferred-compaction mode, whose lane checkpoints
// carry the maintenance scheduler's section. (Run rejects eviction with
// a preset, whose services are not checkpointed, so the deferred config
// has no control loop; tests/scheduler_test.cc round-trips a scheduler
// section with real ledgers.) The evicting runs audit invariants, which
// includes re-saving every restored lane: Save -> Restore -> Save must
// reproduce each evicted lane's blob byte for byte.
TEST(FleetEvictionTest, AggressiveEvictionIsBitIdenticalAcrossMatrix) {
  for (const bool deferred : {false, true}) {
    for (const uint64_t seed : {7ull, 11ull}) {
      FleetSimOptions baseline = EvictableFleet(seed);
      baseline.driver.deferred_compaction = deferred;
      baseline.sharded = false;
      const FleetSimResult reference = RunOrDie(std::move(baseline));

      for (const int shards : {1, 4}) {
        for (const int workers : {0, 2}) {
          std::unique_ptr<ThreadPool> pool;
          if (workers > 0) pool = std::make_unique<ThreadPool>(workers);
          FleetSimOptions options = EvictableFleet(seed);
          options.driver.deferred_compaction = deferred;
          options.shards = shards;
          options.pool = pool.get();
          options.max_resident_lanes = 1;
          options.evict_after_idle_hours = 1;
          options.check_invariants = true;
          const FleetSimResult evicting = RunOrDie(std::move(options));
          const std::string label = "deferred=" + std::to_string(deferred) +
                                    " seed=" + std::to_string(seed) +
                                    " shards=" + std::to_string(shards) +
                                    " workers=" + std::to_string(workers);
          EXPECT_GT(evicting.lanes_evicted, 0) << label;
          EXPECT_GT(evicting.lanes_restored, 0) << label;
          EXPECT_GT(evicting.checkpoint_bytes, 0) << label;
          ExpectSameReplay(reference, evicting, label);
        }
      }
    }
  }
}

// The eager hydrate-everything/advance-everything mode is the original
// bit-identity oracle; the evicting lazy path must match it too.
TEST(FleetEvictionTest, EvictionMatchesEagerReference) {
  FleetSimOptions eager = EvictableFleet(7);
  eager.lane_mode = LaneMode::kAdvanceAll;
  eager.sharded = false;
  const FleetSimResult reference = RunOrDie(std::move(eager));

  FleetSimOptions options = EvictableFleet(7);
  options.max_resident_lanes = 2;
  const FleetSimResult evicting = RunOrDie(std::move(options));
  EXPECT_GT(evicting.lanes_evicted, 0);
  ExpectSameReplay(reference, evicting, "evict-vs-eager");
}

// Idle-rule-only configuration (no budget): lanes dehydrate one idle
// hour after their last real work and restore on their next event.
TEST(FleetEvictionTest, IdleRuleAloneEvictsAndStaysBitIdentical) {
  FleetSimOptions baseline = EvictableFleet(11);
  baseline.sharded = false;
  const FleetSimResult reference = RunOrDie(std::move(baseline));

  FleetSimOptions options = EvictableFleet(11);
  options.sharded = false;
  options.evict_after_idle_hours = 1;
  const FleetSimResult evicting = RunOrDie(std::move(options));
  EXPECT_GT(evicting.lanes_evicted, 0);
  // Residency accounting counts restores: every restore re-enters the
  // resident set, so restores + hydrations bound the eviction count.
  EXPECT_GE(evicting.lanes_restored + evicting.lanes_hydrated,
            evicting.lanes_evicted);
  ExpectSameReplay(reference, evicting, "idle-only");
}

// Fault injection draws from counter-based per-lane streams that are
// part of the checkpoint; eviction must not shift a single injection.
TEST(FleetEvictionTest, EvictionUnderFaultsIsBitIdentical) {
  const auto faulty = [](uint64_t seed) {
    FleetSimOptions options = EvictableFleet(seed);
    options.env.fault.enabled = true;
    options.env.fault.seed = seed * 1000003;
    options.env.fault.profile.sites[fault::kSiteStorageOpen] = {
        {0.05, fault::FaultKind::kTimeout}};
    options.env.fault.profile.sites[fault::kSiteLstCommit] = {
        {0.05, fault::FaultKind::kCasRaceConflict}};
    // Expiry commits draw from their own site: deferred retention ticks
    // must not shift a single maintenance-path injection either.
    options.env.fault.profile.sites[fault::kSiteRetentionExpire] = {
        {0.05, fault::FaultKind::kCasRaceConflict}};
    return options;
  };
  FleetSimOptions baseline = faulty(7);
  baseline.sharded = false;
  const FleetSimResult reference = RunOrDie(std::move(baseline));
  EXPECT_GT(reference.faults_injected, 0) << "vacuous fault profile";

  FleetSimOptions options = faulty(7);
  options.shards = 4;
  options.max_resident_lanes = 1;
  options.evict_after_idle_hours = 1;
  const FleetSimResult evicting = RunOrDie(std::move(options));
  EXPECT_GT(evicting.lanes_evicted, 0);
  ExpectSameReplay(reference, evicting, "faulty-evict");
}

// The budget is enforced between epochs: lanes due in the same hour are
// all resident during that epoch, but the post-epoch eviction pass
// drains the resident set back to the budget. The residency hook must
// observe that drain (counting both restores and evictions — the
// satellite fix: a restore re-enters the resident set exactly like a
// first hydration, only the first hydration grows lanes_hydrated).
TEST(FleetEvictionTest, ResidencyHookObservesDrainToBudget) {
  FleetSimOptions options = EvictableFleet(7);
  options.sharded = false;
  options.max_resident_lanes = 2;
  bool exceeded = false;
  bool drained_after_exceeding = false;
  options.on_lane_residency = [&](const std::string&, int64_t resident,
                                  int64_t) {
    if (resident > 2) exceeded = true;
    if (exceeded && resident <= 2) drained_after_exceeding = true;
  };
  const FleetSimResult result = RunOrDie(std::move(options));
  EXPECT_GT(result.lanes_evicted, 0);
  EXPECT_GT(result.lanes_restored, 0);
  EXPECT_TRUE(exceeded) << "budget never stressed; test is vacuous";
  EXPECT_TRUE(drained_after_exceeding);
}

// Lane services are not checkpointed, so a preset cannot run under the
// evictor. Either eviction knob with a preset must be refused up front
// rather than silently ignored.
TEST(FleetEvictionTest, EvictionWithPresetIsRejected) {
  for (const bool by_budget : {true, false}) {
    FleetSimOptions options = EvictableFleet(7);
    options.days = 1;
    options.preset = StrategyPreset{};
    if (by_budget) {
      options.max_resident_lanes = 1;
    } else {
      options.evict_after_idle_hours = 1;
    }
    FleetSimulation simulation(std::move(options));
    const auto result = simulation.Run();
    ASSERT_FALSE(result.ok()) << "by_budget=" << by_budget;
    EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument)
        << result.status();
  }
}

// ------------------------------------------------ checkpoint codec

lst::Schema EvictSchema() {
  return lst::Schema(0, {{1, "v", lst::FieldType::kInt64, true}});
}

// The binary metadata codec must round-trip the full snapshot/manifest/
// file tree exactly; the JSON serializer is the equality oracle.
TEST(MetadataBlobTest, RoundTripsLineageExactly) {
  SimulatedClock clock(0);
  storage::DistributedFileSystem dfs(&clock, 1);
  catalog::Catalog catalog(&clock, &dfs);
  ASSERT_TRUE(catalog.CreateDatabase("db").ok());
  auto table = catalog.CreateTable("db", "t", EvictSchema(),
                                   lst::PartitionSpec::Unpartitioned());
  ASSERT_TRUE(table.ok());
  const auto store_file = [&](const std::string& path, int64_t size) {
    EXPECT_TRUE(dfs.CreateFile(path, size, size / 100).ok());
    lst::DataFile f;
    f.path = path;
    f.file_size_bytes = size;
    f.record_count = size / 100;
    return f;
  };
  {
    auto txn = table->NewTransaction();
    ASSERT_TRUE(txn->Append({store_file("/data/db/t/f1", 100),
                             store_file("/data/db/t/f2", 200)})
                    .ok());
    ASSERT_TRUE(txn->Commit().ok());
  }
  clock.AdvanceTo(kHour);
  {
    auto txn = table->NewTransaction();
    ASSERT_TRUE(txn->RewriteFiles({"/data/db/t/f1", "/data/db/t/f2"},
                                  {store_file("/data/db/t/c1", 290)})
                    .ok());
    ASSERT_TRUE(txn->Commit().ok());
  }
  auto metadata = catalog.LoadTable("db.t");
  ASSERT_TRUE(metadata.ok());

  common::BlobWriter writer;
  lst::TableMetadataToBlob(**metadata, &writer);
  const std::string blob = writer.Take();
  common::BlobReader reader(blob);
  auto restored = lst::TableMetadataFromBlob(&reader);
  ASSERT_TRUE(restored.ok()) << restored.status();
  EXPECT_TRUE(reader.exhausted());
  EXPECT_EQ(lst::TableMetadataToJson(**metadata),
            lst::TableMetadataToJson(**restored));
}

}  // namespace
}  // namespace autocomp::sim
