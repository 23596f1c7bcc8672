// Regression pin for the fleet driver's same-instant wake ordering.
//
// The due-lane collection used to sort by *lane index* (enumeration
// order). Fleet databases are named "tenant%03d", so past 1000 lanes the
// index order diverges from name order ("tenant1000" < "tenant101"
// lexicographically) and same-instant wakes advanced in an order that
// was neither name-sorted nor stable under arming history. The fix
// sorts due lanes by database name; these tests pin it:
//  * a preset arms every lane at the same first trigger — the first
//    residency touch of each lane must walk the name-sorted database
//    list;
//  * an evict/restore cycle (checkpoint + rehydrate) must not reorder
//    same-instant wakes or change any published metric.

#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "sim/fleet_driver.h"
#include "sim/metrics.h"
#include "sim/presets.h"

namespace autocomp::sim {
namespace {

/// Just past the "tenant%03d" rollover: tenant1000..tenant1004 sort
/// between tenant100 and tenant101, so name order != index order.
constexpr int kLanes = 1005;

FleetSimOptions BigFleet() {
  FleetSimOptions options;
  options.days = 1;
  options.seed = 7;
  options.fleet.num_databases = kLanes;
  options.fleet.tables_per_db = 1;
  options.fleet.new_tables_per_day = 0;
  options.fleet.seed = 77;
  options.driver.sample_interval = 8 * kHour;
  options.driver.retention_interval = kDay;
  options.sharded = false;
  return options;
}

FleetSimResult RunOrDie(FleetSimOptions options) {
  FleetSimulation simulation(std::move(options));
  auto result = simulation.Run();
  EXPECT_TRUE(result.ok()) << result.status();
  return result.ok() ? std::move(*result) : FleetSimResult{};
}

TEST(FleetWakeOrderTest, SameInstantWakesAdvanceInNameOrder) {
  // A preset arms every lane at first_trigger, so the whole fleet wakes
  // at the same instant and hydrates in due order. The first residency
  // touch of each lane must therefore walk the name-sorted database
  // list — with index-ordered wakes, tenant101..tenant999 would hydrate
  // before tenant1000.
  FleetSimOptions options = BigFleet();
  StrategyPreset preset;
  preset.scope = ScopeStrategy::kTable;
  preset.k = 1;
  options.preset = preset;

  std::vector<std::string> first_touch;
  std::set<std::string> seen;
  options.on_lane_residency = [&](const std::string& db, int64_t, int64_t) {
    if (seen.insert(db).second) first_touch.push_back(db);
  };
  RunOrDie(std::move(options));

  ASSERT_EQ(first_touch.size(), static_cast<size_t>(kLanes));
  std::vector<std::string> sorted = first_touch;
  std::sort(sorted.begin(), sorted.end());
  // Spot the rollover explicitly before the full comparison so a
  // regression names the exact pair.
  const auto pos_1000 =
      std::find(first_touch.begin(), first_touch.end(), "tenant1000");
  const auto pos_101 =
      std::find(first_touch.begin(), first_touch.end(), "tenant101");
  ASSERT_NE(pos_1000, first_touch.end());
  ASSERT_NE(pos_101, first_touch.end());
  EXPECT_LT(pos_1000 - first_touch.begin(), pos_101 - first_touch.begin())
      << "same-instant wakes advanced in lane-index order, not name order";
  EXPECT_EQ(first_touch, sorted);
}

TEST(FleetWakeOrderTest, EvictRestoreCyclesDoNotReorderOrPerturb) {
  // Evict/restore history must be invisible: a run under a tight
  // resident-lane budget (lanes checkpoint and rehydrate continually,
  // re-entering the wake wheel in restore order) must publish exactly
  // the metrics of the unbounded run. The evictor refuses a preset, so
  // this leg exercises the event-driven wake path.
  FleetSimOptions unbounded = BigFleet();
  const FleetSimResult baseline = RunOrDie(std::move(unbounded));
  ASSERT_GT(baseline.events_executed, 0);

  FleetSimOptions bounded = BigFleet();
  bounded.max_resident_lanes = 16;
  const FleetSimResult evicted = RunOrDie(std::move(bounded));
  EXPECT_GT(evicted.lanes_evicted, 0)
      << "the budget never evicted; the comparison is vacuous";

  EXPECT_EQ(baseline.events_executed, evicted.events_executed);
  EXPECT_EQ(baseline.total_files, evicted.total_files);
  std::string why;
  EXPECT_TRUE(baseline.metrics.Equals(evicted.metrics, &why)) << why;
  EXPECT_EQ(baseline.metrics.ContentHash(), evicted.metrics.ContentHash());
}

}  // namespace
}  // namespace autocomp::sim
