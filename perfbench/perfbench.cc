/// \file perfbench.cc
/// \brief Measurement program of the repository benchmark.
///
/// One invocation does one of four things and prints one JSON line on
/// stdout (progress and diagnostics go to stderr):
///
///   perfbench rep   --workload W --seed N   one timed repetition
///   perfbench trace --workload W --seed N   the traced run
///   perfbench probe                         host parallelism probe
///   perfbench reference                     host speed reference
///
/// perfbench/run.py repeats `rep` for the requested seconds with
/// `reference` around every repetition, reports medians at the reference
/// speed and checks that every repetition produced the same modelled
/// outcome. Everything here goes through the libraries' public API; no
/// timer is placed inside src/.
///
/// Workloads (perfbench/README.md records why each was chosen):
///   lake-replay       40x50-table fleet, 7 days, no compaction service
///   compaction-fleet  the same fleet, 2 days, deferred table compaction
///   cold-fleet        20,000 one-table databases, 7 days, resident-lane
///                     budget 4,096 with a 36 h idle rule
///   control-plane     one ~2,000-table catalog, decide-only cycles with
///                     20 appends between cycles
///
/// The timed repetition of a fleet workload is one sequential
/// FleetSimulation::Run. The traced run replays the same timeline lane by
/// lane (one SimEnvironment + EventDriver per tenant database) and times
/// every call into a layer from here; it also re-runs the timed
/// configuration once for the fleet driver's own counters and, for
/// compaction-fleet, checks that the 8-shard replay on a pool of nproc-1
/// workers equals the sequential one.

#include <algorithm>
#include <array>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <string>
#include <unordered_map>
#include <thread>
#include <utility>
#include <vector>

#include <sys/resource.h>
#include <time.h>

#include "common/counter_rng.h"
#include "common/json.h"
#include "common/random.h"
#include "common/thread_pool.h"
#include "core/pipeline.h"
#include "core/triggers.h"
#include "fault/invariant_checker.h"
#include "sim/driver.h"
#include "sim/environment.h"
#include "sim/fleet_driver.h"
#include "sim/lane_checkpoint.h"
#include "sim/metrics.h"
#include "sim/presets.h"
#include "workload/fleet.h"

using namespace autocomp;

namespace {

using SteadyClock = std::chrono::steady_clock;

double SecondsSince(SteadyClock::time_point start) {
  return std::chrono::duration<double>(SteadyClock::now() - start).count();
}

/// CPU seconds the process has used, over all its threads. A timed
/// repetition runs on one thread, so this is its busy time: unlike
/// wall-clock time, it leaves out the time it waits while other work runs
/// on its CPU.
double CpuSeconds() {
  struct timespec ts;
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) / 1e9;
}

double PeakRssMb() {
  struct rusage usage;
  std::memset(&usage, 0, sizeof(usage));
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

int HardwareThreads() {
  return std::max(1, static_cast<int>(std::thread::hardware_concurrency()));
}

/// Width of the pool the traced compaction-fleet run shards on: nproc - 1
/// workers, so the calling thread keeps a core. 0 (no pool) on a
/// single-core host.
int PoolWorkers() { return HardwareThreads() - 1; }

/// Quantile by linear interpolation (same rule as common::Sample).
double Quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const size_t lo = static_cast<size_t>(std::floor(pos));
  const size_t hi = std::min(values.size() - 1, lo + 1);
  const double frac = pos - static_cast<double>(lo);
  return values[lo] + (values[hi] - values[lo]) * frac;
}

/// FNV-1a over the bytes of a value sequence.
class Hasher {
 public:
  void Add(const void* data, size_t n) {
    const auto* p = static_cast<const unsigned char*>(data);
    for (size_t i = 0; i < n; ++i) {
      h_ ^= p[i];
      h_ *= 0x100000001b3ULL;
    }
  }
  void Add(const std::string& s) {
    Add(s.data(), s.size());
    Add(static_cast<int64_t>(s.size()));
  }
  void Add(int64_t v) { Add(&v, sizeof(v)); }
  void Add(double v) {
    uint64_t bits = 0;
    std::memcpy(&bits, &v, sizeof(bits));
    Add(&bits, sizeof(bits));
  }
  std::string Hex() const {
    char buf[20];
    std::snprintf(buf, sizeof(buf), "%016llx",
                  static_cast<unsigned long long>(h_));
    return buf;
  }

 private:
  uint64_t h_ = 0xcbf29ce484222325ULL;
};

/// Host wall-clock series the driver records next to the modelled ones
/// (pipeline_<phase>_ms). They differ on every run, so every modelled
/// comparison leaves them out.
bool IsHostTimeSeries(const std::string& name) {
  return name.rfind("pipeline_", 0) == 0 && name.size() > 3 &&
         name.compare(name.size() - 3, 3, "_ms") == 0;
}

/// Content hash of every modelled metric (series point for point, hourly
/// counters, hourly sample summaries), host-time series excluded.
std::string ModelledHash(const sim::MetricsRecorder& metrics) {
  const obs::MetricsSnapshot snapshot = metrics.Snapshot();
  std::set<std::string> names;
  for (const auto& [name, value] : snapshot.counters) names.insert(name);
  for (const auto& [name, value] : snapshot.gauges) names.insert(name);
  for (const auto& [name, value] : snapshot.summaries) names.insert(name);
  Hasher h;
  for (const std::string& name : names) {
    if (IsHostTimeSeries(name)) continue;
    h.Add(name);
    for (const sim::SeriesPoint& p : metrics.Series(name)) {
      h.Add(static_cast<int64_t>(p.time));
      h.Add(p.value);
    }
    for (const auto& [hour, count] : metrics.HourlyCounts(name)) {
      h.Add(static_cast<int64_t>(hour));
      h.Add(count);
    }
    for (const auto& [hour, s] : metrics.HourlySummaries(name)) {
      h.Add(static_cast<int64_t>(hour));
      h.Add(s.count);
      for (double v : {s.min, s.p25, s.median, s.p75, s.max}) h.Add(v);
    }
  }
  return h.Hex();
}

// ---------------------------------------------------------------------------
// Workload definitions.

enum class Workload {
  kLakeReplay,
  kCompactionFleet,
  kColdFleet,
  kControlPlane,
};

std::optional<Workload> ParseWorkload(const std::string& name) {
  if (name == "lake-replay") return Workload::kLakeReplay;
  if (name == "compaction-fleet") return Workload::kCompactionFleet;
  if (name == "cold-fleet") return Workload::kColdFleet;
  if (name == "control-plane") return Workload::kControlPlane;
  return std::nullopt;
}

/// Fleet generator options shared by every workload: `seed` drives the
/// table and event draws (seed 7 reproduces bench_sim_throughput's fleet,
/// generator seed 77), with its 128 MiB median table size.
workload::FleetOptions FleetBase(uint64_t seed) {
  workload::FleetOptions fleet;
  fleet.seed = seed + 70;
  fleet.size_mu = std::log(128.0 * kMiB);
  fleet.size_sigma = 1.2;
  return fleet;
}

/// The 40 x 50 tenant fleet of lake-replay, compaction-fleet and the
/// control-plane catalog.
workload::FleetOptions TenantFleet(uint64_t seed) {
  workload::FleetOptions fleet = FleetBase(seed);
  fleet.num_databases = 40;
  fleet.tables_per_db = 50;
  return fleet;
}

/// The timed configuration of a fleet workload. Every timed repetition
/// runs on the calling thread: the host's effective parallelism (see
/// Probe) swings between about 1 and nproc from minute to minute, so a
/// pooled rate would measure the neighbours. The traced run checks the
/// 8-shard pooled replay of compaction-fleet against this one.
sim::FleetSimOptions FleetOptions(Workload workload, uint64_t seed) {
  sim::FleetSimOptions options;
  options.seed = seed;
  options.sharded = false;
  options.shards = 1;
  options.driver.retention_interval = kDay;
  switch (workload) {
    case Workload::kLakeReplay:
      options.days = 7;
      options.fleet = TenantFleet(seed);
      options.env.namenode.rpc_capacity_per_hour = 2'000;
      options.driver.sample_interval = 4 * kHour;
      break;
    case Workload::kCompactionFleet: {
      options.days = 2;
      options.fleet = TenantFleet(seed);
      options.env.namenode.rpc_capacity_per_hour = 2'000;
      options.driver.sample_interval = 4 * kHour;
      options.driver.deferred_compaction = true;
      sim::StrategyPreset preset;  // hourly trigger, default scheduler
      preset.scope = sim::ScopeStrategy::kTable;
      preset.k = 5;
      preset.deferred_act = true;
      options.preset = preset;
      options.shards = 8;
      break;
    }
    case Workload::kColdFleet: {
      // Absolute activity fixed at ~1,000 writes and ~250 reads a day over
      // a Zipf hot subset; the working set exceeds the resident budget.
      constexpr int kTables = 20'000;
      options.days = 7;
      options.fleet = FleetBase(seed);
      options.fleet.num_databases = kTables;
      options.fleet.tables_per_db = 1;
      options.fleet.daily_write_fraction = 1000.0 / kTables;
      options.fleet.daily_reads_per_table = 250.0 / kTables;
      options.fleet.new_tables_per_day = 20;
      options.env.namenode.rpc_capacity_per_hour = kTables;
      options.driver.sample_interval = 12 * kHour;
      options.max_resident_lanes = 4'096;
      options.evict_after_idle_hours = 36;
      break;
    }
    case Workload::kControlPlane:
      break;
  }
  return options;
}

// ---------------------------------------------------------------------------
// Modelled (simulated, deterministic) outcome of a run.

struct Modelled {
  int64_t final_files = 0;
  double compaction_gbhr = 0;
  std::vector<double> read_latency_s;
  std::vector<double> write_latency_s;
  int64_t failed_ops = 0;
  int64_t attempted_ops = 0;

  void AddFleetLane(const sim::MetricsRecorder& m, int64_t files) {
    final_files += files;
    compaction_gbhr += sim::SeriesSum(m, "compaction_gbhr");
    const Sample reads = m.AllObservations("read_latency_s");
    const Sample writes = m.AllObservations("write_latency_s");
    read_latency_s.insert(read_latency_s.end(), reads.values().begin(),
                          reads.values().end());
    write_latency_s.insert(write_latency_s.end(), writes.values().begin(),
                           writes.values().end());
    const int64_t write_failures = m.TotalCount("write_failures");
    const int64_t read_failures = m.TotalCount("read_failures");
    const int64_t conflicts = m.TotalCount("cluster_conflicts");
    const int64_t abandoned = m.TotalCount("compaction_abandoned");
    failed_ops += write_failures + read_failures + conflicts + abandoned;
    attempted_ops += m.TotalCount("write_queries") + reads.count() +
                     read_failures + m.TotalCount("compaction_commits") +
                     conflicts + abandoned;
  }

  double failed_frac() const {
    return attempted_ops > 0 ? static_cast<double>(failed_ops) /
                                   static_cast<double>(attempted_ops)
                             : 0;
  }

  void WriteTo(JsonValue* out, const std::string& prefix = "") const {
    out->Set(prefix + "final_files", final_files);
    out->Set(prefix + "compaction_gbhr", compaction_gbhr);
    out->Set(prefix + "read_latency_s.p50", Quantile(read_latency_s, 0.50));
    out->Set(prefix + "read_latency_s.p99", Quantile(read_latency_s, 0.99));
    out->Set(prefix + "write_latency_s.p50", Quantile(write_latency_s, 0.50));
    out->Set(prefix + "write_latency_s.p99", Quantile(write_latency_s, 0.99));
    out->Set(prefix + "failed_ops_frac", failed_frac());
  }
};

// ---------------------------------------------------------------------------
// Per-layer accounting of the traced run: host seconds spent in calls
// into each layer, and deterministic work counts.

struct Layers {
  double plan_s = 0;       // workload: PlanSetup / PlanOnboard / EventsForDay
  double load_s = 0;       // engine: Materialize
  double write_s = 0;      // engine: write events / appends
  double read_s = 0;       // engine: read events
  double retention_s = 0;  // catalog: RunRetentionService
  double advance_s = 0;    // sim: AdvanceTo + FinishRun, core phases included
  double generate_s = 0, observe_s = 0, orient_s = 0, decide_s = 0, act_s = 0;
  double service_s = 0;     // core: AutoCompService::RunNow (control-plane)
  double lane_build_s = 0;  // sim: SimEnvironment + EventDriver + service
  double checkpoint_save_s = 0, checkpoint_restore_s = 0;

  int64_t load_files = 0, write_calls = 0, read_calls = 0;
  int64_t snapshots_expired = 0, files_deleted = 0, catalog_commits = 0;
  int64_t open_calls = 0, create_calls = 0, delete_calls = 0, timeouts = 0;
  int64_t cycles = 0, candidates = 0, selected = 0;
  int64_t index_hits = 0, index_fallbacks = 0;
  int64_t compaction_commits = 0, compaction_conflicts = 0;
  int64_t compaction_retries = 0, compaction_abandoned = 0;
  int64_t checkpoint_bytes = 0, lanes_checkpointed = 0;
  std::vector<double> cycle_ms;
  std::vector<double> commit_ms;

  /// Pointers to every host-time and every count field, in a fixed order
  /// (merging and hashing walk them).
  template <typename Self>
  static auto TimeFields(Self& l) {
    return std::array{&l.plan_s,     &l.load_s,       &l.write_s,
                      &l.read_s,     &l.retention_s,  &l.advance_s,
                      &l.generate_s, &l.observe_s,    &l.orient_s,
                      &l.decide_s,   &l.act_s,        &l.service_s,
                      &l.lane_build_s,
                      &l.checkpoint_save_s, &l.checkpoint_restore_s};
  }
  template <typename Self>
  static auto CountFields(Self& l) {
    return std::array{&l.load_files,         &l.write_calls,
                      &l.read_calls,         &l.snapshots_expired,
                      &l.files_deleted,      &l.catalog_commits,
                      &l.open_calls,         &l.create_calls,
                      &l.delete_calls,       &l.timeouts,
                      &l.cycles,             &l.candidates,
                      &l.selected,           &l.index_hits,
                      &l.index_fallbacks,    &l.compaction_commits,
                      &l.compaction_conflicts, &l.compaction_retries,
                      &l.compaction_abandoned, &l.checkpoint_bytes,
                      &l.lanes_checkpointed};
  }

  Layers& operator+=(const Layers& o) {
    const auto times = TimeFields(*this);
    const auto other_times = TimeFields(o);
    for (size_t i = 0; i < times.size(); ++i) *times[i] += *other_times[i];
    const auto counts = CountFields(*this);
    const auto other_counts = CountFields(o);
    for (size_t i = 0; i < counts.size(); ++i) *counts[i] += *other_counts[i];
    cycle_ms.insert(cycle_ms.end(), o.cycle_ms.begin(), o.cycle_ms.end());
    commit_ms.insert(commit_ms.end(), o.commit_ms.begin(), o.commit_ms.end());
    return *this;
  }

  /// Hash of the work counts: equal passes over one timeline must match.
  std::string CountsHash() const {
    Hasher h;
    for (const int64_t* count : CountFields(*this)) h.Add(*count);
    return h.Hex();
  }

  double core_s() const {
    return generate_s + observe_s + orient_s + decide_s + act_s;
  }
  /// Host seconds attributed to a layer (the coverage numerator).
  double attributed_s() const {
    return plan_s + load_s + write_s + read_s + retention_s + advance_s +
           service_s + lane_build_s + checkpoint_save_s + checkpoint_restore_s;
  }

  void AddReport(const core::PipelineRunReport& report) {
    generate_s += report.timings.generate_ms / 1e3;
    observe_s += report.timings.observe_ms / 1e3;
    orient_s += report.timings.orient_ms / 1e3;
    decide_s += report.timings.decide_ms / 1e3;
    act_s += report.timings.act_ms / 1e3;
    ++cycles;
    candidates += report.candidates_generated;
    selected += static_cast<int64_t>(report.selected.size());
    index_hits += report.stats_index_hits;
    index_fallbacks += report.stats_index_fallbacks;
  }

  void AddStorage(sim::SimEnvironment& env) {
    const storage::NameNodeStats stats = env.dfs().AggregateStats();
    open_calls += stats.open_calls;
    create_calls += stats.create_calls;
    delete_calls += stats.delete_calls;
    timeouts += stats.timeouts;
    const catalog::CatalogStats& cat = env.catalog().stats();
    catalog_commits += cat.commit_attempts - cat.commit_conflicts;
  }
};

/// Times `fn` into `*acc` when `timers` is set; runs it bare otherwise.
template <typename Fn>
auto Timed(bool timers, double* acc, Fn&& fn) {
  if (!timers) return fn();
  const auto start = SteadyClock::now();
  auto result = fn();
  *acc += SecondsSince(start);
  return result;
}

double Ratio(double num, double den) { return den > 0 ? num / den : 0; }

// ---------------------------------------------------------------------------
// Fleet workloads.

struct FleetRun {
  double host_s = 0;
  double cpu_s = 0;
  sim::FleetSimResult result;
};

Result<FleetRun> RunFleet(const sim::FleetSimOptions& options) {
  sim::FleetSimulation simulation(options);
  const double cpu_start = CpuSeconds();
  const auto start = SteadyClock::now();
  auto result = simulation.Run();
  const double host_s = SecondsSince(start);
  const double cpu_s = CpuSeconds() - cpu_start;
  if (!result.ok()) return result.status();
  return FleetRun{host_s, cpu_s, *std::move(result)};
}

std::string FleetHash(const sim::FleetSimResult& r) {
  Hasher h;
  h.Add(ModelledHash(r.metrics));
  h.Add(r.events_executed);
  h.Add(r.total_files);
  h.Add(r.open_calls);
  return h.Hex();
}

Status FleetRep(Workload workload, uint64_t seed, JsonValue* out) {
  AUTOCOMP_ASSIGN_OR_RETURN(FleetRun run,
                            RunFleet(FleetOptions(workload, seed)));
  const sim::FleetSimResult& r = run.result;
  const double setup_s = r.setup_ms / 1e3;
  Modelled modelled;
  modelled.AddFleetLane(r.metrics, r.total_files);
  // The library times set-up on the wall clock; the repetition is
  // single-threaded, so its set-up CPU time is taken to be the same.
  const double timed_s = run.cpu_s - setup_s;
  out->Set("setup_s", setup_s);
  out->Set("host_s", run.host_s);
  out->Set("events", r.events_executed);
  out->Set("timed_s", timed_s);
  out->Set("wall_timed_s", run.host_s - setup_s);
  out->Set("events_per_s",
           Ratio(static_cast<double>(r.events_executed), timed_s));
  modelled.WriteTo(out);
  out->Set("attempted", r.events_executed);
  out->Set("modelled_hash", FleetHash(r));
  return Status::OK();
}

/// One tenant database's share of the fleet timeline.
struct LaneWork {
  std::vector<workload::FleetWorkload::TableOp> ops;
  std::vector<workload::QueryEvent> events;
};

struct LaneReplay {
  Layers layers;
  Modelled modelled;
  double wall_s = 0;
  int64_t lanes = 0;
};

/// How a lane replay runs: kBare takes only the total wall, kTraced also
/// times every call into a layer, kVerify checks every lane instead
/// (invariants, checkpoint round trip). Verification is a pass of its own
/// because its catalog walks slow the replay that follows them.
enum class ReplayMode { kBare, kTraced, kVerify };

/// Saves a quiescent lane and restores it into a freshly built
/// deployment; with `verify`, checks that the restored catalog matches.
Status CheckpointRoundTrip(sim::SimEnvironment* env, sim::EventDriver* driver,
                           const sim::EnvironmentOptions& env_options,
                           const sim::DriverOptions& driver_options,
                           bool timers, bool verify, Layers* L) {
  AUTOCOMP_ASSIGN_OR_RETURN(std::string blob,
                            Timed(timers, &L->checkpoint_save_s, [&] {
                              return sim::SaveLaneState(env, driver);
                            }));
  L->checkpoint_bytes += static_cast<int64_t>(blob.size());
  ++L->lanes_checkpointed;
  std::unique_ptr<sim::SimEnvironment> restored_env;
  sim::MetricsRecorder restored_metrics;
  std::unique_ptr<sim::EventDriver> restored_driver;
  AUTOCOMP_RETURN_NOT_OK(Timed(timers, &L->checkpoint_restore_s, [&] {
    restored_env = std::make_unique<sim::SimEnvironment>(env_options);
    restored_driver = std::make_unique<sim::EventDriver>(
        restored_env.get(), &restored_metrics, driver_options);
    return sim::RestoreLaneState(blob, restored_env.get(),
                                 restored_driver.get());
  }));
  if (verify) {
    const std::string diff =
        fault::DiffEndStates(fault::CatalogEndState(env->catalog()),
                             fault::CatalogEndState(restored_env->catalog()));
    if (!diff.empty()) {
      return Status::Internal("restored checkpoint differs: " + diff);
    }
  }
  Timed(timers, &L->checkpoint_restore_s, [&] {
    restored_driver.reset();
    restored_env.reset();
    return 0;
  });
  return Status::OK();
}

/// Replays the fleet timeline one lane at a time through the public lane
/// API: table ops from PlanSetup/PlanOnboard + Materialize, events routed
/// by DatabaseOf, retention called by the harness on the driver's daily
/// cadence (driver retention off), and a checkpoint round trip of every
/// lane the workload touched.
Status ReplayLanes(const sim::FleetSimOptions& options, ReplayMode mode,
                   LaneReplay* out) {
  const bool timers = mode == ReplayMode::kTraced;
  const bool verify = mode == ReplayMode::kVerify;
  Layers& L = out->layers;
  const auto start = SteadyClock::now();

  workload::FleetWorkload fleet(options.fleet);
  std::map<std::string, LaneWork> lanes;
  for (auto& op :
       Timed(timers, &L.plan_s, [&] { return fleet.PlanSetup(0); })) {
    lanes[op.db].ops.push_back(std::move(op));
  }
  for (int day = 0; day < options.days; ++day) {
    const SimTime day_start = static_cast<SimTime>(day) * kDay;
    for (auto& op : Timed(timers, &L.plan_s,
                          [&] { return fleet.PlanOnboard(day, day_start); })) {
      lanes[op.db].ops.push_back(std::move(op));
    }
    for (auto& event :
         Timed(timers, &L.plan_s, [&] { return fleet.EventsForDay(day); })) {
      const auto it = lanes.find(workload::FleetWorkload::DatabaseOf(event));
      if (it != lanes.end()) it->second.events.push_back(std::move(event));
    }
  }

  const SimTime end_time = static_cast<SimTime>(options.days) * kDay;
  const SimTime retention_every = options.driver.retention_interval;
  sim::DriverOptions driver_options = options.driver;
  driver_options.retention_interval = 0;  // the harness runs retention
  const fault::InvariantChecker checker;

  // One timeline step: table op, retention tick, or workload event. At
  // equal times ops land first, then retention, then events.
  struct Step {
    SimTime at;
    int kind;  // 0 op, 1 retention, 2 event
    size_t index;
  };
  std::vector<Step> steps;
  for (auto& [db, work] : lanes) {
    ++out->lanes;
    sim::EnvironmentOptions env_options = options.env;
    env_options.seed = CounterRng::At(options.seed, CounterRng::HashString(db),
                                      /*index=*/0);
    env_options.engine.writer_id = 1;
    env_options.runner_id = 1;
    std::unique_ptr<sim::SimEnvironment> env;
    sim::MetricsRecorder metrics;
    std::unique_ptr<sim::EventDriver> driver;
    std::unique_ptr<core::AutoCompService> service;
    AUTOCOMP_RETURN_NOT_OK(Timed(timers, &L.lane_build_s, [&] {
      env = std::make_unique<sim::SimEnvironment>(env_options);
      driver = std::make_unique<sim::EventDriver>(env.get(), &metrics,
                                                  driver_options);
      if (options.preset) {
        sim::StrategyPreset preset = *options.preset;
        preset.pool = nullptr;
        service = sim::MakeMoopService(env.get(), preset);
        driver->AttachService(service.get());
      }
      return env->catalog().CreateDatabase(db,
                                           options.fleet.quota_objects_per_db);
    }));

    steps.clear();
    for (size_t i = 0; i < work.ops.size(); ++i) {
      steps.push_back({work.ops[i].at, 0, i});
    }
    if (retention_every > 0) {
      for (SimTime t = 0; t <= end_time; t += retention_every) {
        steps.push_back({t, 1, 0});
      }
    }
    for (size_t i = 0; i < work.events.size(); ++i) {
      steps.push_back({work.events[i].time, 2, i});
    }
    std::stable_sort(steps.begin(), steps.end(),
                     [](const Step& a, const Step& b) {
                       return a.at != b.at ? a.at < b.at : a.kind < b.kind;
                     });

    const workload::LaneTargets targets{&env->catalog(), &env->query_engine(),
                                        &env->control_plane()};
    for (const Step& step : steps) {
      AUTOCOMP_RETURN_NOT_OK(Timed(timers, &L.advance_s,
                                   [&] { return driver->AdvanceTo(step.at); }));
      if (step.kind == 0) {
        const int64_t before = env->dfs().AggregateStats().create_calls;
        AUTOCOMP_RETURN_NOT_OK(Timed(timers, &L.load_s, [&] {
          return workload::FleetWorkload::Materialize(targets,
                                                      work.ops[step.index]);
        }));
        L.load_files += env->dfs().AggregateStats().create_calls - before;
      } else if (step.kind == 1) {
        const catalog::RetentionReport report = Timed(
            timers, &L.retention_s,
            [&] { return env->control_plane().RunRetentionService(); });
        L.snapshots_expired += report.snapshots_expired;
        L.files_deleted += report.files_deleted;
      } else {
        const workload::QueryEvent& event = work.events[step.index];
        const auto call = SteadyClock::now();
        AUTOCOMP_RETURN_NOT_OK(driver->Execute(event));
        if (timers) {
          const double s = SecondsSince(call);
          (event.is_write ? L.write_s : L.read_s) += s;
          if (event.is_write) L.commit_ms.push_back(s * 1e3);
        }
        ++(event.is_write ? L.write_calls : L.read_calls);
      }
    }
    AUTOCOMP_RETURN_NOT_OK(Timed(timers, &L.advance_s, [&] {
      Status st = driver->AdvanceTo(end_time);
      if (st.ok()) driver->FinishRun();
      return st;
    }));

    if (service != nullptr) {
      for (const core::PipelineRunReport& report : service->history()) {
        L.AddReport(report);
        L.cycle_ms.push_back(report.timings.total_ms());
      }
    }
    L.AddStorage(*env);
    L.compaction_commits += metrics.TotalCount("compaction_commits");
    L.compaction_conflicts += metrics.TotalCount("cluster_conflicts");
    L.compaction_retries += metrics.TotalCount("compaction_retries");
    L.compaction_abandoned += metrics.TotalCount("compaction_abandoned");
    out->modelled.AddFleetLane(metrics, env->TotalFileCount());
    if (verify) {
      if (Status st = checker.CheckOrFail(env->catalog()); !st.ok()) {
        return Status::Internal("lane " + db + ": " + st.message());
      }
    }
    if (!work.events.empty()) {
      if (Status st = CheckpointRoundTrip(env.get(), driver.get(), env_options,
                                          driver_options, timers, verify, &L);
          !st.ok()) {
        return Status::Internal("lane " + db + ": " + st.message());
      }
    }
    Timed(timers, &L.lane_build_s, [&] {
      service.reset();
      driver.reset();
      env.reset();
      return 0;
    });
  }
  out->wall_s = SecondsSince(start);
  return Status::OK();
}

void WriteFleetCounters(const sim::FleetSimResult& r, JsonValue* m) {
  m->Set("sim.lanes_hydrated", r.lanes_hydrated);
  m->Set("sim.lanes_ghosted", r.lanes_ghosted);
  m->Set("sim.peak_resident_lanes", r.peak_resident_lanes);
  m->Set("sim.lanes_evicted", r.lanes_evicted);
  m->Set("sim.lanes_restored", r.lanes_restored);
  m->Set("sim.lanes_retired", r.lanes_retired);
  m->Set("sim.checkpoint_bytes_peak", r.checkpoint_bytes);
  m->Set("sim.restore_s", r.restore_ms / 1e3);
}

void WriteLayers(const Layers& L, JsonValue* m) {
  m->Set("workload.plan_s", L.plan_s);
  m->Set("engine.load_s", L.load_s);
  m->Set("engine.load_files", L.load_files);
  m->Set("engine.write_s", L.write_s);
  m->Set("engine.write_calls", L.write_calls);
  m->Set("engine.read_s", L.read_s);
  m->Set("engine.read_calls", L.read_calls);
  const int64_t units = L.compaction_commits + L.compaction_conflicts +
                        L.compaction_abandoned;
  m->Set("engine.compaction_units", units);
  m->Set("engine.compaction_commits", L.compaction_commits);
  m->Set("engine.compaction_retries", L.compaction_retries);
  m->Set("engine.compaction_abandoned", L.compaction_abandoned);
  m->Set("engine.compaction_commit_ratio",
         Ratio(static_cast<double>(L.compaction_commits),
               static_cast<double>(units)));
  m->Set("catalog.retention_s", L.retention_s);
  m->Set("catalog.snapshots_expired", L.snapshots_expired);
  m->Set("catalog.files_deleted", L.files_deleted);
  m->Set("catalog.commits", L.catalog_commits);
  m->Set("storage.open_calls", L.open_calls);
  m->Set("storage.create_calls", L.create_calls);
  m->Set("storage.delete_calls", L.delete_calls);
  m->Set("storage.timeouts", L.timeouts);
  m->Set("core.generate_s", L.generate_s);
  m->Set("core.observe_s", L.observe_s);
  m->Set("core.orient_s", L.orient_s);
  m->Set("core.decide_s", L.decide_s);
  m->Set("core.cycles", L.cycles);
  m->Set("core.candidates", L.candidates);
  m->Set("core.selected", L.selected);
  m->Set("core.index_hits", L.index_hits);
  m->Set("core.index_fallbacks", L.index_fallbacks);
  m->Set("core.index_hit_ratio",
         Ratio(static_cast<double>(L.index_hits),
               static_cast<double>(L.index_hits + L.index_fallbacks)));
  m->Set("core.selected_ratio", Ratio(static_cast<double>(L.selected),
                                      static_cast<double>(L.candidates)));
  m->Set("sim.advance_s", std::max(0.0, L.advance_s - L.core_s()));
  m->Set("sim.lane_build_s", L.lane_build_s);
  m->Set("sim.checkpoint_save_s", L.checkpoint_save_s);
  m->Set("sim.checkpoint_restore_s", L.checkpoint_restore_s);
  m->Set("sim.checkpoint_bytes", L.checkpoint_bytes);
  m->Set("cycle_ms.p50", Quantile(L.cycle_ms, 0.50));
  m->Set("cycle_ms.p95", Quantile(L.cycle_ms, 0.95));
  m->Set("cycle_ms.samples", static_cast<int64_t>(L.cycle_ms.size()));
  m->Set("commit_ms.p50", Quantile(L.commit_ms, 0.50));
  m->Set("commit_ms.p99", Quantile(L.commit_ms, 0.99));
}

Status FleetTrace(Workload workload, uint64_t seed, JsonValue* out) {
  JsonValue metrics = JsonValue::Object();
  const sim::FleetSimOptions options = FleetOptions(workload, seed);

  // The timed configuration once more, for the fleet driver's own lane
  // counters and the modelled outcome the lane replay is compared with.
  AUTOCOMP_ASSIGN_OR_RETURN(FleetRun timed, RunFleet(options));
  WriteFleetCounters(timed.result, &metrics);
  JsonValue compare = JsonValue::Object();
  Modelled timed_modelled;
  timed_modelled.AddFleetLane(timed.result.metrics, timed.result.total_files);
  timed_modelled.WriteTo(&compare, "timed.");

  // compaction-fleet: the sharded replay on the pool must equal the
  // sequential one. Checked here, once per traced run, and not timed.
  if (workload == Workload::kCompactionFleet) {
    const int workers = PoolWorkers();
    std::unique_ptr<ThreadPool> pool;
    if (workers > 0) pool = std::make_unique<ThreadPool>(workers);
    sim::FleetSimOptions sharded = options;
    sharded.sharded = true;
    sharded.pool = pool.get();
    AUTOCOMP_ASSIGN_OR_RETURN(FleetRun run, RunFleet(sharded));
    const std::string a = FleetHash(run.result);
    const std::string b = FleetHash(timed.result);
    out->Set("pool_workers", workers);
    out->Set("sharded_hash", a);
    out->Set("sequential_hash", b);
    out->Set("sharded_host_s", run.host_s);
    out->Set("sequential_host_s", timed.host_s);
    if (a != b) {
      return Status::Internal("sharded replay " + a +
                              " differs from sequential replay " + b);
    }
  }

  LaneReplay bare;
  AUTOCOMP_RETURN_NOT_OK(ReplayLanes(options, ReplayMode::kBare, &bare));
  LaneReplay traced;
  AUTOCOMP_RETURN_NOT_OK(ReplayLanes(options, ReplayMode::kTraced, &traced));
  LaneReplay verified;
  AUTOCOMP_RETURN_NOT_OK(ReplayLanes(options, ReplayMode::kVerify, &verified));
  if (verified.layers.CountsHash() != traced.layers.CountsHash()) {
    return Status::Internal("lane replay work counts differ between passes");
  }
  WriteLayers(traced.layers, &metrics);
  traced.modelled.WriteTo(&metrics);
  traced.modelled.WriteTo(&compare, "traced.");
  metrics.Set("trace.coverage_frac",
              Ratio(traced.layers.attributed_s(), traced.wall_s));
  metrics.Set("trace.overhead_frac", Ratio(traced.wall_s, bare.wall_s) - 1.0);
  metrics.Set("trace.wall_s", traced.wall_s);
  out->Set("metrics", std::move(metrics));
  out->Set("compare", std::move(compare));
  out->Set("lanes", traced.lanes);
  out->Set("lanes_checkpointed", traced.layers.lanes_checkpointed);
  return Status::OK();
}

// ---------------------------------------------------------------------------
// control-plane: closed loop of one caller alternating a burst of appends
// with one decide-only OODA cycle over a ~2,000-table catalog.

constexpr int kCpCyclesPerRep = 50;
constexpr int kCpAppendsPerCycle = 20;
constexpr SimTime kCpCycleInterval = 10 * kMinute;

struct ControlPlaneRun {
  double setup_s = 0;
  double loop_s = 0;
  double loop_cpu_s = 0;
  double wall_s = 0;
  int64_t commits = 0;
  int64_t failed_commits = 0;
  Modelled modelled;
  Layers layers;
  std::string hash;
};

Status RunControlPlane(uint64_t seed, ReplayMode mode, ControlPlaneRun* out) {
  const bool timers = mode == ReplayMode::kTraced;
  Layers& L = out->layers;
  const auto start = SteadyClock::now();
  sim::EnvironmentOptions env_options;
  env_options.seed = seed;
  env_options.engine.writer_id = 1;
  env_options.runner_id = 1;
  std::unique_ptr<sim::SimEnvironment> env =
      Timed(timers, &L.lane_build_s, [&] {
        return std::make_unique<sim::SimEnvironment>(env_options);
      });
  const workload::FleetOptions fleet_options = TenantFleet(seed);
  workload::FleetWorkload fleet(fleet_options);
  const std::vector<workload::FleetWorkload::TableOp> ops =
      Timed(timers, &L.plan_s, [&] { return fleet.PlanSetup(0); });
  const workload::LaneTargets targets{&env->catalog(), &env->query_engine(),
                                      &env->control_plane()};
  std::string db;
  for (const auto& op : ops) {
    if (op.db != db) {
      db = op.db;
      AUTOCOMP_RETURN_NOT_OK(env->catalog().CreateDatabase(
          db, fleet_options.quota_objects_per_db));
    }
    AUTOCOMP_RETURN_NOT_OK(Timed(timers, &L.load_s, [&] {
      return workload::FleetWorkload::Materialize(targets, op);
    }));
  }
  L.load_files = env->dfs().AggregateStats().create_calls;

  sim::StrategyPreset preset;
  preset.deferred_act = true;  // decide-only: no act phase
  std::unique_ptr<core::AutoCompService> service =
      Timed(timers, &L.lane_build_s,
            [&] { return sim::MakeMoopService(env.get(), preset); });
  Hasher hash;
  const auto cycle = [&]() -> Status {
    const auto call = SteadyClock::now();
    auto report = service->RunNow();
    const double ms = SecondsSince(call) * 1e3;
    L.service_s += ms / 1e3;
    if (!report.ok()) return report.status();
    L.AddReport(*report);
    L.cycle_ms.push_back(ms);
    for (const core::ScoredCandidate& sc : report->selected) {
      hash.Add(sc.candidate().id());
      hash.Add(sc.score);
    }
    return Status::OK();
  };
  // The first cycle builds the stats index: set-up, not steady state.
  AUTOCOMP_RETURN_NOT_OK(cycle());
  L.cycle_ms.clear();
  out->setup_s = SecondsSince(start);

  const double loop_cpu_start = CpuSeconds();
  const auto loop_start = SteadyClock::now();
  Rng rng(seed ^ 0x5eedc0deULL);
  engine::WriterProfile one_file;
  one_file.write_tasks = 1;
  one_file.coalesce_output = true;
  one_file.target_file_bytes = 1024 * kMiB;
  SimulatedClock& clock = env->clock();
  const SimTime step = kCpCycleInterval / (kCpAppendsPerCycle + 1);
  for (int c = 0; c < kCpCyclesPerRep; ++c) {
    for (int a = 0; a < kCpAppendsPerCycle; ++a) {
      const auto& op = ops[static_cast<size_t>(
          rng.Zipf(static_cast<int64_t>(ops.size()), 1.0))];
      engine::WriteSpec spec;
      spec.table = op.load.table;
      spec.kind = engine::WriteKind::kAppend;
      spec.logical_bytes = 16 * kMiB;
      spec.profile = one_file;
      if (!op.load.partitions.empty()) {
        spec.partitions = {op.load.partitions.back()};
      }
      clock.AdvanceTo(clock.Now() + step);
      const auto call = SteadyClock::now();
      auto result = env->query_engine().ExecuteWrite(spec, clock.Now());
      const double s = SecondsSince(call);
      L.write_s += s;
      L.commit_ms.push_back(s * 1e3);
      ++L.write_calls;
      ++out->commits;
      if (!result.ok() || result->conflict_failed) {
        ++out->failed_commits;
        continue;
      }
      out->modelled.write_latency_s.push_back(result->total_seconds);
    }
    clock.AdvanceTo(clock.Now() + step);
    AUTOCOMP_RETURN_NOT_OK(cycle());
  }
  out->loop_s = SecondsSince(loop_start);
  out->loop_cpu_s = CpuSeconds() - loop_cpu_start;

  out->modelled.final_files = env->TotalFileCount();
  out->modelled.failed_ops = out->failed_commits;
  out->modelled.attempted_ops = out->commits + kCpCyclesPerRep;
  L.AddStorage(*env);
  hash.Add(out->modelled.final_files);
  for (double v : out->modelled.write_latency_s) hash.Add(v);
  out->hash = hash.Hex();
  if (mode == ReplayMode::kVerify) {
    const fault::InvariantChecker checker;
    AUTOCOMP_RETURN_NOT_OK(checker.CheckOrFail(env->catalog()));
  }
  Timed(timers, &L.lane_build_s, [&] {
    service.reset();
    env.reset();
    return 0;
  });
  out->wall_s = SecondsSince(start);
  return Status::OK();
}

Status ControlPlaneRep(uint64_t seed, JsonValue* out) {
  ControlPlaneRun run;
  AUTOCOMP_RETURN_NOT_OK(RunControlPlane(seed, ReplayMode::kBare, &run));
  const int64_t ops = run.commits + kCpCyclesPerRep;
  out->Set("setup_s", run.setup_s);
  out->Set("host_s", run.wall_s);
  out->Set("events", ops);
  out->Set("timed_s", run.loop_cpu_s);
  out->Set("wall_timed_s", run.loop_s);
  out->Set("events_per_s", Ratio(static_cast<double>(ops), run.loop_cpu_s));
  run.modelled.WriteTo(out);
  JsonValue cycles = JsonValue::Array();
  for (double v : run.layers.cycle_ms) cycles.Append(v);
  JsonValue commits = JsonValue::Array();
  for (double v : run.layers.commit_ms) commits.Append(v);
  out->Set("cycle_ms", std::move(cycles));
  out->Set("commit_ms", std::move(commits));
  out->Set("attempted", ops);
  out->Set("modelled_hash", run.hash);
  return Status::OK();
}

/// The traced control-plane run: kCpTraceRounds rounds (fresh catalog
/// each, so the service history never outgrows one repetition), every
/// round run bare and traced back to back.
constexpr int kCpTraceRounds = 4;

Status ControlPlaneTrace(uint64_t seed, JsonValue* out) {
  Layers layers;
  Modelled modelled;
  double bare_wall = 0;
  double traced_wall = 0;
  std::string hash;
  for (int round = 0; round < kCpTraceRounds; ++round) {
    ControlPlaneRun bare;
    AUTOCOMP_RETURN_NOT_OK(
        RunControlPlane(seed, ReplayMode::kBare, &bare));
    ControlPlaneRun traced;
    AUTOCOMP_RETURN_NOT_OK(
        RunControlPlane(seed, ReplayMode::kTraced, &traced));
    if (bare.hash != traced.hash || (!hash.empty() && traced.hash != hash) ||
        bare.layers.CountsHash() != traced.layers.CountsHash()) {
      return Status::Internal("control-plane rounds differ");
    }
    hash = traced.hash;
    bare_wall += bare.wall_s;
    traced_wall += traced.wall_s;
    layers += traced.layers;
    modelled = std::move(traced.modelled);
  }
  ControlPlaneRun verified;
  AUTOCOMP_RETURN_NOT_OK(
      RunControlPlane(seed, ReplayMode::kVerify, &verified));
  if (verified.hash != hash) {
    return Status::Internal("control-plane verify round differs");
  }
  JsonValue metrics = JsonValue::Object();
  WriteFleetCounters(sim::FleetSimResult{}, &metrics);
  WriteLayers(layers, &metrics);
  modelled.WriteTo(&metrics);
  metrics.Set("trace.coverage_frac",
              Ratio(layers.attributed_s(), traced_wall));
  metrics.Set("trace.overhead_frac", Ratio(traced_wall, bare_wall) - 1.0);
  metrics.Set("trace.wall_s", traced_wall);
  out->Set("metrics", std::move(metrics));
  out->Set("modelled_hash", hash);
  return Status::OK();
}

// ---------------------------------------------------------------------------
// Host parallelism probe: aggregate rate of a pure-ALU spin loop on every
// hardware thread, over the single-thread rate.

double SpinRate(int threads, double seconds) {
  std::atomic<bool> stop{false};
  std::vector<int64_t> counts(static_cast<size_t>(threads), 0);
  std::vector<std::thread> pool;
  for (int t = 0; t < threads; ++t) {
    pool.emplace_back([&, t] {
      uint64_t x = static_cast<uint64_t>(t) + 1;
      int64_t n = 0;
      while (!stop.load(std::memory_order_relaxed)) {
        for (int i = 0; i < 4096; ++i) {
          x = x * 6364136223846793005ULL + 1442695040888963407ULL;
        }
        n += 4096;
      }
      counts[static_cast<size_t>(t)] = n + static_cast<int64_t>(x & 1);
    });
  }
  const auto start = SteadyClock::now();
  std::this_thread::sleep_for(std::chrono::duration<double>(seconds));
  stop.store(true);
  for (std::thread& th : pool) th.join();
  const double elapsed = SecondsSince(start);
  int64_t total = 0;
  for (int64_t c : counts) total += c;
  return static_cast<double>(total) / elapsed;
}

/// The host's parallelism flickers on sub-second scales when neighbours
/// share it, so the probe takes the median ratio of three alternations.
void Probe(JsonValue* out) {
  const int threads = HardwareThreads();
  SpinRate(1, 0.05);  // warm-up: let the core leave any idle state
  std::vector<double> ratios;
  for (int i = 0; i < 3; ++i) {
    const double one = SpinRate(1, 0.1);
    ratios.push_back(Ratio(SpinRate(threads, 0.1), one));
  }
  out->Set("hardware_concurrency", threads);
  out->Set("pool_workers", PoolWorkers());
  out->Set("effective_parallelism", Quantile(ratios, 0.5));
}

// ---------------------------------------------------------------------------
// Host speed reference: a fixed computation that shares no code with src/,
// timed on the CPU clock. Its time moves with the host's speed, which on a
// shared host drifts by up to 2x within minutes; a change to the library
// leaves it unchanged.

constexpr int kReferenceItems = 70'000;
constexpr uint64_t kReferenceKeys = 50'000;
constexpr size_t kReferenceChaseSlots = size_t{1} << 23;  // 64 MB
constexpr int kReferenceChaseSteps = 300'000;

/// The kind of work the simulator does most: string-keyed ordered maps,
/// hash maps of growing vectors, sorting and floating point, then a chain
/// of dependent loads across `chase` (a working set far larger than the
/// caches, as the simulator's is). Returns CPU seconds; `*sink` keeps the
/// work live.
double ReferenceOnce(const std::vector<uint64_t>& chase, uint64_t* sink) {
  const double cpu_start = CpuSeconds();
  uint64_t x = 0x9e3779b97f4a7c15ULL;
  const auto next = [&x] {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    return x;
  };
  std::map<std::string, double> by_name;
  std::unordered_map<uint64_t, std::vector<uint64_t>> by_id;
  std::vector<double> values;
  for (int i = 0; i < kReferenceItems; ++i) {
    const uint64_t k = next() % kReferenceKeys;
    by_name["db" + std::to_string(k % 97) + ".table" + std::to_string(k)] +=
        std::log1p(static_cast<double>(k));
    by_id[k].push_back(next());
    values.push_back(static_cast<double>(next() % 1'000'003) / 7.0);
  }
  std::sort(values.begin(), values.end());
  uint64_t acc = static_cast<uint64_t>(values[values.size() / 2]);
  for (const auto& [id, ids] : by_id) acc += ids.size() * id + ids.back();
  for (int i = 0; i < kReferenceItems; ++i) {
    const uint64_t k = next() % kReferenceKeys;
    const auto it =
        by_name.find("db" + std::to_string(k % 97) + ".table" +
                     std::to_string(k));
    if (it != by_name.end()) acc += static_cast<uint64_t>(it->second);
  }
  uint64_t slot = acc & (chase.size() - 1);
  for (int i = 0; i < kReferenceChaseSteps; ++i) slot = chase[slot];
  *sink += acc + slot;
  return CpuSeconds() - cpu_start;
}

/// Median CPU seconds of three reference computations. The first one also
/// pays for the heap's growth; the median leaves it out.
void Reference(JsonValue* out) {
  // One full-period cycle through every slot (a linear congruential step
  // mod a power of two), so the chain of loads never settles in a cache.
  std::vector<uint64_t> chase(kReferenceChaseSlots);
  for (size_t i = 0; i < chase.size(); ++i) {
    chase[i] = (i * 6364136223846793005ULL + 1442695040888963407ULL) &
               (chase.size() - 1);
  }
  uint64_t sink = 0;
  std::vector<double> times;
  for (int i = 0; i < 3; ++i) times.push_back(ReferenceOnce(chase, &sink));
  out->Set("reference_s", Quantile(times, 0.5));
  out->Set("sink", static_cast<int64_t>(sink & 1));
}

int Usage() {
  std::fprintf(stderr,
               "usage: perfbench rep|trace --workload NAME --seed N\n"
               "       perfbench probe|reference\n"
               "workloads: lake-replay compaction-fleet cold-fleet "
               "control-plane\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return Usage();
  const std::string mode = argv[1];
  std::string workload_name;
  uint64_t seed = 7;
  for (int i = 2; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--workload" && i + 1 < argc) {
      workload_name = argv[++i];
    } else if (arg == "--seed" && i + 1 < argc) {
      char* end = nullptr;
      seed = std::strtoull(argv[++i], &end, 10);
      if (end == nullptr || *end != '\0') return Usage();
    } else {
      return Usage();
    }
  }

  JsonValue out = JsonValue::Object();
  Status status = Status::OK();
  if (mode == "probe") {
    Probe(&out);
  } else if (mode == "reference") {
    Reference(&out);
  } else if (mode == "rep" || mode == "trace") {
    const std::optional<Workload> workload = ParseWorkload(workload_name);
    if (!workload) return Usage();
    out.Set("workload", workload_name);
    out.Set("seed", static_cast<int64_t>(seed));
    const bool fleet = *workload != Workload::kControlPlane;
    if (mode == "rep") {
      status = fleet ? FleetRep(*workload, seed, &out)
                     : ControlPlaneRep(seed, &out);
    } else {
      status = fleet ? FleetTrace(*workload, seed, &out)
                     : ControlPlaneTrace(seed, &out);
    }
    out.Set("peak_rss_mb", PeakRssMb());
  } else {
    return Usage();
  }
  if (!status.ok()) {
    std::fprintf(stderr, "perfbench %s %s: %s\n", mode.c_str(),
                 workload_name.c_str(), status.ToString().c_str());
    return 1;
  }
  std::printf("%s\n", out.Dump().c_str());
  return 0;
}
