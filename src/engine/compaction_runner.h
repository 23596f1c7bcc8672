/// \file compaction_runner.h
/// \brief Executes one compaction work unit (AutoComp's act phase calls
/// this; it is the simulator's RewriteDataFiles).

#pragma once

#include <cstdint>
#include <optional>
#include <string>

#include "catalog/catalog.h"
#include "common/blob.h"
#include "common/clock.h"
#include "engine/cluster.h"
#include "fault/retry_policy.h"
#include "format/columnar.h"
#include "lst/transaction.h"

namespace autocomp::engine {

/// \brief Data-movement axis of the compaction policy space (core/policy.h):
/// how much of a candidate's data one work unit rewrites.
enum class RewriteMovement : int {
  /// Binpacked partial rewrite: only small files (below the cutoff) are
  /// rewritten, packed to the target size. The pre-decomposition default.
  kPartial = 0,
  /// Full rewrite: every in-scope data file is rewritten regardless of
  /// size (maximal read-side benefit, maximal write amplification).
  kFull = 1,
  /// Tiering-style merge: the selected small files in each partition are
  /// merged into ONE output run (no binpacking to target size) — the
  /// Bigtable/LSM merge move, cheapest per step.
  kMerge = 2,
};

/// \brief Stable lower-case name ("partial" / "full" / "merge"); the
/// PolicySpec grammar's movement tokens.
const char* RewriteMovementName(RewriteMovement movement);

/// \brief One compaction work unit: a table, optionally narrowed to a
/// partition or to files added after a snapshot (§4.1 candidate scopes).
struct CompactionRequest {
  std::string table;
  /// Partition scope; nullopt = whole table.
  std::optional<std::string> partition;
  /// Snapshot scope: only compact files added after this snapshot id
  /// (0 = all files). Combines with `partition`.
  int64_t after_snapshot_id = 0;
  /// Target on-disk output file size; 0 = use the table property.
  int64_t target_file_size_bytes = 0;
  /// Only files strictly smaller than this fraction of the target are
  /// rewritten (Iceberg's min-file-size-bytes default is 75%).
  double small_file_threshold = 0.75;
  /// How much data this unit moves (policy movement axis). kPartial is
  /// byte-identical to the pre-decomposition behavior.
  RewriteMovement movement = RewriteMovement::kPartial;
  /// Conflict validation mode for the rewrite commit.
  lst::ValidationMode validation_mode = lst::ValidationMode::kStrictTableLevel;
  /// Rewrite with a clustering layout (Z-order style, §8): outputs become
  /// `clustered`, letting selective scans skip row groups, at
  /// `ClusterOptions::cluster_write_multiplier` times the rewrite cost
  /// (the extra sampling/sorting passes the paper mentions).
  bool cluster_output = false;
};

/// \brief Outcome of one compaction execution.
struct CompactionResult {
  /// False when there was nothing worth rewriting (< 2 small files).
  bool attempted = false;
  /// True when the rewrite committed.
  bool committed = false;
  /// Set when the commit was lost to a concurrent writer (a cluster-side
  /// conflict in Table 1).
  bool conflict = false;
  Status status;

  int64_t files_rewritten = 0;
  int64_t files_produced = 0;
  int64_t bytes_rewritten = 0;
  int64_t bytes_produced = 0;
  double duration_seconds = 0;
  /// GBHr by the paper's §4.2 formula: ExecutorMemoryGB × DataSize /
  /// RewriteBytesPerHour.
  double gb_hours = 0;
  int64_t snapshot_id = 0;
  SimTime start_time = 0;
  SimTime end_time = 0;

  /// Commit attempts beyond the first (injected/organic CAS races that
  /// were rebased and retried).
  int commit_retries = 0;
  /// Total deterministic backoff this unit waited across retries.
  /// Included in duration_seconds but deliberately NOT in end_time: a
  /// retried commit lands at the same simulated instant as a clean one,
  /// so fault+retry runs converge to the fault-free end state (the
  /// differential harness asserts exactly that).
  double backoff_seconds = 0;
  /// The unit wrote outputs but gave up (crash retries or the commit
  /// retry budget exhausted); its outputs were deleted.
  bool abandoned = false;
};

/// \brief An in-flight compaction: inputs read and outputs written, but
/// the rewrite not yet committed. The gap between `start_time` and
/// `end_time` is where concurrent writers cause the cluster-side
/// conflicts of Table 1 — Finalize at `end_time` validates against
/// everything that committed in between.
struct PendingCompaction {
  CompactionRequest request;
  /// Holds the staged outputs (Transaction::added_files) until commit.
  lst::Transaction transaction;
  CompactionResult result;  // filled except commit outcome
  /// Open "runner.unit" trace span handle; Finalize closes it with the
  /// commit outcome (0 when tracing is off or the unit ended in Prepare).
  uint64_t trace_span = 0;
};

/// \brief Runs compaction work units on a (possibly dedicated) cluster.
class CompactionRunner {
 public:
  /// `runner_id` is baked into output file names. 0 (default) draws from
  /// a process-wide counter — unique across runners sharing a catalog but
  /// dependent on construction order; the shard-parallel fleet driver
  /// pins it so output paths are reproducible across runs in one process.
  CompactionRunner(Cluster* cluster, catalog::Catalog* catalog,
                   const Clock* clock,
                   format::ColumnarFormatOptions format_options = {},
                   int runner_id = 0);

  /// Executes one work unit submitted at `submit_time`, committing
  /// immediately (Prepare + Finalize back to back). Never returns an
  /// error Status for conflicts — those are reported in the result so the
  /// caller can count them (only infrastructure failures error out).
  Result<CompactionResult> Run(const CompactionRequest& request,
                               SimTime submit_time);

  /// Phase 1: plan the rewrite, read the inputs, occupy the cluster, and
  /// write the output files. The returned unit's result.end_time says
  /// when the rewrite finishes; the caller commits it then via Finalize.
  /// A unit whose result.attempted is false has nothing to commit.
  Result<PendingCompaction> Prepare(const CompactionRequest& request,
                                    SimTime submit_time);

  /// Phase 2: attempt the rewrite commit (validating against everything
  /// committed since Prepare read the table). On conflict the outputs are
  /// deleted and result.conflict is set.
  CompactionResult Finalize(PendingCompaction&& pending);

  /// Cancels a prepared unit without committing (the scheduler's
  /// preemption path): outputs are deleted, the open transaction is
  /// dropped, and the unit is counted as abandoned. The trace span closes
  /// with "outcome=preempted" at `at` (the preemption instant, not the
  /// planned end time). No orphan outputs survive — the same cleanup
  /// contract Finalize's terminal path honours.
  CompactionResult Abandon(PendingCompaction&& pending, SimTime at);

  /// Cumulative counters across Run calls.
  int64_t total_conflicts() const { return total_conflicts_; }
  int64_t total_committed() const { return total_committed_; }
  /// Retries paid across units (commit rebases + crash re-writes).
  int64_t total_retries() const { return total_retries_; }
  /// Units that wrote outputs and then gave up (outputs cleaned up).
  int64_t total_abandoned() const { return total_abandoned_; }

  /// Installs (or clears, with nullptr) the fault injector. The runner
  /// arms fault::kSiteEngineRunner after writing outputs (mid-job crash:
  /// outputs are deleted and the write is retried under the policy);
  /// commit-site faults flow in via the catalog's injector.
  void SetFaultInjector(fault::FaultInjector* injector) { fault_ = injector; }

  /// Installs (or clears, with nullptr) the trace recorder. Every work
  /// unit becomes a "runner.unit" span from submit to its commit outcome
  /// (value = gb_hours), with "runner.crash_retry" /
  /// "runner.commit_retry" instants for each backoff paid in between —
  /// all at TraceLevel::kFull.
  void SetTraceRecorder(obs::TraceRecorder* trace) { trace_ = trace; }

  /// Retry budget + backoff shape for commit conflicts and crash
  /// recovery. Backoff draws are CounterRng-keyed by (table, submit
  /// time), so retry costs replay bit-identically.
  void set_retry_policy(const fault::RetryPolicy& policy) {
    retry_policy_ = policy;
  }
  const fault::RetryPolicy& retry_policy() const { return retry_policy_; }

  /// \name Lane checkpoint (DESIGN.md §10): output-name counter +
  /// cumulative totals. Inflight units are never checkpointed — the
  /// fleet driver only evicts quiescent lanes.
  /// @{
  void SaveState(common::BlobWriter* w) const {
    w->WriteI64(file_counter_);
    w->WriteI64(total_conflicts_);
    w->WriteI64(total_committed_);
    w->WriteI64(total_retries_);
    w->WriteI64(total_abandoned_);
  }
  void RestoreState(common::BlobReader* r) {
    file_counter_ = r->ReadI64();
    total_conflicts_ = r->ReadI64();
    total_committed_ = r->ReadI64();
    total_retries_ = r->ReadI64();
    total_abandoned_ = r->ReadI64();
  }
  /// @}

 private:
  Cluster* cluster_;
  catalog::Catalog* catalog_;
  const Clock* clock_;
  format::ColumnarFileModel format_;
  /// Distinguishes runners sharing one catalog (unique output names).
  int runner_id_;
  /// "/compact-r<runner_id_>-": the per-runner output-name stem, built
  /// once so the per-file path assembly in Prepare is append-only.
  std::string path_stem_;
  fault::FaultInjector* fault_ = nullptr;
  obs::TraceRecorder* trace_ = nullptr;
  fault::RetryPolicy retry_policy_;
  int64_t file_counter_ = 0;
  int64_t total_conflicts_ = 0;
  int64_t total_committed_ = 0;
  int64_t total_retries_ = 0;
  int64_t total_abandoned_ = 0;
};

}  // namespace autocomp::engine
