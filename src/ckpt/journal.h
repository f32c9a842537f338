// Crash-consistent run journal (DESIGN.md "Crash consistency & resume").
//
// A RunJournal is a versioned, CRC-checksummed snapshot of everything a
// DistRunner needs to deterministically resume an interrupted run:
//
//   * the deployed plan (embedded checksummed v2 plan text) and the op
//     grouping it applies to;
//   * the full cluster description plus its fingerprint, so resume can
//     refuse hardware the plan was not made for;
//   * the RNG seed and the config knobs that feed mid-run re-planning (all
//     randomness in HeteroG is seed-derived and no live engine state crosses
//     a step boundary, so at step granularity the seed IS the RNG state);
//   * the completed-step watermark, per-step times, transient-retry
//     bookkeeping and the recovery history accumulated so far;
//   * the fault plan being injected, if any.
//
// save_journal publishes snapshots with write-temp/flush/fsync/rename
// atomicity: a kill at any instant leaves either the previous or the new
// snapshot on disk, never a torn one. load_journal verifies the trailer
// CRC over the whole payload before parsing a single field, so corrupting
// any byte of the file surfaces as a typed JournalError — never a crash and
// never a silently wrong plan.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <stdexcept>
#include <string>
#include <vector>

#include "cluster/cluster.h"

namespace heterog::ckpt {

/// Thrown for every journal failure mode: unreadable file, bad magic or
/// version, checksum mismatch, malformed or internally inconsistent fields.
class JournalError : public std::runtime_error {
 public:
  explicit JournalError(const std::string& what) : std::runtime_error(what) {}
};

/// One completed recovery from a permanent device failure, as persisted in
/// the journal. heterog::RecoveryReport extends it with in-memory
/// diagnostics; ckpt sits below core in the dependency order, so the
/// journalled fields live here.
struct RecoveryRecord {
  int fault_step = -1;  // step that was in flight when the failure hit
  /// Failed device ids, in the id space of the cluster active at fault time
  /// (equal to the original ids until a previous recovery re-densified them).
  std::vector<cluster::DeviceId> failed_devices;
  int steps_lost = 0;           // in-flight steps re-executed after the re-plan
  double replan_wall_ms = 0.0;  // wall-clock spent re-planning
  double pre_fault_iteration_ms = 0.0;
  double post_fault_iteration_ms = 0.0;
  int surviving_devices = 0;
  bool post_plan_oom = false;
  bool escalated_transient = false;  // failure came from exhausted retries
  /// Monitor detector only: failed attempts spent confirming the failure
  /// (0 for the oracle detector, which reads failures off the fault plan).
  int detection_attempts = 0;
  /// The re-plan was degraded to the heuristic path (circuit breaker open or
  /// re-plan deadline exceeded).
  bool degraded = false;
};

struct RunJournal {
  /// Format version of the snapshot (bumped on layout changes).
  int version = 1;

  /// GraphDef::name() of the training graph; resume cross-checks it against
  /// the graph produced by the caller's model_func.
  std::string model_name;

  /// Free-form caller metadata, persisted verbatim (heterog_cli stores
  /// model/layers/batch/cluster here so `heterog_cli resume` can rebuild the
  /// model without flags).
  std::map<std::string, std::string> meta;

  /// Full cluster the plan was deployed on, plus its fingerprint at save
  /// time. resume re-validates fingerprint(cluster) == cluster_crc.
  cluster::ClusterSpec cluster;
  uint32_t cluster_crc = 0;

  /// Config knobs that determinism depends on (HeteroGConfig subset).
  uint64_t profiler_seed = 42;
  bool use_order_scheduling = true;
  int max_groups = 48;
  int fh_max_retries = 5;
  double fh_retry_backoff_ms = 50.0;
  double fh_max_backoff_ms = 2000.0;
  int fh_replan_rl_episodes = 0;
  /// Wall-clock fields (replan_wall_ms, checkpoint wall_ms) are recorded as
  /// zero, so identical executions produce byte-identical journals (the
  /// chaos harness's determinism contract). Journalled so a resumed run
  /// inherits the contract.
  bool fh_deterministic_walls = false;

  /// Checkpoint cadence of the run that wrote this journal; a resume with no
  /// explicit cadence inherits it.
  int ckpt_every = 0;

  /// Progress: `watermark` steps of `total_steps` are complete; step_ms has
  /// exactly `watermark` entries (times of completed steps since step 0).
  int total_steps = 0;
  int watermark = 0;
  int transient_retries = 0;
  double retry_backoff_total_ms = 0.0;
  std::vector<double> step_ms;
  std::vector<RecoveryRecord> recoveries;

  /// The originally deployed plan, embedded as checksummed v2 text, and the
  /// per-op grouping assignment it indexes into.
  std::string plan_text;
  std::vector<int32_t> grouping_assignment;

  /// Fault plan JSON (faults::fault_plan_to_json); empty when none.
  std::string fault_plan_json;

  /// Serialized health::HealthMonitor state at the watermark (empty when
  /// online health monitoring is off). Resume replays observations from step
  /// 0 and cross-checks the rebuilt monitor against this snapshot, proving
  /// detection decisions are deterministic across a crash.
  std::string health_state;
};

/// Serialises the journal (line-oriented text ending in a `crc` trailer).
std::string to_text(const RunJournal& journal);

/// Parses and fully validates a journal; throws JournalError on anything
/// short of a byte-exact round-trip of what to_text produced.
RunJournal parse_journal(const std::string& text);

/// Atomic save. Creates the parent directory if needed. Returns false (and
/// leaves any prior journal intact) on any failure.
bool save_journal(const std::string& path, const RunJournal& journal);

/// Reads and parses `path`; throws JournalError when unreadable or corrupt.
RunJournal load_journal(const std::string& path);

/// Periodic checkpointing knobs accepted by DistRunner::run and resume_run.
struct CheckpointOptions {
  /// Directory the journal lives in (created on first save). Empty disables.
  std::string dir;
  /// Snapshot after every `every` completed steps, anchored at absolute step
  /// counts so interrupted and uninterrupted runs checkpoint at the same
  /// steps. A final snapshot is always written when the run ends. 0 disables.
  int every = 0;
  /// Caller metadata stored verbatim in the journal (see RunJournal::meta).
  std::map<std::string, std::string> meta;
  /// Invoked after each successful snapshot with the completed-step count
  /// and the journal path. Exceptions propagate out of run() — tests use
  /// this to simulate a crash at an exact checkpoint boundary.
  std::function<void(int completed_steps, const std::string& path)> after_checkpoint;

  bool enabled() const { return every > 0 && !dir.empty(); }
  /// dir + "/journal.heterog".
  std::string journal_path() const;
};

}  // namespace heterog::ckpt
