// Crash-consistent persistent plan/eval store.
//
// PlanStore promotes rl::EvalEngine's in-process LRU to a durable cross-run
// cache: a directory holding an append-only journal of CRC32-framed eval
// records (common/record_io), a CRC-stamped generation header, a quarantine
// sidecar and a single-writer lock file. The design goal is that the store
// is *never* the reason a search fails:
//
//   * self-healing open — the journal is scanned record by record; corrupt
//     or truncated records (torn appends, bit rot, version skew) are copied
//     to `quarantine.log` with a reason and skipped, then the journal is
//     compacted to a clean generation via the write-temp/fsync/rename
//     protocol. Corruption is telemetry (`store_quarantine` events,
//     `store.quarantined.count`), not an error.
//   * crash-safe writes — puts are write-behind (buffered, appended in
//     batches with fsync); a SIGKILL mid-append tears at most the tail
//     batch, which the next open quarantines. Compaction replaces the
//     journal atomically, so a kill at any instant leaves either the old or
//     the new generation — tests/store_test.cpp proves both with fork+
//     SIGKILL loops and per-byte corruption sweeps.
//   * version skew — the first record is a header "heterog-store v<V> gen
//     <N>". An unknown (newer) version quarantines the whole journal and
//     rebuilds empty rather than guessing at its framing; generations count
//     compactions so forensics can tell rewrites apart.
//   * single writer — an exclusive flock on `store.lock`, held for the
//     store's lifetime, enforces one writer; a held lock raises
//     StoreError{kLocked}. The kernel releases it when the holder closes or
//     dies, so there are no stale locks. Readers (read_only) skip the lock
//     entirely.
//
// Correctness contract: a store lookup only ever returns bytes that round-
// trip the exact doubles written (format_double), keyed by the caller's
// 64-bit hash — search results with the store hot, cold or corrupted are
// bit-identical to a store-less run (rl::EvalEngine wires the key with a
// store context hash covering cluster fingerprint + profiler seed, so
// entries can never leak across clusters or cost models).
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <stdexcept>
#include <string>
#include <string_view>
#include <unordered_map>

#include "obs/event_log.h"
#include "obs/metrics.h"
#include "sim/plan_eval.h"

namespace heterog::store {

/// The only exception PlanStore throws. kEnvironment: the directory cannot
/// be created/written (missing parent, path is a file, read-only fs).
/// kLocked: another open store holds the writer lock.
class StoreError : public std::runtime_error {
 public:
  enum class Kind { kEnvironment, kLocked };
  StoreError(Kind kind, const std::string& what)
      : std::runtime_error("plan store: " + what), kind_(kind) {}
  Kind kind() const { return kind_; }

 private:
  Kind kind_;
};

struct PlanStoreOptions {
  std::string dir;
  /// Open without the writer lock; put()/flush()/compact() become no-ops and
  /// self-healing is skipped (corruption is still quarantine-counted in
  /// stats, just not rewritten).
  bool read_only = false;
  /// Buffered puts per fsync'd append batch (write-behind). 1 = write
  /// through. The destructor and flush() always drain the buffer.
  size_t flush_every = 64;
  /// Telemetry sinks, both optional and non-owning. Write-only: attaching
  /// them never changes lookup results.
  obs::EventLog* events = nullptr;        // store_open / store_quarantine
  obs::MetricsRegistry* metrics = nullptr;  // store.* counters
};

struct PlanStoreStats {
  uint64_t hits = 0;
  uint64_t misses = 0;
  uint64_t puts = 0;
  uint64_t appends_flushed = 0;     // fsync'd append batches
  uint64_t records_loaded = 0;      // live records after the open scan
  uint64_t records_quarantined = 0; // corrupt records diverted at open
  uint64_t compactions = 0;         // journal rewrites (heal or explicit)
  int generation = 0;               // bumped by every compaction
  bool healed = false;              // open found damage and rewrote
};

/// Durable key -> sim::PlanEvaluation map. Thread-safe (one mutex; the
/// eval engine's worker pool calls lookup/put concurrently).
class PlanStore {
 public:
  static constexpr int kFormatVersion = 1;

  /// Opens (creating the directory and journal as needed), scans, and
  /// self-heals. Throws StoreError — never anything else — and only for the
  /// two environment conditions documented on StoreError; corruption of any
  /// kind is handled, not thrown.
  explicit PlanStore(PlanStoreOptions options);
  PlanStore(const PlanStore&) = delete;
  PlanStore& operator=(const PlanStore&) = delete;
  ~PlanStore();  // flushes buffered puts, releases the lock

  /// True + *out filled when `key` is present. Counts a hit/miss.
  bool lookup(uint64_t key, sim::PlanEvaluation* out);

  /// Upserts `key` (last write wins, in memory immediately, durable at the
  /// next flush batch). No-op in read_only mode. Evaluations carrying
  /// utilization detail (collect_utilization) are not persisted — the
  /// deployment path bypasses caching, and the on-disk record only
  /// round-trips the search-path fields.
  void put(uint64_t key, const sim::PlanEvaluation& eval);

  /// Drains the write-behind buffer with one fsync'd append.
  void flush();

  /// Rewrites the journal to a single clean generation (atomic replace,
  /// crash-safe at every instant). No-op in read_only mode.
  void compact();

  PlanStoreStats stats() const;
  size_t size() const;
  const std::string& dir() const { return options_.dir; }

  std::string journal_path() const;
  std::string quarantine_path() const;
  std::string lock_path() const;

  /// One record's payload encoding, exposed for tests and the fuzzer.
  /// decode returns false (never throws) on any malformed payload.
  static std::string encode_eval(uint64_t key, const sim::PlanEvaluation& eval);
  static bool decode_eval(std::string_view payload, uint64_t* key,
                          sim::PlanEvaluation* eval);

 private:
  void open_scan();
  void acquire_lock();
  void release_lock();
  void sweep_stale_tmp_files();
  void quarantine(std::string_view raw, size_t offset, const std::string& reason);
  void flush_locked();
  void compact_locked();
  std::string header_payload(int generation) const;
  void count(const char* metric, uint64_t delta = 1);

  PlanStoreOptions options_;
  mutable std::mutex mu_;
  std::unordered_map<uint64_t, sim::PlanEvaluation> map_;
  std::string pending_;        // framed records awaiting one append batch
  size_t pending_records_ = 0;
  int lock_fd_ = -1;  // holds the writer flock while open; -1 when not held
  PlanStoreStats stats_;
};

}  // namespace heterog::store
