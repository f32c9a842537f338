// Robustness tests for the crash-consistent persistent plan/eval store
// (DESIGN.md §5g, docs/persistence.md).
//
// The headline guarantees live here: a per-byte corruption sweep over a
// populated journal (every flip either heals or quarantines — the store
// never crashes and never returns a wrong evaluation), fork + SIGKILL
// during appends and during compaction (the store is always openable
// afterwards, and a post-recovery search is bit-identical to a store-less
// one), single-writer locking with stale-lock takeover, version-skew
// rebuild, and a concurrent reader/writer hammer that runs under TSan in
// CI. This binary carries the `store` ctest label.
#include <gtest/gtest.h>

#include <signal.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "agent/policy.h"
#include "common/record_io.h"
#include "rl/eval_engine.h"
#include "rl/trainer.h"
#include "store/plan_store.h"
#include "test_util.h"

namespace heterog::store {
namespace {

namespace fs = std::filesystem;

/// Fresh per-test scratch directory under the system temp space.
class TempDir {
 public:
  explicit TempDir(const std::string& tag) {
    path_ = fs::temp_directory_path() /
            ("heterog_store_" + tag + "_" + std::to_string(::getpid()));
    fs::remove_all(path_);
    fs::create_directories(path_);
  }
  ~TempDir() {
    std::error_code ec;
    fs::remove_all(path_, ec);
  }
  std::string str() const { return path_.string(); }
  fs::path path() const { return path_; }

 private:
  fs::path path_;
};

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::stringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

void write_file(const std::string& path, const std::string& bytes) {
  std::ofstream(path, std::ios::binary | std::ios::trunc) << bytes;
}

/// Deterministic, awkward evaluation for key index `i`: non-terminating
/// binary fractions and varying vector lengths so exact round-trips are
/// actually exercised.
sim::PlanEvaluation make_eval(uint64_t i) {
  sim::PlanEvaluation e;
  e.per_iteration_ms = 0.1 * static_cast<double>(i) + 1.0 / 3.0;
  e.cold_iteration_ms = std::sqrt(static_cast<double>(i) + 2.0);
  e.computation_ms = static_cast<double>(i) * 1e-3 + 1e-9;
  e.communication_ms = 7.25 - 1.0 / static_cast<double>(i + 3);
  e.oom = (i % 3) == 0;
  for (uint64_t d = 0; d < (i % 4) + 1; ++d) {
    e.peak_memory_bytes.push_back(static_cast<int64_t>(i * 1000 + d) - 5);
  }
  if (e.oom) e.oom_devices = {static_cast<cluster::DeviceId>(i % 7)};
  return e;
}

void expect_eval_eq(const sim::PlanEvaluation& a, const sim::PlanEvaluation& b) {
  EXPECT_EQ(a.per_iteration_ms, b.per_iteration_ms);
  EXPECT_EQ(a.cold_iteration_ms, b.cold_iteration_ms);
  EXPECT_EQ(a.computation_ms, b.computation_ms);
  EXPECT_EQ(a.communication_ms, b.communication_ms);
  EXPECT_EQ(a.oom, b.oom);
  EXPECT_EQ(a.peak_memory_bytes, b.peak_memory_bytes);
  EXPECT_EQ(a.oom_devices, b.oom_devices);
}

PlanStoreOptions opts(const std::string& dir) {
  PlanStoreOptions o;
  o.dir = dir;
  return o;
}

// Record framing --------------------------------------------------------------

TEST(RecordIo, FrameScanRoundTrip) {
  const std::vector<std::string> payloads = {
      "", "hello", std::string("bin\0\nrec 3 ff\n", 13),
      std::string(4096, 'x'), "trailing space "};
  std::string buffer;
  for (const auto& p : payloads) buffer += frame_record(p);

  RecordScanner scanner(buffer);
  for (const auto& p : payloads) {
    const ScannedRecord rec = scanner.next();
    ASSERT_EQ(rec.status, ScannedRecord::Status::kOk);
    EXPECT_EQ(rec.payload, p);
  }
  EXPECT_EQ(scanner.next().status, ScannedRecord::Status::kEnd);
}

TEST(RecordIo, ResyncQuarantinesOneRecordPerFlip) {
  const std::string a = frame_record("alpha");
  const std::string b = frame_record("bravo");
  const std::string c = frame_record("charlie");
  std::string buffer = a + b + c;
  buffer[a.size() + b.size() / 2] ^= 0x40;  // damage bravo only

  RecordScanner scanner(buffer);
  ScannedRecord rec = scanner.next();
  ASSERT_EQ(rec.status, ScannedRecord::Status::kOk);
  EXPECT_EQ(rec.payload, "alpha");
  rec = scanner.next();
  EXPECT_EQ(rec.status, ScannedRecord::Status::kCorrupt);
  EXPECT_FALSE(rec.reason.empty());
  rec = scanner.next();
  ASSERT_EQ(rec.status, ScannedRecord::Status::kOk);
  EXPECT_EQ(rec.payload, "charlie");
  EXPECT_EQ(scanner.next().status, ScannedRecord::Status::kEnd);
}

TEST(RecordIo, CraftedLengthPrefixCannotDriveAllocation) {
  // A length prefix beyond the payload bound must be rejected as corruption,
  // not trusted (a trusted 16 EB length would OOM or crash the scan).
  for (const char* frame : {"rec 99999999999999999999 deadbeef\nx\n",
                            "rec 18446744073709551615 deadbeef\nx\n",
                            "rec -4 deadbeef\nx\n", "rec 1x deadbeef\nx\n"}) {
    RecordScanner scanner(frame);
    EXPECT_EQ(scanner.next().status, ScannedRecord::Status::kCorrupt) << frame;
  }
}

TEST(RecordIo, CrcTrailerRoundTripAndTamperDetection) {
  const std::string doc = with_crc_trailer("line one\nline two\n");
  const CrcTrailerResult ok = strip_crc_trailer(doc);
  ASSERT_TRUE(ok.ok) << ok.error;
  EXPECT_EQ(ok.body, "line one\nline two\n");

  for (size_t i = 0; i < doc.size(); ++i) {
    std::string tampered = doc;
    tampered[i] ^= 0x01;
    const CrcTrailerResult r = strip_crc_trailer(tampered);
    // A flip inside the body or inside the stored checksum must both fail
    // (the trailer is compared as text, so checksum flips are caught too).
    EXPECT_FALSE(r.ok) << "byte " << i;
  }
}

// Eval payload codec ----------------------------------------------------------

TEST(PlanStoreCodec, EvalRoundTripIsExact) {
  for (uint64_t i = 0; i < 32; ++i) {
    const uint64_t key = 0x9E3779B97F4A7C15ull * (i + 1);
    const sim::PlanEvaluation eval = make_eval(i);
    uint64_t got_key = 0;
    sim::PlanEvaluation got;
    ASSERT_TRUE(PlanStore::decode_eval(PlanStore::encode_eval(key, eval),
                                       &got_key, &got));
    EXPECT_EQ(got_key, key);
    expect_eval_eq(got, eval);
  }
}

TEST(PlanStoreCodec, DecodeRejectsMalformedPayloads) {
  const std::string valid = PlanStore::encode_eval(42, make_eval(5));
  uint64_t key = 0;
  sim::PlanEvaluation eval;
  ASSERT_TRUE(PlanStore::decode_eval(valid, &key, &eval));

  // Every truncation of a valid payload must be rejected, never crash.
  for (size_t len = 0; len < valid.size(); ++len) {
    EXPECT_FALSE(PlanStore::decode_eval(valid.substr(0, len), &key, &eval))
        << "truncated to " << len;
  }
  EXPECT_FALSE(PlanStore::decode_eval(valid + " extra", &key, &eval));
  EXPECT_FALSE(PlanStore::decode_eval("eval zz 1 1 1 1 0 peaks 0 oomdevs 0",
                                      &key, &eval));
  EXPECT_FALSE(PlanStore::decode_eval(
      "eval 000000000000002a 1 1 1 1 2 peaks 0 oomdevs 0", &key, &eval));
  // A bounded-but-huge count must fail cleanly, not reserve gigabytes.
  EXPECT_FALSE(PlanStore::decode_eval(
      "eval 000000000000002a 1 1 1 1 0 peaks 999999999999 1", &key, &eval));
  // A leading '+' is malformed in every numeric field.
  ASSERT_TRUE(PlanStore::decode_eval(
      "eval 000000000000002a 1 1 1 1 0 peaks 1 5 oomdevs 0", &key, &eval));
  for (const char* plus : {"eval 000000000000002a +1 1 1 1 0 peaks 1 5 oomdevs 0",
                           "eval 000000000000002a 1 1 1 1 0 peaks +1 5 oomdevs 0",
                           "eval 000000000000002a 1 1 1 1 0 peaks 1 +5 oomdevs 0",
                           "eval 000000000000002a 1 1 1 1 0 peaks 1 5 oomdevs 1 +2"}) {
    EXPECT_FALSE(PlanStore::decode_eval(plus, &key, &eval)) << plus;
  }
}

// Store basics ----------------------------------------------------------------

TEST(PlanStoreBasics, RoundTripAcrossReopen) {
  TempDir dir("roundtrip");
  constexpr uint64_t kCount = 100;
  {
    PlanStore store(opts(dir.str()));
    for (uint64_t i = 1; i <= kCount; ++i) store.put(i, make_eval(i));
    EXPECT_EQ(store.stats().puts, kCount);
  }  // destructor flushes + releases the lock

  PlanStore store(opts(dir.str()));
  EXPECT_EQ(store.size(), kCount);
  EXPECT_EQ(store.stats().records_loaded, kCount);
  EXPECT_EQ(store.stats().records_quarantined, 0u);
  EXPECT_FALSE(store.stats().healed);
  for (uint64_t i = 1; i <= kCount; ++i) {
    sim::PlanEvaluation got;
    ASSERT_TRUE(store.lookup(i, &got)) << "key " << i;
    expect_eval_eq(got, make_eval(i));
  }
  sim::PlanEvaluation got;
  EXPECT_FALSE(store.lookup(kCount + 1, &got));
  EXPECT_EQ(store.stats().hits, kCount);
  EXPECT_EQ(store.stats().misses, 1u);
}

TEST(PlanStoreBasics, LastWriteWinsAcrossReopen) {
  TempDir dir("lww");
  {
    PlanStore store(opts(dir.str()));
    store.put(7, make_eval(1));
    store.flush();
    store.put(7, make_eval(2));  // journal now holds both; newest must win
  }
  PlanStore store(opts(dir.str()));
  sim::PlanEvaluation got;
  ASSERT_TRUE(store.lookup(7, &got));
  expect_eval_eq(got, make_eval(2));
  EXPECT_EQ(store.size(), 1u);
}

TEST(PlanStoreBasics, UtilizationAnnotatedEvalsAreNotPersisted) {
  TempDir dir("util");
  PlanStore store(opts(dir.str()));
  sim::PlanEvaluation annotated = make_eval(4);
  annotated.device_busy_ms = {1.0, 2.0};  // deployment-path detail
  store.put(11, annotated);
  sim::PlanEvaluation got;
  EXPECT_FALSE(store.lookup(11, &got));
  EXPECT_EQ(store.stats().puts, 0u);
}

TEST(PlanStoreBasics, CompactionBumpsGenerationAndPersists) {
  TempDir dir("gen");
  {
    PlanStore store(opts(dir.str()));
    EXPECT_EQ(store.stats().generation, 1);
    for (uint64_t i = 1; i <= 10; ++i) store.put(i, make_eval(i));
    store.flush();
    store.put(3, make_eval(30));  // duplicate to be squeezed out
    store.compact();
    EXPECT_EQ(store.stats().generation, 2);
    EXPECT_EQ(store.stats().compactions, 1u);
  }
  PlanStore store(opts(dir.str()));
  EXPECT_EQ(store.stats().generation, 2);
  EXPECT_EQ(store.size(), 10u);
  sim::PlanEvaluation got;
  ASSERT_TRUE(store.lookup(3, &got));
  expect_eval_eq(got, make_eval(30));
}

TEST(PlanStoreBasics, CompactedJournalBytesAreDeterministic) {
  // Same contents, different insertion orders -> byte-identical journals
  // (records are sorted by key at compaction).
  TempDir a("det_a");
  TempDir b("det_b");
  {
    PlanStore store(opts(a.str()));
    for (uint64_t i = 1; i <= 20; ++i) store.put(i, make_eval(i));
    store.compact();
  }
  {
    PlanStore store(opts(b.str()));
    for (uint64_t i = 20; i >= 1; --i) store.put(i, make_eval(i));
    store.compact();
  }
  PlanStore sa(opts(a.str()));
  PlanStore sb(opts(b.str()));
  EXPECT_EQ(read_file(sa.journal_path()), read_file(sb.journal_path()));
}

// Locking ---------------------------------------------------------------------

TEST(PlanStoreLock, SecondWriterRaisesTypedLockedError) {
  TempDir dir("lock");
  PlanStore first(opts(dir.str()));
  try {
    PlanStore second(opts(dir.str()));
    FAIL() << "second writer must not open";
  } catch (const StoreError& e) {
    EXPECT_EQ(e.kind(), StoreError::Kind::kLocked);
    EXPECT_NE(std::string(e.what()).find("plan store:"), std::string::npos);
  }
}

TEST(PlanStoreLock, ReadOnlyOpenBypassesLiveLock) {
  TempDir dir("rolock");
  PlanStore writer(opts(dir.str()));
  writer.put(5, make_eval(5));
  writer.flush();

  PlanStoreOptions ro = opts(dir.str());
  ro.read_only = true;
  PlanStore reader(ro);
  sim::PlanEvaluation got;
  ASSERT_TRUE(reader.lookup(5, &got));
  expect_eval_eq(got, make_eval(5));
  reader.put(6, make_eval(6));  // silently ignored in read_only mode
  EXPECT_FALSE(reader.lookup(6, &got));
}

TEST(PlanStoreLock, StaleLockFromDeadPidIsTakenOver) {
  TempDir dir("stale");
  // A reaped child's pid is a guaranteed-dead process id.
  const pid_t child = fork();
  ASSERT_GE(child, 0);
  if (child == 0) _exit(0);
  int status = 0;
  ASSERT_EQ(waitpid(child, &status, 0), child);

  write_file((dir.path() / "store.lock").string(),
             "pid " + std::to_string(child) + "\n");
  PlanStore store(opts(dir.str()));  // must take the lock over, not throw
  store.put(1, make_eval(1));
  sim::PlanEvaluation got;
  EXPECT_TRUE(store.lookup(1, &got));
}

TEST(PlanStoreLock, SimultaneousStaleTakeoverAdmitsExactlyOneWriter) {
  // Regression for the takeover TOCTOU: with remove()-based takeover, two
  // claimants could both observe the dead pid and the slower one would unlink
  // the lock the faster one had just re-created — two live writers. The
  // rename-claim protocol must admit exactly one writer; every other claimant
  // gets the typed kLocked error while the winner is alive.
  TempDir dir("race");

  const pid_t dead = fork();
  ASSERT_GE(dead, 0);
  if (dead == 0) _exit(0);
  int status = 0;
  ASSERT_EQ(waitpid(dead, &status, 0), dead);
  write_file((dir.path() / "store.lock").string(),
             "pid " + std::to_string(dead) + "\n");

  constexpr int kClaimants = 8;
  int go[2];     // barrier: claimants block until the parent closes the write end
  int result[2]; // each claimant reports exactly one byte: 'W' won, 'L' locked
  int hold[2];   // the winner parks here so its lock stays live until all report
  ASSERT_EQ(pipe(go), 0);
  ASSERT_EQ(pipe(result), 0);
  ASSERT_EQ(pipe(hold), 0);

  std::vector<pid_t> kids;
  for (int i = 0; i < kClaimants; ++i) {
    const pid_t kid = fork();  // single-threaded parent: fork is safe here
    ASSERT_GE(kid, 0);
    if (kid == 0) {
      close(go[1]);
      close(result[0]);
      close(hold[1]);
      char byte = 0;
      (void)!read(go[0], &byte, 1);  // returns at parent's close: all start together
      try {
        PlanStore store(opts(dir.str()));
        (void)!write(result[1], "W", 1);
        (void)!read(hold[0], &byte, 1);  // keep the lock live until released
        _exit(0);
      } catch (const StoreError& e) {
        const char code = e.kind() == StoreError::Kind::kLocked ? 'L' : 'E';
        (void)!write(result[1], &code, 1);
        _exit(0);
      } catch (...) {
        (void)!write(result[1], "X", 1);
        _exit(1);
      }
    }
    kids.push_back(kid);
  }
  close(go[0]);
  close(result[1]);
  close(hold[0]);

  close(go[1]);  // barrier release: every claimant's read returns now
  int winners = 0, locked = 0, other = 0;
  for (int i = 0; i < kClaimants; ++i) {
    char byte = 0;
    ASSERT_EQ(read(result[0], &byte, 1), 1) << "claimant died without reporting";
    if (byte == 'W') ++winners;
    else if (byte == 'L') ++locked;
    else ++other;
  }
  EXPECT_EQ(winners, 1);
  EXPECT_EQ(locked, kClaimants - 1);
  EXPECT_EQ(other, 0);

  close(hold[1]);  // release the winner
  for (const pid_t kid : kids) {
    ASSERT_EQ(waitpid(kid, &status, 0), kid);
    EXPECT_TRUE(WIFEXITED(status));
    EXPECT_EQ(WEXITSTATUS(status), 0);
  }
  close(result[0]);

  // The store must still be cleanly openable once everyone is gone.
  PlanStore store(opts(dir.str()));
  store.put(2, make_eval(2));
  sim::PlanEvaluation got;
  EXPECT_TRUE(store.lookup(2, &got));
}

// Version skew ----------------------------------------------------------------

TEST(PlanStoreSkew, NewerFormatVersionRebuildsEmpty) {
  TempDir dir("skew");
  // Craft a well-framed journal claiming a future format version: its
  // payload schema cannot be trusted, so everything is quarantined.
  std::string journal = frame_record("heterog-store v99 gen 5");
  journal += frame_record(PlanStore::encode_eval(12, make_eval(12)));
  write_file((dir.path() / "evals.journal").string(), journal);

  PlanStore store(opts(dir.str()));
  EXPECT_EQ(store.size(), 0u);
  EXPECT_GE(store.stats().records_quarantined, 2u);
  EXPECT_TRUE(store.stats().healed);
  EXPECT_TRUE(fs::exists(dir.path() / "quarantine.log"));

  // The store stays usable: writes land behind a fresh valid header.
  store.put(1, make_eval(1));
  store.flush();
  sim::PlanEvaluation got;
  EXPECT_TRUE(store.lookup(1, &got));
}

TEST(PlanStoreSkew, SignedHeaderFieldsAreMalformed) {
  // A signed generation makes the header malformed, so its records are
  // quarantined like a skewed journal's.
  TempDir dir("plusgen");
  std::string journal = frame_record("heterog-store v1 gen +1");
  journal += frame_record(PlanStore::encode_eval(12, make_eval(12)));
  write_file((dir.path() / "evals.journal").string(), journal);
  PlanStore store(opts(dir.str()));
  EXPECT_EQ(store.size(), 0u);
  EXPECT_GE(store.stats().records_quarantined, 2u);
  EXPECT_TRUE(store.stats().healed);
}

TEST(PlanStoreSkew, GarbageJournalRebuildsEmpty) {
  TempDir dir("garbage");
  write_file((dir.path() / "evals.journal").string(),
             "this was never a store journal\n\xff\xfe\x00 bytes");
  PlanStore store(opts(dir.str()));
  EXPECT_EQ(store.size(), 0u);
  EXPECT_TRUE(store.stats().healed);
  // Still usable after the rebuild.
  store.put(2, make_eval(2));
  store.flush();
  sim::PlanEvaluation got;
  EXPECT_TRUE(store.lookup(2, &got));
}

// Corruption sweeps -----------------------------------------------------------

/// Builds a pristine populated store and returns its journal bytes.
std::string populated_journal(const std::string& dir, uint64_t count) {
  PlanStore store(opts(dir));
  for (uint64_t i = 1; i <= count; ++i) store.put(i, make_eval(i));
  store.flush();
  return read_file(store.journal_path());
}

TEST(PlanStoreCorruption, PerByteFlipSweepNeverCrashesOrPoisons) {
  TempDir dir("flip");
  constexpr uint64_t kCount = 5;
  const std::string pristine = populated_journal(dir.str(), kCount);
  ASSERT_GT(pristine.size(), 100u);
  const std::string journal_path = (dir.path() / "evals.journal").string();
  const std::string quarantine_path = (dir.path() / "quarantine.log").string();

  for (size_t pos = 0; pos < pristine.size(); ++pos) {
    std::string flipped = pristine;
    flipped[pos] ^= 0x40;
    write_file(journal_path, flipped);
    fs::remove(quarantine_path);

    uint64_t present = 0;
    uint64_t quarantined = 0;
    {
      PlanStore store(opts(dir.str()));  // must never throw for corruption
      quarantined = store.stats().records_quarantined;
      for (uint64_t i = 1; i <= kCount; ++i) {
        sim::PlanEvaluation got;
        if (!store.lookup(i, &got)) continue;
        ++present;
        expect_eval_eq(got, make_eval(i));  // never a wrong value
      }
      // A flip that cost us records must be accounted for in quarantine —
      // silent loss is as bad as a crash. (The header record is not a
      // lookup key, so a header flip shows up as quarantine alone.)
      if (present < kCount) {
        EXPECT_GE(quarantined, 1u) << "byte " << pos << " lost records silently";
        EXPECT_TRUE(fs::exists(quarantine_path)) << "byte " << pos;
      }
    }

    // Self-heal is durable: reopening the healed store finds no damage.
    PlanStore reopened(opts(dir.str()));
    EXPECT_EQ(reopened.stats().records_quarantined, 0u) << "byte " << pos;
    EXPECT_EQ(reopened.size(), present) << "byte " << pos;
  }
}

TEST(PlanStoreCorruption, TruncationSweepKeepsEveryDurablePrefix) {
  TempDir dir("trunc");
  constexpr uint64_t kCount = 5;
  const std::string pristine = populated_journal(dir.str(), kCount);
  const std::string journal_path = (dir.path() / "evals.journal").string();
  const std::string quarantine_path = (dir.path() / "quarantine.log").string();

  uint64_t last_present = 0;
  for (size_t len = 0; len <= pristine.size(); ++len) {
    write_file(journal_path, pristine.substr(0, len));
    fs::remove(quarantine_path);

    PlanStore store(opts(dir.str()));
    uint64_t present = 0;
    for (uint64_t i = 1; i <= kCount; ++i) {
      sim::PlanEvaluation got;
      if (!store.lookup(i, &got)) continue;
      ++present;
      expect_eval_eq(got, make_eval(i));
    }
    // Longer prefixes can only reveal more records (appends are ordered):
    // a torn tail loses the tail, never an already-durable record.
    EXPECT_GE(present + 1, last_present) << "len " << len;
    last_present = present;
  }
  EXPECT_EQ(last_present, kCount);  // the full journal has everything
}

// Crash consistency (fork + SIGKILL) ------------------------------------------

/// Forks a child that runs `body` against a fresh PlanStore and never
/// returns; the parent SIGKILLs it after `delay_us` and reaps it.
template <typename Body>
void kill_child_during(const std::string& dir, useconds_t delay_us, Body body) {
  const pid_t child = fork();
  ASSERT_GE(child, 0);
  if (child == 0) {
    try {
      PlanStore store(opts(dir));
      body(store);
    } catch (...) {
    }
    _exit(0);
  }
  ::usleep(delay_us);
  ::kill(child, SIGKILL);
  int status = 0;
  ASSERT_EQ(waitpid(child, &status, 0), child);
}

TEST(PlanStoreCrash, KillDuringAppendsAlwaysLeavesOpenableStore) {
  TempDir dir("killput");
  // Escalating delays catch different instants: mid-open, first appends,
  // deep into the journal.
  for (const useconds_t delay_us : {500u, 2000u, 8000u, 20000u, 50000u}) {
    kill_child_during(dir.str(), delay_us, [](PlanStore& store) {
      for (uint64_t i = 1;; ++i) {
        store.put(i, make_eval(i));
        store.flush();  // write-through so every instant has a torn-tail risk
      }
    });

    // The dead child's lock must be taken over, the journal must open, and
    // every record that made it to disk must read back exactly.
    PlanStore store(opts(dir.str()));
    uint64_t present = 0;
    for (uint64_t i = 1; i <= 1'000'000; ++i) {
      sim::PlanEvaluation got;
      if (!store.lookup(i, &got)) break;  // contiguous prefix by construction
      ++present;
      expect_eval_eq(got, make_eval(i));
    }
    EXPECT_EQ(store.size(), present);
    // At most the torn tail batch may be quarantined, never more.
    EXPECT_LE(store.stats().records_quarantined, 1u);
    fs::remove_all(dir.path());
    fs::create_directories(dir.path());
  }
}

TEST(PlanStoreCrash, KillDuringCompactionAlwaysLeavesOpenableStore) {
  TempDir dir("killcompact");
  constexpr uint64_t kCount = 40;
  {
    PlanStore store(opts(dir.str()));
    for (uint64_t i = 1; i <= kCount; ++i) {
      store.put(i, make_eval(i));
      if (i % 8 == 0) store.flush();  // several append batches to squeeze
    }
  }

  for (const useconds_t delay_us : {500u, 2000u, 8000u, 25000u}) {
    kill_child_during(dir.str(), delay_us, [](PlanStore& store) {
      for (;;) store.compact();  // every instant is inside some compaction
    });

    // Atomic replace: whatever instant the kill hit, the journal is either
    // the old or the new generation — all records, exact values, no loss.
    PlanStore store(opts(dir.str()));
    EXPECT_EQ(store.size(), kCount);
    EXPECT_EQ(store.stats().records_quarantined, 0u);
    for (uint64_t i = 1; i <= kCount; ++i) {
      sim::PlanEvaluation got;
      ASSERT_TRUE(store.lookup(i, &got)) << "key " << i;
      expect_eval_eq(got, make_eval(i));
    }
  }
}

// Concurrency (runs under TSan via the `store` label in CI) -------------------

TEST(PlanStoreConcurrency, ConcurrentReadersWritersAndCompaction) {
  TempDir dir("tsan");
  PlanStoreOptions options = opts(dir.str());
  options.flush_every = 4;
  PlanStore store(options);
  constexpr uint64_t kKeys = 160;

  std::thread writer([&] {
    for (uint64_t i = 1; i <= kKeys; ++i) store.put(i, make_eval(i));
  });
  std::thread compactor([&] {
    for (int round = 0; round < 24; ++round) {
      store.flush();
      store.compact();
    }
  });
  std::vector<std::thread> readers;
  for (int r = 0; r < 2; ++r) {
    readers.emplace_back([&, r] {
      sim::PlanEvaluation got;
      for (uint64_t i = 1; i <= kKeys * 4; ++i) {
        const uint64_t key = (i * (static_cast<uint64_t>(r) + 3)) % kKeys + 1;
        if (store.lookup(key, &got)) {
          // A concurrent hit must already be the full, final value.
          expect_eval_eq(got, make_eval(key));
        }
      }
    });
  }
  writer.join();
  compactor.join();
  for (auto& t : readers) t.join();

  store.flush();
  for (uint64_t i = 1; i <= kKeys; ++i) {
    sim::PlanEvaluation got;
    ASSERT_TRUE(store.lookup(i, &got));
    expect_eval_eq(got, make_eval(i));
  }
}

// Search integration: bit-identical with the store hot, cold, corrupted, or
// recovering from a SIGKILL mid-compaction ------------------------------------

rl::SearchResult run_search(const profiler::CostProvider& costs, int device_count,
                            const agent::EncodedGraph& encoded,
                            PlanStore* plan_store) {
  rl::TrainConfig config;
  config.episodes = 5;
  config.samples_per_episode = 2;
  config.patience = 0;
  config.polish_moves = 8;
  config.threads = 2;
  config.plan_store = plan_store;
  config.plan_store_context = 0xC0FFEE;  // any value, same for every run

  agent::AgentConfig agent_config;
  agent_config.max_groups = 16;
  agent_config.seed = 11;
  agent::PolicyNetwork policy(device_count, agent_config);
  rl::Trainer trainer(costs, config);
  return trainer.search(policy, encoded);
}

void expect_identical(const rl::SearchResult& a, const rl::SearchResult& b) {
  EXPECT_EQ(a.best_time_ms, b.best_time_ms);
  EXPECT_EQ(a.best_feasible, b.best_feasible);
  EXPECT_EQ(a.episodes_run, b.episodes_run);
  EXPECT_EQ(a.episode_of_best, b.episode_of_best);
  EXPECT_EQ(a.episode_best_ms, b.episode_best_ms);
  EXPECT_EQ(a.best_strategy.group_actions, b.best_strategy.group_actions);
}

TEST(PlanStoreSearch, SearchBitIdenticalColdWarmCorruptedAndPostCrash) {
  heterog::testing::TestRig rig(cluster::make_paper_testbed_8gpu());
  const auto graph = heterog::testing::make_toy_training_graph();
  const auto encoded = agent::encode_graph(graph, *rig.costs, 16);
  const int devices = rig.cluster.device_count();

  const auto baseline = run_search(*rig.costs, devices, encoded, nullptr);
  EXPECT_EQ(baseline.eval_store_hits, 0u);
  EXPECT_EQ(baseline.eval_store_misses, 0u);

  TempDir dir("search");
  {
    // Cold store: identical plan, zero cross-run hits, everything persisted.
    PlanStore store(opts(dir.str()));
    const auto cold = run_search(*rig.costs, devices, encoded, &store);
    expect_identical(baseline, cold);
    EXPECT_EQ(cold.eval_store_hits, 0u);
    EXPECT_GT(cold.eval_store_misses, 0u);
  }
  {
    // Warm store, fresh process-equivalent (new Trainer, new LRU): identical
    // plan answered from disk — the cross-run cache actually works.
    PlanStore store(opts(dir.str()));
    EXPECT_GT(store.size(), 0u);
    const auto warm = run_search(*rig.costs, devices, encoded, &store);
    expect_identical(baseline, warm);
    EXPECT_GT(warm.eval_store_hits, 0u);
    EXPECT_EQ(warm.eval_store_misses, 0u);
  }
  {
    // Corrupt a spread of journal bytes: the open heals, and whatever subset
    // survived, the search result cannot change — only the hit count can.
    const std::string journal_path = (dir.path() / "evals.journal").string();
    std::string bytes = read_file(journal_path);
    for (size_t pos = 10; pos < bytes.size(); pos += 97) bytes[pos] ^= 0x20;
    write_file(journal_path, bytes);

    PlanStore store(opts(dir.str()));
    EXPECT_GT(store.stats().records_quarantined, 0u);
    const auto corrupted = run_search(*rig.costs, devices, encoded, &store);
    expect_identical(baseline, corrupted);
  }
  {
    // SIGKILL mid-compaction, then resume: the recovered store still answers
    // and the post-recovery search stays bit-identical.
    const pid_t child = fork();
    ASSERT_GE(child, 0);
    if (child == 0) {
      try {
        PlanStore store(opts(dir.str()));
        for (;;) store.compact();
      } catch (...) {
      }
      _exit(0);
    }
    ::usleep(5000);
    ::kill(child, SIGKILL);
    int status = 0;
    ASSERT_EQ(waitpid(child, &status, 0), child);

    PlanStore store(opts(dir.str()));
    const auto recovered = run_search(*rig.costs, devices, encoded, &store);
    expect_identical(baseline, recovered);
  }
}

TEST(PlanStoreSearch, PoisonedCacheEntriesNeverBecomeDurable) {
  heterog::testing::TestRig rig(cluster::make_paper_testbed_8gpu());
  const auto graph = heterog::testing::make_toy_training_graph();
  const auto grouping = strategy::Grouping::build(graph, *rig.costs, 8);
  const auto map = strategy::StrategyMap::uniform(
      grouping.group_count(),
      strategy::Action::dp(strategy::ReplicationMode::kEven,
                           strategy::CommMethod::kAllReduce));

  TempDir dir("poison");
  {
    PlanStore store(opts(dir.str()));
    rl::EvalEngineOptions engine_options;
    engine_options.plan_store = &store;
    rl::EvalEngine engine(*rig.costs, engine_options);

    sim::PlanEvaluation poison;
    poison.per_iteration_ms = 123456.5;
    engine.poison(rl::EvalEngine::plan_key(graph, grouping, map,
                                           sim::PlanEvalOptions{}),
                  poison);
    store.flush();
  }
  PlanStore store(opts(dir.str()));
  EXPECT_EQ(store.size(), 0u);  // the poison stayed in the LRU tier only
}

}  // namespace
}  // namespace heterog::store
