// Crash-consistent checkpoint/resume tests (DESIGN.md "Crash consistency &
// resume").
//
// The headline guarantee lives here: a run killed at an arbitrary step —
// simulated both by an after_checkpoint hook that throws and by fork +
// SIGKILL at a random instant — and resumed through heterog::resume_run
// produces per-step times bit-identical to the uninterrupted run's tail,
// with and without an active FaultPlan. Alongside it: journal round-trips,
// per-byte corruption detection for the journal and the v2 plan format,
// v1 read-compat, and atomic-save failure behaviour.
#include <gtest/gtest.h>

#include <signal.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cctype>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "ckpt/journal.h"
#include "cluster/topology.h"
#include "common/record_io.h"
#include "common/shutdown.h"
#include "core/heterog.h"
#include "faults/faults.h"
#include "models/models.h"
#include "strategy/serialize.h"

namespace heterog {
namespace {

namespace fs = std::filesystem;

HeteroGConfig fast_config() {
  HeteroGConfig config;
  config.search_with_rl = false;
  config.train.episodes = 0;
  return config;
}

graph::GraphDef toy_model() {
  return models::build_forward(models::ModelKind::kMobileNetV2, 0, 96);
}

/// One shared deployment for every test in this file — get_runner is the
/// expensive part and DistRunner is immutable, so build it once.
const DistRunner& toy_runner() {
  static const DistRunner runner =
      get_runner(toy_model, cluster::make_paper_testbed_8gpu(), fast_config());
  return runner;
}

faults::FaultEvent device_failure(cluster::DeviceId device, int onset) {
  faults::FaultEvent e;
  e.kind = faults::FaultKind::kDeviceFailure;
  e.device = device;
  e.onset_step = onset;
  return e;
}

faults::FaultEvent transient(cluster::DeviceId device, int onset, int attempts) {
  faults::FaultEvent e;
  e.kind = faults::FaultKind::kTransient;
  e.device = device;
  e.onset_step = onset;
  e.failed_attempts = attempts;
  return e;
}

faults::FaultEvent straggler(cluster::DeviceId device, double slowdown, int onset,
                             int recovery) {
  faults::FaultEvent e;
  e.kind = faults::FaultKind::kStraggler;
  e.device = device;
  e.slowdown = slowdown;
  e.onset_step = onset;
  e.recovery_step = recovery;
  return e;
}

/// Fresh per-test scratch directory under the build tree's temp space.
class TempDir {
 public:
  explicit TempDir(const std::string& tag) {
    path_ = fs::temp_directory_path() /
            ("heterog_ckpt_" + tag + "_" + std::to_string(::getpid()));
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

/// The exception the crash-at-checkpoint hook throws.
struct SimulatedCrash : std::runtime_error {
  SimulatedCrash() : std::runtime_error("simulated crash") {}
};

ckpt::CheckpointOptions opts(const std::string& dir, int every,
                             int crash_after_steps = -1) {
  ckpt::CheckpointOptions o;
  o.dir = dir;
  o.every = every;
  if (crash_after_steps >= 0) {
    o.after_checkpoint = [crash_after_steps](int completed, const std::string&) {
      if (completed == crash_after_steps) throw SimulatedCrash();
    };
  }
  return o;
}

std::vector<double> tail_of(const std::vector<double>& v, size_t from) {
  return {v.begin() + static_cast<long>(from), v.end()};
}

// Journal format -------------------------------------------------------------

ckpt::RunJournal small_journal() {
  ckpt::RunJournal j;
  j.model_name = "toy";
  j.meta = {{"model", "toy"}, {"batch", "32"}};
  j.cluster = cluster::make_homogeneous(4, cluster::GpuModel::kGtx1080Ti, 2);
  j.cluster_crc = cluster::cluster_fingerprint(j.cluster);
  j.profiler_seed = 7;
  j.ckpt_every = 3;
  j.total_steps = 10;
  j.watermark = 4;
  j.transient_retries = 2;
  j.retry_backoff_total_ms = 150.0;
  j.step_ms = {1.25, 1.25, 2.0 / 3.0, 1e-3};
  ckpt::RecoveryRecord r;
  r.fault_step = 2;
  r.failed_devices = {1, 3};
  r.steps_lost = 1;
  r.replan_wall_ms = 12.5;
  r.pre_fault_iteration_ms = 1.25;
  r.post_fault_iteration_ms = 1.5;
  r.surviving_devices = 2;
  r.post_plan_oom = false;
  r.escalated_transient = true;
  j.recoveries = {r};
  j.grouping_assignment = {0, 0, 1, 2, 1};
  j.plan_text = "heterog-plan v1\ndevices 4\ngroups 1\n0\n";
  j.fault_plan_json = "{\"events\":[]}";
  return j;
}

TEST(Journal, TextRoundTripIsExact) {
  const ckpt::RunJournal j = small_journal();
  const std::string text = ckpt::to_text(j);
  const ckpt::RunJournal back = ckpt::parse_journal(text);
  // Serialising the parsed journal must reproduce the bytes exactly — this
  // covers every field, including %.17g double round-trips.
  EXPECT_EQ(ckpt::to_text(back), text);
  EXPECT_EQ(back.model_name, j.model_name);
  EXPECT_EQ(back.meta, j.meta);
  EXPECT_EQ(back.cluster_crc, j.cluster_crc);
  EXPECT_EQ(back.step_ms, j.step_ms);
  EXPECT_EQ(back.grouping_assignment, j.grouping_assignment);
  EXPECT_EQ(back.plan_text, j.plan_text);
  ASSERT_EQ(back.recoveries.size(), 1u);
  EXPECT_EQ(back.recoveries[0].failed_devices, j.recoveries[0].failed_devices);
  EXPECT_TRUE(back.recoveries[0].escalated_transient);
}

TEST(Journal, EveryByteCorruptionIsDetected) {
  const std::string text = ckpt::to_text(small_journal());
  for (size_t i = 0; i < text.size(); ++i) {
    std::string mutated = text;
    mutated[i] = static_cast<char>(mutated[i] ^ 0x40);
    EXPECT_THROW(ckpt::parse_journal(mutated), ckpt::JournalError)
        << "byte " << i << " flip went undetected";
  }
}

TEST(Journal, TruncationAndExtensionAreDetected) {
  const std::string text = ckpt::to_text(small_journal());
  for (size_t keep : {size_t{0}, size_t{1}, text.size() / 2, text.size() - 1}) {
    EXPECT_THROW(ckpt::parse_journal(text.substr(0, keep)), ckpt::JournalError);
  }
  EXPECT_THROW(ckpt::parse_journal(text + "junk\n"), ckpt::JournalError);
  EXPECT_THROW(ckpt::parse_journal(std::string()), ckpt::JournalError);
}

/// `text` with `from` replaced by `to` and its CRC trailer recomputed, so
/// only the field syntax can reject it.
std::string rewrite_journal(const std::string& text, const std::string& from,
                            const std::string& to) {
  std::string body = strip_crc_trailer(text).body;
  const size_t pos = body.find(from);
  EXPECT_NE(pos, std::string::npos) << "no \"" << from << "\" in the journal";
  if (pos != std::string::npos) body.replace(pos, from.size(), to);
  return with_crc_trailer(body);
}

TEST(Journal, RejectsSignedNumbersLooseFlagsAndTrailingTokens) {
  // Malformed: a leading '+', "-1" in the unsigned seed, a flag other than
  // 0 or 1, and a token after the fields a line holds.
  ckpt::RunJournal j = small_journal();
  j.cluster = cluster::generate_cluster(*cluster::topo_preset("pod64"))
                  .degrade_link(0, 9, 0.5)
                  .degrade_switch(1, 0, 0.5);
  j.cluster_crc = cluster::cluster_fingerprint(j.cluster);
  const std::string text = ckpt::to_text(j);
  ASSERT_NO_THROW(ckpt::parse_journal(rewrite_journal(text, "rng-seed 7", "rng-seed 7")));
  const std::vector<std::pair<std::string, std::string>> cases = {
      {"rng-seed 7\n", "rng-seed -1\n"},
      {"ckpt-every 3\n", "ckpt-every +3\n"},
      {"switch 25\n", "switch +25\n"},
      {"grouping 5\n", "grouping +5\n"},
      {"fault-handling 5 50 2000 0 0\n", "fault-handling 5 50 2000 0 2\n"},
      {"fault-handling 5 50 2000 0 0\n", "fault-handling 5 50 2000 0 0 junk\n"},
      {"link 0 2 0.5\n", "link 0 2 0.5 junk\n"},
      {"rack 0 0\n", "rack 0 0 junk\n"},
      {"tier 50 2\n", "tier 50 2 junk\n"},
      {"recovery 2 1 2 0 1 ", "recovery 2 1 2 2 1 "},
      {" 2 1 3 0 0\n", " 2 1 3 0 5\n"},
      {" 2 1 3 0 0\n", " 2 1 3 0 0 junk\n"},
  };
  for (const auto& [from, to] : cases) {
    EXPECT_THROW(ckpt::parse_journal(rewrite_journal(text, from, to)), ckpt::JournalError)
        << to;
  }
}

TEST(Journal, SaveIsAtomicAndOverwrites) {
  TempDir dir("save");
  const std::string path = (dir.path() / "journal.heterog").string();
  ckpt::RunJournal j = small_journal();
  ASSERT_TRUE(ckpt::save_journal(path, j));
  j.watermark = 7;
  j.step_ms.assign(7, 1.0);
  ASSERT_TRUE(ckpt::save_journal(path, j));
  EXPECT_EQ(ckpt::load_journal(path).watermark, 7);
  // No temp files may survive a successful publish.
  size_t entries = 0;
  for (const auto& e : fs::directory_iterator(dir.path())) {
    (void)e;
    ++entries;
  }
  EXPECT_EQ(entries, 1u);
}

TEST(Journal, SaveFailureReturnsFalse) {
  TempDir dir("savefail");
  // A regular file where a parent directory is needed makes both
  // create_directories and the temp-file open fail.
  const std::string blocker = (dir.path() / "blocker").string();
  std::ofstream(blocker) << "not a directory";
  const ckpt::RunJournal j = small_journal();
  EXPECT_FALSE(ckpt::save_journal(blocker + "/sub/journal.heterog", j));
  EXPECT_FALSE(fs::exists(blocker + "/sub"));
}

TEST(Journal, LoadMissingFileThrows) {
  EXPECT_THROW(ckpt::load_journal("/nonexistent/dir/journal.heterog"),
               ckpt::JournalError);
}

// v2 plan format -------------------------------------------------------------

TEST(PlanV2, EveryByteCorruptionIsDetected) {
  const auto& runner = toy_runner();
  const std::string text = strategy::to_text(runner.strategy(), runner.cluster());
  ASSERT_TRUE(strategy::from_text(text, runner.cluster().device_count()).has_value());
  for (size_t i = 0; i < text.size(); ++i) {
    std::string mutated = text;
    mutated[i] = static_cast<char>(mutated[i] ^ 0x40);
    EXPECT_THROW(strategy::parse_plan(mutated, runner.cluster()),
                 strategy::PlanFormatError)
        << "byte " << i << " flip went undetected";
    EXPECT_FALSE(strategy::from_text(mutated, runner.cluster().device_count()));
  }
}

TEST(PlanV2, LostFinalNewlineIsDetected) {
  // Every writer ends a plan in a newline, so a plan without one was torn.
  const auto& runner = toy_runner();
  std::string text = strategy::to_text(runner.strategy(), runner.cluster());
  ASSERT_EQ(text.back(), '\n');
  text.pop_back();
  EXPECT_THROW(strategy::parse_plan(text, runner.cluster()), strategy::PlanFormatError);
  EXPECT_FALSE(strategy::from_text(text, runner.cluster().device_count()));
}

TEST(PlanV2, FingerprintRefusesDifferentClusterOfSameSize) {
  const auto& runner = toy_runner();
  const std::string text = strategy::to_text(runner.strategy(), runner.cluster());
  // Same device count, different hardware: v1 would accept this.
  const auto other = cluster::make_homogeneous(
      runner.cluster().device_count(), cluster::GpuModel::kGtx1080Ti, 2);
  EXPECT_THROW(strategy::parse_plan(text, other), strategy::PlanFormatError);
  EXPECT_NO_THROW(strategy::parse_plan(text, runner.cluster()));
}

TEST(PlanV1, StillLoadsAndRejectsTrailingGarbage) {
  const auto& runner = toy_runner();
  const std::string v1 =
      strategy::to_text(runner.strategy(), runner.cluster().device_count());
  const auto loaded = strategy::from_text(v1, runner.cluster().device_count());
  ASSERT_TRUE(loaded.has_value());
  EXPECT_EQ(loaded->group_actions, runner.strategy().group_actions);
  EXPECT_NO_THROW(strategy::parse_plan(v1, runner.cluster()));
  EXPECT_FALSE(strategy::from_text(v1 + "trailing junk\n",
                                   runner.cluster().device_count()));
}

TEST(PlanV1, RejectsLayoutsOtherThanOneFieldPerLine) {
  // A plan holds one field per line (CR and tabs count as whitespace), and
  // a number takes no sign.
  const std::string good = "heterog-plan v1\ndevices 4\ngroups 2\n0\n1\n";
  ASSERT_TRUE(strategy::from_text(good, 4).has_value());
  EXPECT_TRUE(strategy::from_text("heterog-plan v1\r\ndevices\t4\r\ngroups 2\n0\n1\n", 4)
                  .has_value());
  for (const std::string bad : {
           "heterog-plan v1 devices 4 groups 2 0 1\n",
           "heterog-plan v1\n\ndevices 4\ngroups 2\n0\n1\n",
           "heterog-plan v1\ndevices 4\ngroups 2\n0 1\n",
           "heterog-plan v1\ndevices 4\ngroups 2\n+0\n1\n",
           "heterog-plan v1\ndevices +4\ngroups 2\n0\n1\n",
       }) {
    EXPECT_FALSE(strategy::from_text(bad, 4).has_value()) << bad;
  }
  // A v2 fingerprint must be lowercase hex even when no cluster checks it.
  const auto& runner = toy_runner();
  const std::string v2 = strategy::to_text(runner.strategy(), runner.cluster());
  std::string body = strip_crc_trailer(v2).body;
  const size_t fp = body.find("cluster ") + 8;
  for (size_t i = fp; i < fp + 8; ++i) body[i] = static_cast<char>(std::toupper(body[i]));
  ASSERT_NE(with_crc_trailer(body), v2);
  EXPECT_FALSE(
      strategy::from_text(with_crc_trailer(body), runner.cluster().device_count()));
}

// Kill + resume determinism --------------------------------------------------

TEST(Resume, BitIdenticalTailWithoutFaults) {
  const auto& runner = toy_runner();
  const int steps = 12;
  TempDir ref_dir("ref_nofault");
  const RunStats full = runner.run(steps, opts(ref_dir.str(), 4));
  ASSERT_EQ(full.step_ms.size(), static_cast<size_t>(steps));

  TempDir crash_dir("crash_nofault");
  EXPECT_THROW(runner.run(steps, opts(crash_dir.str(), 4, /*crash_after=*/4)),
               SimulatedCrash);
  const std::string journal_path = (crash_dir.path() / "journal.heterog").string();
  const ckpt::RunJournal mid = ckpt::load_journal(journal_path);
  EXPECT_EQ(mid.watermark, 4);
  EXPECT_EQ(mid.step_ms, std::vector<double>(full.step_ms.begin(),
                                             full.step_ms.begin() + 4));

  const RunStats tail = resume_run(journal_path, toy_model);
  EXPECT_EQ(tail.step_ms, tail_of(full.step_ms, 4));
  EXPECT_TRUE(tail.completed);

  // The resumed run's final journal must equal the uninterrupted run's.
  const ckpt::RunJournal done = ckpt::load_journal(journal_path);
  EXPECT_EQ(done.watermark, steps);
  EXPECT_EQ(done.step_ms, full.step_ms);
  const ckpt::RunJournal ref = ckpt::load_journal(ref_dir.str() + "/journal.heterog");
  EXPECT_EQ(done.step_ms, ref.step_ms);
}

faults::FaultPlan mixed_fault_plan() {
  faults::FaultPlan plan;
  plan.events = {transient(1, 2, 2), device_failure(3, 6), straggler(2, 1.6, 8, 12)};
  return plan;
}

TEST(Resume, BitIdenticalTailWithFaults) {
  const auto& runner = toy_runner();
  const int steps = 16;
  const faults::FaultPlan plan = mixed_fault_plan();

  TempDir ref_dir("ref_fault");
  const RunStats full = runner.run(steps, plan, opts(ref_dir.str(), 5));
  ASSERT_EQ(full.step_ms.size(), static_cast<size_t>(steps));
  ASSERT_EQ(full.recoveries.size(), 1u);

  // Crash before the device failure (watermark 5 < fault step 6): the
  // resumed run performs the recovery live.
  {
    TempDir dir("crash_pre_fault");
    EXPECT_THROW(runner.run(steps, plan, opts(dir.str(), 5, /*crash_after=*/5)),
                 SimulatedCrash);
    const std::string path = (dir.path() / "journal.heterog").string();
    const RunStats tail = resume_run(path, toy_model);
    EXPECT_EQ(tail.step_ms, tail_of(full.step_ms, 5));
    ASSERT_EQ(tail.recoveries.size(), 1u);
    EXPECT_EQ(tail.recoveries[0].fault_step, 6);
    EXPECT_EQ(ckpt::load_journal(path).recoveries.size(), 1u);
  }

  // Crash after the recovery (watermark 10 > fault step 6): resume replays
  // the re-plan to rebuild the survivor deployment, charges nothing for it,
  // and the journal keeps exactly the one recovery from before the crash.
  {
    TempDir dir("crash_post_fault");
    EXPECT_THROW(runner.run(steps, plan, opts(dir.str(), 5, /*crash_after=*/10)),
                 SimulatedCrash);
    const std::string path = (dir.path() / "journal.heterog").string();
    const ckpt::RunJournal mid = ckpt::load_journal(path);
    EXPECT_EQ(mid.watermark, 10);
    ASSERT_EQ(mid.recoveries.size(), 1u);

    const RunStats tail = resume_run(path, toy_model);
    EXPECT_EQ(tail.step_ms, tail_of(full.step_ms, 10));
    EXPECT_TRUE(tail.recoveries.empty()) << "replayed recovery was re-charged";
    const ckpt::RunJournal done = ckpt::load_journal(path);
    EXPECT_EQ(done.watermark, steps);
    EXPECT_EQ(done.step_ms, full.step_ms);
    ASSERT_EQ(done.recoveries.size(), 1u);
    EXPECT_EQ(done.recoveries[0].fault_step, 6);
  }
}

/// Cooperative shutdown under one detector: request_shutdown() from the
/// checkpoint hook at step `stop_at` stops the run at that step boundary,
/// interrupted and resumable; resume_run then finishes a tail bit-identical
/// to an uninterrupted run's and leaves the same final journal.
void check_shutdown_and_resume(bool monitor) {
  HeteroGConfig config = fast_config();
  config.health.enabled = monitor;
  config.fault_handling.deterministic_wall_times = true;
  const DistRunner runner =
      get_runner(toy_model, cluster::make_paper_testbed_8gpu(), config);
  const int steps = 16;
  const int stop_at = 8;  // after the device failure's recovery at step 6
  const faults::FaultPlan plan = mixed_fault_plan();
  const std::string tag = monitor ? "monitor" : "oracle";

  TempDir ref_dir("shutdown_ref_" + tag);
  const RunStats full = runner.run(steps, plan, opts(ref_dir.str(), 4));
  ASSERT_TRUE(full.completed);
  ASSERT_EQ(full.recoveries.size(), 1u);

  TempDir dir("shutdown_" + tag);
  ckpt::CheckpointOptions stopping = opts(dir.str(), 4);
  stopping.after_checkpoint = [stop_at](int completed, const std::string&) {
    if (completed == stop_at) request_shutdown();
  };
  reset_shutdown_for_tests();
  const RunStats stopped = runner.run(steps, plan, stopping);
  reset_shutdown_for_tests();
  EXPECT_TRUE(stopped.interrupted);
  EXPECT_FALSE(stopped.completed);
  ASSERT_EQ(stopped.step_ms.size(), static_cast<size_t>(stop_at));
  EXPECT_EQ(stopped.step_ms,
            std::vector<double>(full.step_ms.begin(), full.step_ms.begin() + stop_at));

  const std::string path = (dir.path() / "journal.heterog").string();
  EXPECT_EQ(ckpt::load_journal(path).watermark, stop_at);
  const RunStats tail = resume_run(path, toy_model);
  EXPECT_TRUE(tail.completed);
  EXPECT_FALSE(tail.interrupted);
  EXPECT_EQ(tail.step_ms, tail_of(full.step_ms, stop_at));
  EXPECT_EQ(ckpt::to_text(ckpt::load_journal(path)),
            ckpt::to_text(ckpt::load_journal(ref_dir.str() + "/journal.heterog")));
}

TEST(Resume, ShutdownStopsTheOracleDetectorRunResumably) {
  check_shutdown_and_resume(/*monitor=*/false);
}

TEST(Resume, ShutdownStopsTheMonitorDetectorRunResumably) {
  check_shutdown_and_resume(/*monitor=*/true);
}

/// A run that loses every device stops inside that step, incomplete, with
/// its watermark at the step. Under either detector, resume_run replays up
/// to the watermark, runs the step again and stops the same way, leaving the
/// journal as it found it.
void check_resume_after_total_failure(bool monitor) {
  HeteroGConfig config = fast_config();
  config.health.enabled = monitor;
  const cluster::ClusterSpec cluster = cluster::make_fig3_testbed();
  const DistRunner runner = get_runner(toy_model, cluster, config);
  faults::FaultPlan plan;
  for (int d = 0; d < cluster.device_count(); ++d) {
    plan.events.push_back(device_failure(d, 2));
  }

  TempDir dir(std::string("total_failure_") + (monitor ? "monitor" : "oracle"));
  const RunStats stopped = runner.run(8, plan, opts(dir.str(), 1));
  EXPECT_FALSE(stopped.completed);
  EXPECT_EQ(stopped.step_ms.size(), 2u);
  const std::string path = (dir.path() / "journal.heterog").string();
  const std::string journal = ckpt::to_text(ckpt::load_journal(path));
  EXPECT_EQ(ckpt::load_journal(path).watermark, 2);

  const RunStats resumed = resume_run(path, toy_model);
  EXPECT_FALSE(resumed.completed);
  EXPECT_TRUE(resumed.step_ms.empty());
  EXPECT_EQ(ckpt::to_text(ckpt::load_journal(path)), journal);
}

TEST(Resume, TotalFailureStopsTheOracleDetectorResumeAgain) {
  check_resume_after_total_failure(/*monitor=*/false);
}

TEST(Resume, TotalFailureStopsTheMonitorDetectorResumeAgain) {
  check_resume_after_total_failure(/*monitor=*/true);
}

TEST(Resume, SigkillAtArbitraryInstant) {
  // The real thing: fork a child that executes a checkpointed fault-aware
  // run (a short sleep per snapshot widens the kill window), SIGKILL it at
  // an arbitrary moment, then resume from whatever journal the kill left
  // behind. Whatever the watermark turned out to be, the resumed tail must
  // match the reference run bit-for-bit, and the journal must never be torn.
  const auto& runner = toy_runner();
  const int steps = 16;
  const faults::FaultPlan plan = mixed_fault_plan();
  TempDir ref_dir("ref_kill");
  const RunStats full = runner.run(steps, plan, opts(ref_dir.str(), 5));

  for (int round = 0; round < 3; ++round) {
    TempDir dir("kill_" + std::to_string(round));
    const std::string path = (dir.path() / "journal.heterog").string();

    const pid_t pid = fork();
    ASSERT_GE(pid, 0);
    if (pid == 0) {
      ckpt::CheckpointOptions o = opts(dir.str(), 1);
      o.after_checkpoint = [](int, const std::string&) { ::usleep(5000); };
      (void)runner.run(steps, plan, o);
      ::_exit(0);
    }
    ::usleep(20000 + 30000 * round);
    ::kill(pid, SIGKILL);
    int status = 0;
    ASSERT_EQ(::waitpid(pid, &status, 0), pid);

    if (!fs::exists(path)) continue;  // killed before the first snapshot
    ckpt::RunJournal mid;
    ASSERT_NO_THROW(mid = ckpt::load_journal(path)) << "torn journal, round " << round;
    ASSERT_LE(mid.watermark, steps);
    const RunStats tail = resume_run(path, toy_model);
    EXPECT_EQ(tail.step_ms, tail_of(full.step_ms, static_cast<size_t>(mid.watermark)))
        << "round " << round << " resumed from watermark " << mid.watermark;
  }
}

TEST(Resume, TornJournalNeverLoadsUnderKillLoop) {
  // Hammer the atomic-save path: a child overwrites the journal in a tight
  // loop while the parent SIGKILLs it at arbitrary instants. Every surviving
  // file must parse — rename either published a complete snapshot or the
  // previous one is intact.
  TempDir dir("killloop");
  const std::string path = (dir.path() / "journal.heterog").string();
  ckpt::RunJournal j = small_journal();
  for (int round = 0; round < 5; ++round) {
    const pid_t pid = fork();
    ASSERT_GE(pid, 0);
    if (pid == 0) {
      for (int w = 0;; w = (w + 1) % (j.total_steps + 1)) {
        j.watermark = w;
        j.step_ms.assign(static_cast<size_t>(w), 1.5);
        ckpt::save_journal(path, j);
      }
      ::_exit(0);  // unreachable
    }
    for (int i = 0; i < 1000 && !fs::exists(path); ++i) ::usleep(1000);
    ::usleep(10000 + 7000 * round);
    ::kill(pid, SIGKILL);
    int status = 0;
    ASSERT_EQ(::waitpid(pid, &status, 0), pid);
    ASSERT_TRUE(fs::exists(path));
    EXPECT_NO_THROW(ckpt::load_journal(path)) << "round " << round;
  }
  // No temp-file litter may accumulate either (at most the one in flight
  // when the kill landed).
  size_t stray = 0;
  for (const auto& e : fs::directory_iterator(dir.path())) {
    stray += e.path().filename() != "journal.heterog";
  }
  EXPECT_LE(stray, 5u);
}

// Resume validation ----------------------------------------------------------

TEST(Resume, DegradedSwitchSurvivesTheJournal) {
  // The journal keeps switch degradations: the embedded cluster fingerprints
  // as it did when the journal was written, so the run resumes and its tail
  // equals the uninterrupted run's bit for bit.
  const auto cluster = cluster::generate_cluster(*cluster::topo_preset("rack16"))
                           .degrade_switch(0, 0, 0.5);
  const auto model = [] {
    return models::build_forward(models::ModelKind::kMobileNetV2, 0, 64);
  };
  const DistRunner runner = get_runner(model, cluster, fast_config());
  const int steps = 6;
  TempDir ref_dir("ref_switch");
  const RunStats full = runner.run(steps, opts(ref_dir.str(), 2));
  ASSERT_EQ(full.step_ms.size(), static_cast<size_t>(steps));

  TempDir crash_dir("crash_switch");
  EXPECT_THROW(runner.run(steps, opts(crash_dir.str(), 2, /*crash_after=*/2)),
               SimulatedCrash);
  const std::string path = (crash_dir.path() / "journal.heterog").string();
  EXPECT_EQ(ckpt::load_journal(path).cluster.switch_scales(), cluster.switch_scales());
  const RunStats tail = resume_run(path, model);
  EXPECT_EQ(tail.step_ms, tail_of(full.step_ms, 2));
  EXPECT_TRUE(tail.completed);
}

TEST(Resume, FingerprintMismatchRefused) {
  const auto& runner = toy_runner();
  TempDir dir("fpr");
  const RunStats full = runner.run(6, opts(dir.str(), 3));
  (void)full;
  const std::string path = (dir.path() / "journal.heterog").string();
  ckpt::RunJournal j = ckpt::load_journal(path);
  j.cluster_crc ^= 0x1;  // re-saved with a valid file CRC but a wrong fingerprint
  ASSERT_TRUE(ckpt::save_journal(path, j));
  EXPECT_THROW(resume_run(path, toy_model), ckpt::JournalError);
}

TEST(Resume, ModelMismatchRefused) {
  const auto& runner = toy_runner();
  TempDir dir("model");
  (void)runner.run(6, opts(dir.str(), 3));
  const std::string path = (dir.path() / "journal.heterog").string();
  EXPECT_THROW(
      resume_run(path,
                 [] { return models::build_forward(models::ModelKind::kVgg19, 0, 96); }),
      ckpt::JournalError);
}

TEST(Resume, EmbeddedPlanCorruptionRefused) {
  const auto& runner = toy_runner();
  TempDir dir("plancorrupt");
  (void)runner.run(6, opts(dir.str(), 3));
  const std::string path = (dir.path() / "journal.heterog").string();
  ckpt::RunJournal j = ckpt::load_journal(path);
  ASSERT_FALSE(j.plan_text.empty());
  j.plan_text[j.plan_text.size() / 2] ^= 0x40;  // journal CRC is re-stamped on save
  ASSERT_TRUE(ckpt::save_journal(path, j));
  EXPECT_THROW(resume_run(path, toy_model), ckpt::JournalError);
}

}  // namespace
}  // namespace heterog
