#include "ckpt/journal.h"

#include <filesystem>
#include <optional>

#include "common/atomic_file.h"
#include "common/crc32.h"
#include "common/record_io.h"

namespace heterog::ckpt {

namespace {

[[noreturn]] void fail(const std::string& why) {
  throw JournalError("run journal: " + why);
}

/// Cap on every count and line-counted block: a crafted count fails as out
/// of range instead of driving a huge loop.
constexpr size_t kMaxCount = 100'000'000;

RunJournal parse_body(std::string_view body) {
  LineCursor in(body);
  RunJournal j;
  if (!in.at("heterog-journal")) fail("not a heterog-journal file");
  {
    Fields magic = in.field("heterog-journal");
    const std::string_view version = magic.word("version");
    magic.finish();
    if (version.substr(0, 1) != "v") fail("not a heterog-journal file");
    j.version = Fields(version.substr(1)).integer("journal version");
    if (j.version != 1) {
      fail("unsupported journal version " + std::to_string(j.version));
    }
  }
  j.model_name = in.rest("model");
  while (in.at("meta")) {
    Fields meta = in.field("meta");
    const std::string key(meta.word("meta key"));
    j.meta[key] = meta.rest();
  }
  j.ckpt_every = in.integer("ckpt-every", 0);
  j.profiler_seed = in.integer<uint64_t>("rng-seed");
  j.use_order_scheduling = in.flag("order-scheduling");
  j.max_groups = in.integer("max-groups");
  {
    Fields fh = in.field("fault-handling");
    j.fh_max_retries = fh.integer("max retries");
    j.fh_retry_backoff_ms = fh.real("retry backoff");
    j.fh_max_backoff_ms = fh.real("max backoff");
    j.fh_replan_rl_episodes = fh.integer("re-plan episodes");
    // Optional (absent in pre-health journals).
    if (!fh.done()) j.fh_deterministic_walls = fh.flag("deterministic walls");
    fh.finish();
  }
  try {
    j.cluster = cluster::parse_cluster_block(in);
  } catch (const cluster::ClusterSpecError& e) {
    fail(std::string("embedded cluster invalid: ") + e.what());
  }
  {
    Fields fp = in.field("fingerprint");
    j.cluster_crc = fp.hex<uint32_t>("fingerprint");
    fp.finish();
  }

  j.total_steps = in.integer("total-steps", 0);
  j.watermark = in.integer("watermark", 0);
  j.transient_retries = in.integer("transient-retries");
  j.retry_backoff_total_ms = in.real("retry-backoff-ms");
  const size_t n_steps = in.integer<size_t>("step-ms", 0, kMaxCount);
  for (size_t i = 0; i < n_steps; ++i) {
    Fields step = in.line();
    j.step_ms.push_back(step.real("step time"));
    step.finish();
  }
  const size_t n_recoveries = in.integer<size_t>("recoveries", 0, kMaxCount);
  for (size_t i = 0; i < n_recoveries; ++i) {
    Fields f = in.field("recovery");
    RecoveryRecord r;
    r.fault_step = f.integer("fault step");
    r.steps_lost = f.integer("steps lost");
    r.surviving_devices = f.integer("surviving devices");
    r.post_plan_oom = f.flag("post-plan OOM");
    r.escalated_transient = f.flag("escalated transient");
    r.replan_wall_ms = f.real("re-plan wall");
    r.pre_fault_iteration_ms = f.real("pre-fault iteration");
    r.post_fault_iteration_ms = f.real("post-fault iteration");
    const size_t n_failed = f.integer<size_t>("failed device count", 0, kMaxCount);
    for (size_t k = 0; k < n_failed; ++k) {
      r.failed_devices.push_back(f.integer<cluster::DeviceId>("failed device"));
    }
    // Optional online-detection fields (absent in pre-health journals).
    if (!f.done()) {
      r.detection_attempts = f.integer("detection attempts");
      if (!f.done()) r.degraded = f.flag("degraded");
    }
    f.finish();
    j.recoveries.push_back(std::move(r));
  }

  const size_t n_ops = in.integer<size_t>("grouping", 0, kMaxCount);
  {
    Fields groups = in.line();
    for (size_t i = 0; i < n_ops; ++i) {
      j.grouping_assignment.push_back(groups.integer<int32_t>("group id"));
    }
    groups.finish();
  }

  j.plan_text = in.block("plan-lines", kMaxCount);
  j.fault_plan_json = in.block("fault-plan-lines", kMaxCount);
  // Optional (written only when online health monitoring ran).
  if (in.at("health-lines")) j.health_state = in.block("health-lines", kMaxCount);
  in.finish();

  // Internal consistency beyond per-field syntax.
  if (j.watermark > j.total_steps) {
    fail("watermark " + std::to_string(j.watermark) + " outside [0, total-steps=" +
         std::to_string(j.total_steps) + "]");
  }
  if (j.step_ms.size() != static_cast<size_t>(j.watermark)) {
    fail("step-ms count does not match watermark");
  }
  return j;
}

}  // namespace

std::string to_text(const RunJournal& j) {
  const auto flag = [](bool b) { return b ? std::string("1") : std::string("0"); };
  std::string out = "heterog-journal v" + std::to_string(j.version) + "\n";
  out += "model " + j.model_name + "\n";
  for (const auto& [key, value] : j.meta) out += "meta " + key + " " + value + "\n";
  out += "ckpt-every " + std::to_string(j.ckpt_every) + "\n";
  out += "rng-seed " + std::to_string(j.profiler_seed) + "\n";
  out += "order-scheduling " + flag(j.use_order_scheduling) + "\n";
  out += "max-groups " + std::to_string(j.max_groups) + "\n";
  out += "fault-handling " + std::to_string(j.fh_max_retries) + " " +
         format_double(j.fh_retry_backoff_ms) + " " + format_double(j.fh_max_backoff_ms) +
         " " + std::to_string(j.fh_replan_rl_episodes) + " " +
         flag(j.fh_deterministic_walls) + "\n";
  out += cluster::cluster_block(j.cluster);
  out += "fingerprint " + crc32_hex(j.cluster_crc) + "\n";

  out += "total-steps " + std::to_string(j.total_steps) + "\n";
  out += "watermark " + std::to_string(j.watermark) + "\n";
  out += "transient-retries " + std::to_string(j.transient_retries) + "\n";
  out += "retry-backoff-ms " + format_double(j.retry_backoff_total_ms) + "\n";
  out += "step-ms " + std::to_string(j.step_ms.size()) + "\n";
  for (const double ms : j.step_ms) out += format_double(ms) + "\n";
  out += "recoveries " + std::to_string(j.recoveries.size()) + "\n";
  for (const auto& r : j.recoveries) {
    out += "recovery " + std::to_string(r.fault_step) + " " +
           std::to_string(r.steps_lost) + " " + std::to_string(r.surviving_devices) +
           " " + flag(r.post_plan_oom) + " " + flag(r.escalated_transient) + " " +
           format_double(r.replan_wall_ms) + " " +
           format_double(r.pre_fault_iteration_ms) + " " +
           format_double(r.post_fault_iteration_ms) + " " +
           std::to_string(r.failed_devices.size());
    for (const auto d : r.failed_devices) out += " " + std::to_string(d);
    out += " " + std::to_string(r.detection_attempts) + " " + flag(r.degraded) + "\n";
  }

  out += "grouping " + std::to_string(j.grouping_assignment.size()) + "\n";
  for (size_t i = 0; i < j.grouping_assignment.size(); ++i) {
    if (i) out += ' ';
    out += std::to_string(j.grouping_assignment[i]);
  }
  out += '\n';

  // Embedded documents are line-counted so their content can never be
  // confused with journal fields (a plan line is just bytes here).
  append_block(out, "plan-lines", j.plan_text);
  append_block(out, "fault-plan-lines", j.fault_plan_json);
  // Optional trailing block: only written when online health monitoring ran,
  // so health-free journals stay byte-identical to the pre-health format.
  if (!j.health_state.empty()) append_block(out, "health-lines", j.health_state);

  return with_crc_trailer(std::move(out));
}

RunJournal parse_journal(const std::string& text) {
  // The trailer is verified before a single field is parsed.
  const CrcTrailerResult checked = strip_crc_trailer(text);
  if (!checked.ok) fail("journal " + checked.error);
  try {
    return parse_body(checked.body);
  } catch (const ParseError& e) {
    fail(e.what());
  }
}

bool save_journal(const std::string& path, const RunJournal& journal) {
  const std::filesystem::path p(path);
  if (p.has_parent_path()) {
    std::error_code ec;
    std::filesystem::create_directories(p.parent_path(), ec);
    // An un-creatable directory surfaces as the write failing below.
  }
  return write_file_atomic(path, to_text(journal));
}

RunJournal load_journal(const std::string& path) {
  const std::optional<std::string> text = read_file(path);
  if (!text) fail("cannot read journal file: " + path);
  return parse_journal(*text);
}

std::string CheckpointOptions::journal_path() const {
  return (std::filesystem::path(dir) / "journal.heterog").string();
}

}  // namespace heterog::ckpt
