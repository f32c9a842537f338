#include "store/plan_store.h"

#include <fcntl.h>
#include <signal.h>
#include <sys/file.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <optional>
#include <vector>

#include "common/atomic_file.h"
#include "common/record_io.h"

namespace heterog::store {

namespace {

namespace fs = std::filesystem;

constexpr std::string_view kHeaderMagic = "heterog-store";

std::string hex16(uint64_t v) {
  char buf[24];
  std::snprintf(buf, sizeof(buf), "%016llx", static_cast<unsigned long long>(v));
  return buf;
}

/// Vector lengths inside a record are bounded so a corrupt count that
/// happens to pass the CRC of a truncated frame can never drive a gigantic
/// reserve().
constexpr size_t kMaxVectorLen = 1'000'000;

[[noreturn]] void env_fail(const std::string& what, int err) {
  throw StoreError(StoreError::Kind::kEnvironment,
                   what + ": " + std::strerror(err) + " (errno " +
                       std::to_string(err) + ")");
}

/// Appends `data` to `path` with one fsync. Best effort: a failure (disk
/// full, fs gone read-only) is reported by return value; the store treats it
/// as lost durability, never as a fatal error — the next open simply sees a
/// shorter journal.
bool append_durable(const std::string& path, std::string_view data) {
  const int fd = ::open(path.c_str(), O_WRONLY | O_APPEND | O_CREAT | O_CLOEXEC, 0644);
  if (fd < 0) return false;
  size_t written = 0;
  bool ok = true;
  while (written < data.size()) {
    const ssize_t n = ::write(fd, data.data() + written, data.size() - written);
    if (n <= 0) {
      if (n < 0 && errno == EINTR) continue;
      ok = false;
      break;
    }
    written += static_cast<size_t>(n);
  }
  ok = ok && ::fsync(fd) == 0;
  ::close(fd);
  return ok;
}

bool parse_header(std::string_view payload, int* version, int* generation) {
  try {
    Fields f(payload);
    const std::string_view magic = f.word("store magic");
    const std::string_view v = f.word("store version");
    if (magic != kHeaderMagic || v.substr(0, 1) != "v") return false;
    const int parsed_version = Fields(v.substr(1)).integer("store version", 0, 1'000'000);
    if (f.word("gen tag") != "gen") return false;
    *generation = f.integer("generation", 0, static_cast<int>(kMaxVectorLen));
    f.finish();
    *version = parsed_version;
    return true;
  } catch (const ParseError&) {
    return false;
  }
}

}  // namespace

std::string PlanStore::header_payload(int generation) const {
  return std::string(kHeaderMagic) + " v" + std::to_string(kFormatVersion) + " gen " +
         std::to_string(generation);
}

std::string PlanStore::encode_eval(uint64_t key, const sim::PlanEvaluation& eval) {
  std::string out = "eval ";
  out += hex16(key);
  out += ' ';
  out += format_double(eval.per_iteration_ms);
  out += ' ';
  out += format_double(eval.cold_iteration_ms);
  out += ' ';
  out += format_double(eval.computation_ms);
  out += ' ';
  out += format_double(eval.communication_ms);
  out += ' ';
  out += eval.oom ? '1' : '0';
  out += " peaks " + std::to_string(eval.peak_memory_bytes.size());
  for (const int64_t b : eval.peak_memory_bytes) out += ' ' + std::to_string(b);
  out += " oomdevs " + std::to_string(eval.oom_devices.size());
  for (const auto d : eval.oom_devices) out += ' ' + std::to_string(d);
  return out;
}

bool PlanStore::decode_eval(std::string_view payload, uint64_t* key,
                            sim::PlanEvaluation* eval) {
  try {
    Fields f(payload);
    if (f.word("record tag") != "eval") return false;
    const uint64_t parsed_key = f.hex<uint64_t>("key");
    sim::PlanEvaluation e;
    e.per_iteration_ms = f.real("per-iteration time");
    e.cold_iteration_ms = f.real("cold iteration time");
    e.computation_ms = f.real("computation time");
    e.communication_ms = f.real("communication time");
    e.oom = f.flag("oom");
    if (f.word("peaks tag") != "peaks") return false;
    e.peak_memory_bytes.resize(f.integer<size_t>("peak count", 0, kMaxVectorLen));
    for (int64_t& bytes : e.peak_memory_bytes) bytes = f.integer<int64_t>("peak bytes");
    if (f.word("oomdevs tag") != "oomdevs") return false;
    e.oom_devices.resize(f.integer<size_t>("oom device count", 0, kMaxVectorLen));
    for (cluster::DeviceId& d : e.oom_devices) {
      d = f.integer<cluster::DeviceId>("oom device");
    }
    f.finish();
    *key = parsed_key;
    *eval = std::move(e);
    return true;
  } catch (const ParseError&) {
    return false;
  }
}

PlanStore::PlanStore(PlanStoreOptions options) : options_(std::move(options)) {
  if (options_.dir.empty()) {
    throw StoreError(StoreError::Kind::kEnvironment, "no directory given");
  }
  if (options_.flush_every == 0) options_.flush_every = 1;

  std::error_code ec;
  fs::create_directories(options_.dir, ec);
  if (ec) {
    throw StoreError(StoreError::Kind::kEnvironment,
                     "cannot create directory " + options_.dir + ": " + ec.message());
  }
  if (!fs::is_directory(options_.dir, ec)) {
    throw StoreError(StoreError::Kind::kEnvironment,
                     options_.dir + " is not a directory");
  }

  if (!options_.read_only) {
    acquire_lock();
    try {
      sweep_stale_tmp_files();
      open_scan();
    } catch (...) {
      release_lock();
      throw;
    }
  } else {
    open_scan();
  }

  if (options_.metrics != nullptr) {
    options_.metrics->add("store.opens.count");
    options_.metrics->add("store.loaded.count", stats_.records_loaded);
  }
  if (options_.events != nullptr) {
    options_.events->emit(obs::Event("store_open")
                              .with("path", options_.dir)
                              .with("records", stats_.records_loaded)
                              .with("quarantined", stats_.records_quarantined)
                              .with("generation", stats_.generation)
                              .with("healed", stats_.healed)
                              .with("read_only", options_.read_only));
  }
}

PlanStore::~PlanStore() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    flush_locked();
  }
  release_lock();
}

void PlanStore::acquire_lock() {
  // One writer per directory, enforced by the kernel: an exclusive flock on
  // a persistent store.lock, held through an open fd for the store's
  // lifetime. The kernel drops it when that fd closes — on release or when
  // the holder dies — so a crashed writer never leaves a stale lock and no
  // takeover protocol exists to race. The file is never unlinked: after an
  // unlink a later opener would lock a fresh inode while the holder still
  // locks the old one.
  const std::string path = lock_path();
  const int fd = ::open(path.c_str(), O_RDWR | O_CREAT | O_CLOEXEC, 0644);
  if (fd < 0) env_fail("cannot open lock file " + path, errno);
  if (::flock(fd, LOCK_EX | LOCK_NB) != 0) {
    const int err = errno;
    ::close(fd);
    if (err == EWOULDBLOCK) {
      throw StoreError(StoreError::Kind::kLocked,
                       options_.dir + " is locked by another writer");
    }
    env_fail("cannot lock " + path, err);
  }
  lock_fd_ = fd;
}

void PlanStore::release_lock() {
  if (lock_fd_ < 0) return;
  ::close(lock_fd_);  // drops the flock; the file stays
  lock_fd_ = -1;
}

void PlanStore::sweep_stale_tmp_files() {
  // SIGKILL mid-save orphans "<file>.tmp.<pid>" temporaries that
  // write_file_atomic could not clean up; remove the ones whose writer is
  // dead so litter never accumulates.
  std::error_code ec;
  for (const auto& entry : fs::directory_iterator(options_.dir, ec)) {
    const std::string name = entry.path().filename().string();
    const size_t tag = name.find(".tmp.");
    if (tag == std::string::npos) continue;
    const std::string pid_text = name.substr(tag + 5);
    char* end = nullptr;
    const long long pid = std::strtoll(pid_text.c_str(), &end, 10);
    const bool numeric = end != nullptr && *end == '\0' && !pid_text.empty();
    const bool alive =
        numeric && pid > 0 && (::kill(static_cast<pid_t>(pid), 0) == 0 || errno == EPERM);
    if (!alive) {
      std::error_code rm_ec;
      fs::remove(entry.path(), rm_ec);
    }
  }
}

void PlanStore::quarantine(std::string_view raw, size_t offset,
                           const std::string& reason) {
  ++stats_.records_quarantined;
  count("store.quarantined.count");
  if (!options_.read_only) {
    std::string payload = "quarantined offset " + std::to_string(offset) +
                          " bytes " + std::to_string(raw.size()) + " reason " +
                          reason + "\n";
    payload.append(raw.data(), raw.size());
    (void)append_durable(quarantine_path(), frame_record(payload));
  }
  if (options_.events != nullptr) {
    options_.events->emit(obs::Event("store_quarantine")
                              .with("path", options_.dir)
                              .with("offset", static_cast<uint64_t>(offset))
                              .with("bytes", static_cast<uint64_t>(raw.size()))
                              .with("reason", reason));
  }
}

void PlanStore::open_scan() {
  stats_.generation = 1;
  std::string data;
  {
    std::optional<std::string> text = read_file(journal_path());
    if (!text) {
      // Fresh store: publish an empty generation-1 journal so every later
      // append lands behind a valid header.
      if (!options_.read_only) {
        std::string error;
        if (!write_file_atomic(journal_path(), frame_record(header_payload(1)),
                               &error)) {
          throw StoreError(StoreError::Kind::kEnvironment,
                           "cannot write journal " + journal_path() + ": " + error);
        }
      }
      return;
    }
    data = std::move(*text);
  }

  RecordScanner scanner(data);
  bool damaged = false;
  bool version_skew = false;
  bool saw_header = false;
  for (ScannedRecord rec = scanner.next(); rec.status != ScannedRecord::Status::kEnd;
       rec = scanner.next()) {
    const std::string_view raw = std::string_view(data).substr(rec.offset, rec.length);
    if (rec.status == ScannedRecord::Status::kCorrupt) {
      damaged = true;
      quarantine(raw, rec.offset, rec.reason);
      continue;
    }
    if (!saw_header) {
      saw_header = true;
      int version = 0, generation = 0;
      if (!parse_header(rec.payload, &version, &generation)) {
        // The first record must be the generation header; anything else
        // means we cannot trust the journal's claimed schema.
        damaged = version_skew = true;
        quarantine(raw, rec.offset, "missing or malformed generation header");
      } else if (version != kFormatVersion) {
        // A journal from a newer (or unknown) format version: do not guess
        // at its payload schema — quarantine wholesale and rebuild empty.
        damaged = version_skew = true;
        quarantine(raw, rec.offset,
                   "version skew (journal v" + std::to_string(version) +
                       ", this build reads v" + std::to_string(kFormatVersion) + ")");
      } else {
        stats_.generation = generation;
      }
      continue;
    }
    if (version_skew) {
      quarantine(raw, rec.offset, "record under version-skewed header");
      continue;
    }
    uint64_t key = 0;
    sim::PlanEvaluation eval;
    if (!decode_eval(rec.payload, &key, &eval)) {
      damaged = true;
      quarantine(raw, rec.offset, "undecodable eval payload");
      continue;
    }
    map_[key] = std::move(eval);  // duplicates: last write wins
  }
  if (!saw_header && !data.empty()) damaged = true;  // pure-garbage journal
  stats_.records_loaded = map_.size();

  if (damaged && !options_.read_only) {
    // Self-heal: rewrite the surviving records as one clean generation. The
    // quarantine sidecar keeps the damaged bytes for forensics.
    compact_locked();
    stats_.healed = true;
  }
}

bool PlanStore::lookup(uint64_t key, sim::PlanEvaluation* out) {
  std::lock_guard<std::mutex> lock(mu_);
  const auto it = map_.find(key);
  if (it == map_.end()) {
    ++stats_.misses;
    count("store.misses.count");
    return false;
  }
  ++stats_.hits;
  count("store.hits.count");
  *out = it->second;
  return true;
}

void PlanStore::put(uint64_t key, const sim::PlanEvaluation& eval) {
  if (options_.read_only) return;
  // Utilization-annotated evaluations come from the deployment path, whose
  // extra fields the on-disk record deliberately does not carry (they are
  // never needed by the search hot loop). Persisting a stripped copy would
  // break the "store round-trips exactly what it returns" contract, so skip.
  if (!eval.device_busy_ms.empty() || !eval.comm_busy.empty() ||
      eval.critical_path_ms != 0.0) {
    return;
  }
  std::lock_guard<std::mutex> lock(mu_);
  map_[key] = eval;
  ++stats_.puts;
  count("store.puts.count");
  pending_ += frame_record(encode_eval(key, eval));
  ++pending_records_;
  if (pending_records_ >= options_.flush_every) flush_locked();
}

void PlanStore::flush() {
  std::lock_guard<std::mutex> lock(mu_);
  flush_locked();
}

void PlanStore::flush_locked() {
  if (pending_.empty() || options_.read_only) return;
  // Best effort: if the append fails (disk full, fs read-only) the records
  // stay memory-resident for this run and the next open sees the shorter —
  // still valid — journal. Durability degrades; correctness does not.
  (void)append_durable(journal_path(), pending_);
  pending_.clear();
  pending_records_ = 0;
  ++stats_.appends_flushed;
}

void PlanStore::compact() {
  std::lock_guard<std::mutex> lock(mu_);
  if (options_.read_only) return;
  compact_locked();
}

void PlanStore::compact_locked() {
  // Deterministic record order (sorted by key) so identical contents always
  // produce byte-identical journals, whatever insertion order built them.
  std::vector<uint64_t> keys;
  keys.reserve(map_.size());
  for (const auto& [key, eval] : map_) keys.push_back(key);
  std::sort(keys.begin(), keys.end());

  std::string body = frame_record(header_payload(stats_.generation + 1));
  for (const uint64_t key : keys) {
    body += frame_record(encode_eval(key, map_.at(key)));
  }
  // Atomic replace: a SIGKILL at any instant leaves either the previous
  // journal or this complete new generation — never a hybrid.
  std::string error;
  if (write_file_atomic(journal_path(), body, &error)) {
    ++stats_.generation;
    ++stats_.compactions;
    count("store.compactions.count");
    pending_.clear();  // buffered records are part of map_, hence of `body`
    pending_records_ = 0;
  }
  // On failure the old journal (plus any already-appended batches) stands;
  // pending_ is kept for the next append attempt.
}

PlanStoreStats PlanStore::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  return stats_;
}

size_t PlanStore::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return map_.size();
}

std::string PlanStore::journal_path() const {
  return (fs::path(options_.dir) / "evals.journal").string();
}

std::string PlanStore::quarantine_path() const {
  return (fs::path(options_.dir) / "quarantine.log").string();
}

std::string PlanStore::lock_path() const {
  return (fs::path(options_.dir) / "store.lock").string();
}

void PlanStore::count(const char* metric, uint64_t delta) {
  if (options_.metrics != nullptr) options_.metrics->add(metric, delta);
}

}  // namespace heterog::store
