// serve_mixed (planbench/README.md): a PlanServer in a forked child with a
// fresh store, driven over its Unix socket by this process with at most
// four connections. One pass: every warm key once, an open loop of Poisson
// arrivals at kLoRate then kHiRate, then a closed loop that keeps four
// requests outstanding.
#include <signal.h>
#include <sys/prctl.h>
#include <sys/resource.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <mutex>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "bench.h"
#include "cluster/cluster.h"
#include "common/rng.h"
#include "common/shutdown.h"
#include "graph/training.h"
#include "models/models.h"
#include "obs/event_log.h"
#include "obs/metrics.h"
#include "replay.h"
#include "server/plan_client.h"
#include "server/plan_server.h"
#include "store/plan_store.h"

namespace planbench {
namespace {

using namespace heterog;

constexpr int kConnections = 4;
/// Open-loop arrival rates (requests per second). Both sit well below the
/// closed-loop capacity of this mix on a 4-core host (100-115 req/s), so
/// neither should build a backlog, and hi stays below capacity even when
/// the shared host runs 1.5x slower (at 60 req/s such stretches saturated
/// the daemon and multiplied the p95 by up to 20).
constexpr double kLoRate = 25.0;
constexpr double kHiRate = 45.0;
/// At least ten samples beyond each rate's p95.
constexpr int kMinRequestsPerRate = 200;
/// Episode budget of the short RL requests.
constexpr int kRlEpisodes = 2;

const char* const kModels[] = {"mobilenet_v2", "vgg19", "inception_v3"};
const char* const kClusters[] = {"8gpu", "12gpu", "fig3"};

enum class Kind { kWarm, kCold, kRl, kRlDeadline };

struct Request {
  server::PlanRequest plan;
  Kind kind = Kind::kWarm;
  double due_ms = 0.0;  // open loop: offset from the phase start
};

server::PlanRequest make_request(const char* model, const char* cluster, double batch) {
  server::PlanRequest r;
  r.model = model;
  r.cluster = cluster;
  r.batch = batch;
  return r;
}

/// The 12 warm keys: every model on every cluster at batch 64, and one
/// model per cluster at 32.
std::vector<server::PlanRequest> hot_set() {
  std::vector<server::PlanRequest> keys;
  for (const char* model : kModels) {
    for (const char* cluster : kClusters) keys.push_back(make_request(model, cluster, 64.0));
  }
  for (int i = 0; i < 3; ++i) keys.push_back(make_request(kModels[i], kClusters[i], 32.0));
  return keys;
}

Request rl_request(bool deadline) {
  Request r{make_request("mobilenet_v2", "8gpu", 32.0), deadline ? Kind::kRlDeadline : Kind::kRl,
            0.0};
  r.plan.episodes = kRlEpisodes;
  // The modelled cost (episodes x the server's episode_cost_ms) exceeds
  // this deadline, so the server must answer with the degraded plan.
  if (deadline) r.plan.deadline_ms = 1.0;
  return r;
}

std::string describe(const server::PlanRequest& r) {
  return r.model + "/" + r.cluster + "/b" + std::to_string(static_cast<int>(r.batch)) +
         "/seed" + std::to_string(r.seed) + (r.episodes > 0 ? "/rl" : "") +
         (r.deadline_ms >= 0.0 ? "/deadline" : "");
}

std::string combo_of(const server::PlanRequest& r) {
  return r.model + "/" + r.cluster + "/b" + std::to_string(static_cast<int>(r.batch));
}

/// The seeded request mix: 60% warm repeats from the hot set, 36% cold keys
/// (a fresh profiler seed, so every candidate misses the store and is
/// written back), 4% short RL searches, half of them with a deadline that
/// forces the degraded answer.
class Mix {
 public:
  explicit Mix(uint64_t seed)
      : rng_(derive_seed(seed, 11)), next_cold_seed_(1000 + derive_seed(seed, 12) % 1000000 * 10000) {}

  Request next() {
    const int roll = rng_.uniform_int(0, 99);
    if (roll < 60) {
      return Request{hot_[static_cast<size_t>(rng_.uniform_int(0, 11))], Kind::kWarm, 0.0};
    }
    if (roll < 96) {
      const char* model = kModels[rng_.uniform_int(0, 2)];
      const char* cluster = kClusters[rng_.uniform_int(0, 2)];
      const double batch = rng_.uniform_int(0, 1) == 0 ? 32.0 : 64.0;
      Request r{make_request(model, cluster, batch), Kind::kCold, 0.0};
      r.plan.seed = next_cold_seed_++;
      return r;
    }
    return rl_request(roll < 98);
  }

 private:
  Rng rng_;
  std::vector<server::PlanRequest> hot_ = hot_set();
  uint64_t next_cold_seed_;
};

/// The pass's inputs, generated from the workload seed.
struct Inputs {
  std::vector<Request> warmup;  // every hot key and both RL keys, once
  std::vector<Request> lo, hi;  // open-loop schedules
  std::vector<Request> closed;  // enough for the closed loop at any speed
  double closed_seconds = 0.0;
};

std::vector<Request> poisson_schedule(Mix& mix, Rng& rng, double rate, double seconds) {
  const int n = std::max(kMinRequestsPerRate, static_cast<int>(std::lround(rate * seconds)));
  std::vector<Request> out;
  double t_ms = 0.0;
  for (int i = 0; i < n; ++i) {
    t_ms += -std::log(1.0 - rng.uniform()) / rate * 1000.0;
    Request r = mix.next();
    r.due_ms = t_ms;
    out.push_back(std::move(r));
  }
  return out;
}

Inputs make_inputs(uint64_t seed, double seconds) {
  Inputs in;
  for (const server::PlanRequest& key : hot_set()) in.warmup.push_back({key, Kind::kWarm, 0.0});
  in.warmup.push_back(rl_request(false));
  in.warmup.push_back(rl_request(true));
  Mix mix(seed);
  Rng arrivals(derive_seed(seed, 13));
  in.lo = poisson_schedule(mix, arrivals, kLoRate, 0.35 * seconds);
  in.hi = poisson_schedule(mix, arrivals, kHiRate, 0.35 * seconds);
  in.closed_seconds = 0.3 * seconds;
  const int closed_n = static_cast<int>(400.0 * in.closed_seconds) + 100;
  for (int i = 0; i < closed_n; ++i) in.closed.push_back(mix.next());
  return in;
}

/// Every reply received, checked as it arrives: it must be ok, feasible,
/// degraded exactly when its deadline forces it, and byte-identical to the
/// first reply to the same request.
class ReplyLog {
 public:
  struct Entry {
    server::PlanRequest request;
    Kind kind = Kind::kWarm;
    std::string bytes;  // encode(decode(wire)) is the wire payload
    double per_iteration_ms = 0.0;
  };

  /// Returns whether the exchange succeeded.
  bool record(const Request& r, bool transported, const server::PlanReply& reply,
              const std::string& transport_error) {
    const bool ok = transported && reply.status == server::PlanReply::Status::kOk;
    std::string bytes, key;
    if (ok) {
      bytes = server::encode_reply(reply);
      key = server::encode_request(r.plan);
    }
    std::lock_guard<std::mutex> lock(mu_);
    ++attempted_;
    if (!ok) {
      ++failed_;
      if (failed_ <= 5) {
        std::fprintf(stderr, "planbench: request %s failed: %s\n", describe(r.plan).c_str(),
                     transported ? ("status " + std::to_string(static_cast<int>(reply.status)) +
                                    " " + reply.error)
                                       .c_str()
                                 : transport_error.c_str());
      }
      return false;
    }
    if (reply.degraded != (r.kind == Kind::kRlDeadline)) {
      violations_.push_back(describe(r.plan) + ": degraded=" + std::to_string(reply.degraded));
    }
    if (!reply.feasible) violations_.push_back(describe(r.plan) + ": infeasible plan");
    const auto [it, inserted] =
        entries_.emplace(key, Entry{r.plan, r.kind, bytes, reply.per_iteration_ms});
    if (!inserted && it->second.bytes != bytes) {
      violations_.push_back(describe(r.plan) + ": reply differs from the first reply");
    }
    return true;
  }

  void drain_into(Report& report) {
    std::lock_guard<std::mutex> lock(mu_);
    for (uint64_t i = 0; i < attempted_; ++i) report.attempt(i >= failed_);
    for (const std::string& v : violations_) report.violation(v);
    attempted_ = failed_ = 0;
    violations_.clear();
  }

  /// Call only once the pass has ended.
  const std::map<std::string, Entry>& entries() const { return entries_; }

 private:
  std::mutex mu_;
  std::map<std::string, Entry> entries_;  // keyed by the encoded request
  uint64_t attempted_ = 0;
  uint64_t failed_ = 0;
  std::vector<std::string> violations_;
};

/// A PlanServer (default 4 workers) in a forked child, listening on
/// `dir`/plan.sock with a fresh store in `dir`/store. With `traced`, the
/// child attaches an event log and a metrics registry and writes its
/// counters to `dir`/server.stats when it drains.
class Daemon {
 public:
  Daemon(std::string dir, bool traced);
  Daemon(const Daemon&) = delete;
  Daemon& operator=(const Daemon&) = delete;
  ~Daemon() { kill_and_reap(); }

  /// Graceful stop (SIGTERM, drain). Returns the child's peak RSS in MB.
  double stop(Report& report);

  server::ClientOptions client() const {
    server::ClientOptions options;
    options.unix_path = socket_path();
    return options;
  }
  const std::string& dir() const { return dir_; }

 private:
  std::string socket_path() const { return dir_ + "/plan.sock"; }
  bool accepting() const;
  void kill_and_reap() {
    if (pid_ <= 0) return;
    ::kill(pid_, SIGKILL);
    ::waitpid(pid_, nullptr, 0);
    pid_ = -1;
  }

  std::string dir_;
  pid_t pid_ = -1;
};

[[noreturn]] void serve_child(const std::string& dir, bool traced, pid_t parent) {
  // Never outlive the benchmark, whatever happens to it.
  ::prctl(PR_SET_PDEATHSIG, SIGKILL);
  if (::getppid() != parent) ::_exit(1);
  int rc = 0;
  try {
    install_shutdown_handlers();
    obs::MetricsRegistry metrics;
    std::unique_ptr<obs::EventLog> events;
    if (traced) events = std::make_unique<obs::EventLog>(dir + "/server.jsonl");
    server::ServerOptions options;
    options.unix_path = dir + "/plan.sock";
    options.store_dir = dir + "/store";
    options.events = events.get();
    options.metrics = traced ? &metrics : nullptr;
    server::PlanServer daemon(options);
    daemon.run();
    if (traced) {
      std::ofstream out(dir + "/server.stats");
      for (const auto& [name, value] : metrics.snapshot().counters) {
        out << name << ' ' << value << '\n';
      }
      out << "store.appends_flushed " << daemon.plan_store()->stats().appends_flushed << '\n';
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "planbench: plan server: %s\n", e.what());
    rc = 2;
  }
  ::_exit(rc);
}

Daemon::Daemon(std::string dir, bool traced) : dir_(std::move(dir)) {
  if (socket_path().size() >= sizeof(sockaddr_un{}.sun_path)) {
    throw std::runtime_error("socket path too long: " + socket_path());
  }
  std::filesystem::create_directories(dir_);
  std::fflush(stdout);
  std::fflush(stderr);
  const pid_t parent = ::getpid();
  pid_ = ::fork();
  if (pid_ < 0) throw std::runtime_error("fork: " + std::string(std::strerror(errno)));
  if (pid_ == 0) serve_child(dir_, traced, parent);
  const auto t0 = Clock::now();
  while (!accepting()) {
    if (::waitpid(pid_, nullptr, WNOHANG) == pid_) {
      pid_ = -1;
      throw std::runtime_error("plan server exited during start-up");
    }
    if (ms_since(t0) > 10000.0) {
      kill_and_reap();
      throw std::runtime_error("plan server did not come up within 10 s");
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
}

/// True once a connect succeeds (the server then counts one disconnect).
bool Daemon::accepting() const {
  const std::string path = socket_path();
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  std::memcpy(addr.sun_path, path.c_str(), path.size() + 1);
  const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (fd < 0) return false;
  const bool ok = ::connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) == 0;
  ::close(fd);
  return ok;
}

double Daemon::stop(Report& report) {
  if (pid_ <= 0) return 0.0;
  ::kill(pid_, SIGTERM);
  int status = 0;
  rusage usage{};
  const auto t0 = Clock::now();
  while (::wait4(pid_, &status, WNOHANG, &usage) != pid_) {
    if (ms_since(t0) > 20000.0) {
      ::kill(pid_, SIGKILL);
      ::wait4(pid_, &status, 0, &usage);
      report.violation("plan server did not drain within 20 s");
      break;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  pid_ = -1;
  if (!WIFEXITED(status) || WEXITSTATUS(status) != 0) {
    report.violation("plan server exited abnormally (status " + std::to_string(status) + ")");
  }
  return static_cast<double>(usage.ru_maxrss) / 1024.0;
}

struct PhaseStats {
  std::vector<double> latency_ms;  // from the due time to the reply
  std::vector<double> lag_ms;      // from the due time to the send
  bool backlog_grew = false;
};

/// The open loop: requests are due on their schedule whether or not earlier
/// ones were answered; each is timed from its due time, so a stall also
/// charges the requests queued behind it.
PhaseStats open_loop(const server::ClientOptions& client, const std::vector<Request>& requests,
                     ReplyLog& log) {
  PhaseStats out;
  out.latency_ms.assign(requests.size(), 0.0);
  out.lag_ms.assign(requests.size(), 0.0);
  std::atomic<size_t> next{0};
  const auto t0 = Clock::now();
  auto connection = [&] {
    server::PlanClient pc(client);
    for (size_t i = next.fetch_add(1); i < requests.size(); i = next.fetch_add(1)) {
      const Request& r = requests[i];
      std::this_thread::sleep_until(
          t0 + std::chrono::duration_cast<Clock::duration>(
                   std::chrono::duration<double, std::milli>(r.due_ms)));
      const double sent_ms = ms_since(t0);
      server::PlanReply reply;
      std::string error;
      const bool transported = pc.exchange(r.plan, &reply, &error);
      out.latency_ms[i] = ms_since(t0) - r.due_ms;
      out.lag_ms[i] = sent_ms - r.due_ms;
      log.record(r, transported, reply, error);
    }
  };
  std::vector<std::thread> threads;
  for (int c = 0; c < kConnections; ++c) threads.emplace_back(connection);
  for (auto& t : threads) t.join();

  // A backlog grows when requests late in the schedule wait for a
  // connection longer than early ones did, by more than a typical reply.
  const size_t third = requests.size() / 3;
  const std::vector<double> early(out.lag_ms.begin(), out.lag_ms.begin() + third);
  const std::vector<double> late(out.lag_ms.end() - third, out.lag_ms.end());
  out.backlog_grew = median(late) > median(early) + median(out.latency_ms);
  return out;
}

struct ClosedStats {
  double ok_per_s = 0.0;
  size_t executed = 0;
  std::vector<double> latency_ms;  // from the send to the reply
};

/// The closed loop: each connection sends its next request as soon as the
/// previous reply arrives, for `seconds`.
ClosedStats closed_loop(const server::ClientOptions& client, const std::vector<Request>& requests,
                        double seconds, ReplyLog& log) {
  std::atomic<size_t> next{0};
  std::atomic<uint64_t> ok{0};
  std::mutex mu;
  std::vector<double> latency_ms;
  const auto t0 = Clock::now();
  auto connection = [&] {
    server::PlanClient pc(client);
    while (ms_since(t0) < 1000.0 * seconds) {
      const size_t i = next.fetch_add(1);
      if (i >= requests.size()) return;
      const auto sent = Clock::now();
      server::PlanReply reply;
      std::string error;
      const bool transported = pc.exchange(requests[i].plan, &reply, &error);
      const double ms = ms_since(sent);
      if (log.record(requests[i], transported, reply, error)) ok.fetch_add(1);
      std::lock_guard<std::mutex> lock(mu);
      latency_ms.push_back(ms);
    }
  };
  std::vector<std::thread> threads;
  for (int c = 0; c < kConnections; ++c) threads.emplace_back(connection);
  for (auto& t : threads) t.join();
  ClosedStats out;
  out.ok_per_s = static_cast<double>(ok.load()) / (ms_since(t0) / 1000.0);
  out.executed = std::min(next.load(), requests.size());
  out.latency_ms = std::move(latency_ms);
  return out;
}

struct PassResult {
  PhaseStats lo, hi;
  std::vector<double> closed_ms;  // closed-loop latencies
  double max_rps = 0.0;
  double latency_sum_ms = 0.0;    // every exchange of the pass
  std::vector<Request> executed;  // every request sent, warm-up included
  HostSpeed speed;                // calibrated before and after each phase
};

PassResult serve_pass(const Daemon& daemon, const Inputs& in, ReplyLog& log) {
  PassResult out;
  // The calibrations run while the daemon is idle: each phase has received
  // its last reply before it returns.
  out.speed.calibrate();
  const server::ClientOptions client = daemon.client();
  server::PlanClient pc(client);
  for (const Request& r : in.warmup) {
    const auto t0 = Clock::now();
    server::PlanReply reply;
    std::string error;
    const bool transported = pc.exchange(r.plan, &reply, &error);
    out.latency_sum_ms += ms_since(t0);
    log.record(r, transported, reply, error);
  }
  out.speed.calibrate();
  out.lo = open_loop(client, in.lo, log);
  out.speed.calibrate();
  out.hi = open_loop(client, in.hi, log);
  out.speed.calibrate();
  const ClosedStats closed = closed_loop(client, in.closed, in.closed_seconds, log);
  out.speed.calibrate();
  out.max_rps = closed.ok_per_s;
  out.closed_ms = closed.latency_ms;
  for (const std::vector<double>* phase :
       {&out.lo.latency_ms, &out.hi.latency_ms, &out.closed_ms}) {
    for (const double ms : *phase) out.latency_sum_ms += ms;
  }
  out.executed = in.warmup;
  out.executed.insert(out.executed.end(), in.lo.begin(), in.lo.end());
  out.executed.insert(out.executed.end(), in.hi.begin(), in.hi.end());
  out.executed.insert(out.executed.end(), in.closed.begin(),
                      in.closed.begin() + static_cast<std::ptrdiff_t>(closed.executed));
  return out;
}

void print_phase(const char* name, double rate, const PhaseStats& phase) {
  std::printf("open loop %-11s %5.1f req/s: n=%zu p50 %.2f ms, p95 %.2f ms (n beyond p95: %zu), "
              "generator lag p99 %.2f ms, backlog %s\n",
              name, rate, phase.latency_ms.size(), quantile(phase.latency_ms, 0.5),
              quantile(phase.latency_ms, 0.95), phase.latency_ms.size() / 20,
              quantile(phase.lag_ms, 0.99), phase.backlog_grew ? "GROWS" : "steady");
}

/// Re-plans served keys in-process (heuristic path, no store) and checks
/// the daemon's reply bytes against the replay: every hot key, the
/// deadline-degraded key, and one cold key of each (model, cluster, batch)
/// the hot set lacks. Returns the layer split of each combo.
std::map<std::string, PlanSplit> replay_keys(const ReplyLog& log, Report& report) {
  std::map<std::string, PlanSplit> splits;
  auto replay = [&](const ReplyLog::Entry& entry) {
    const server::PlanRequest& r = entry.request;
    models::ModelKind kind{};
    int layers = 0;
    if (!models::parse_model_name(r.model, &kind, &layers)) {
      report.violation("unknown model " + r.model);
      return;
    }
    const auto cluster = cluster::cluster_from_name(r.cluster);
    if (!cluster.has_value()) {
      report.violation("unknown cluster " + r.cluster);
      return;
    }
    const graph::GraphDef training =
        graph::build_training_graph(models::build_forward(kind, layers, r.batch));
    PlanSplit split = replay_heuristic_plan(training, *cluster, r.seed, report);
    server::PlanReply expected;
    expected.status = server::PlanReply::Status::kOk;
    expected.degraded = entry.kind == Kind::kRlDeadline;
    expected.feasible = split.feasible;
    expected.per_iteration_ms = split.per_iteration_ms;
    expected.plan_text = split.plan_text;
    if (server::encode_reply(expected) != entry.bytes) {
      report.violation(describe(r) + ": daemon reply differs from the in-process replay");
    }
    splits.emplace(combo_of(r), std::move(split));
  };
  for (const auto& [key, entry] : log.entries()) {
    if (entry.kind == Kind::kWarm || entry.kind == Kind::kRlDeadline) replay(entry);
  }
  for (const auto& [key, entry] : log.entries()) {
    if (entry.kind == Kind::kCold && splits.count(combo_of(entry.request)) == 0) replay(entry);
  }
  return splits;
}

std::map<std::string, double> read_counters(const std::string& path) {
  std::map<std::string, double> out;
  std::ifstream in(path);
  std::string name;
  double value = 0.0;
  while (in >> name >> value) out[name] = value;
  return out;
}

struct StoreCosts {
  double put_ms = 0.0;
  double flush_ms = 0.0;
  double lookup_ms = 0.0;
};

/// Per-operation PlanStore costs on a scratch store: puts, each followed by
/// the fsync'd flush the server issues before a reply, then lookups (half
/// hits, half misses).
StoreCosts time_store(const std::string& dir) {
  constexpr int kRecords = 64;
  sim::PlanEvaluation eval;
  eval.per_iteration_ms = 12.5;
  eval.cold_iteration_ms = 14.0;
  eval.computation_ms = 9.0;
  eval.communication_ms = 6.0;
  eval.peak_memory_bytes.assign(12, int64_t{1} << 30);
  store::PlanStoreOptions options;
  options.dir = dir;
  store::PlanStore plan_store(options);
  StoreCosts costs;
  for (uint64_t key = 1; key <= kRecords; ++key) {
    auto t0 = Clock::now();
    plan_store.put(key, eval);
    costs.put_ms += ms_since(t0);
    t0 = Clock::now();
    plan_store.flush();
    costs.flush_ms += ms_since(t0);
  }
  sim::PlanEvaluation found;
  const auto t0 = Clock::now();
  for (uint64_t key = 1; key <= 2 * kRecords; ++key) plan_store.lookup(key, &found);
  costs.lookup_ms = ms_since(t0) / (2 * kRecords);
  costs.put_ms /= kRecords;
  costs.flush_ms /= kRecords;
  return costs;
}

/// One request's codec work on both ends: encode and decode the request,
/// encode and decode the reply.
double codec_ms_per_request(const ReplyLog& log) {
  const auto t0 = Clock::now();
  for (const auto& [key, entry] : log.entries()) {
    server::PlanRequest request;
    server::PlanReply reply;
    std::string error;
    server::decode_request(server::encode_request(entry.request), &request, &error);
    server::decode_reply(entry.bytes, &reply, &error);
    const std::string encoded = server::encode_reply(reply);
  }
  return ms_since(t0) / static_cast<double>(std::max<size_t>(1, log.entries().size()));
}

void trace_serve(const Args& args, const Inputs& inputs, const PassResult& plain,
                 const ReplyLog& plain_log, const std::map<std::string, PlanSplit>& splits,
                 Report& report) {
  report.set("server.lo_p50_ms", quantile(plain.lo.latency_ms, 0.5));
  report.set("server.lo_p95_ms", quantile(plain.lo.latency_ms, 0.95));
  report.set("server.lo_requests", static_cast<double>(plain.lo.latency_ms.size()));
  report.set("server.lo_backlog_grew", plain.lo.backlog_grew ? 1.0 : 0.0);
  report.set("server.hi_p50_ms", quantile(plain.hi.latency_ms, 0.5));
  report.set("server.hi_p95_ms", quantile(plain.hi.latency_ms, 0.95));
  report.set("server.hi_requests", static_cast<double>(plain.hi.latency_ms.size()));
  report.set("server.hi_backlog_grew", plain.hi.backlog_grew ? 1.0 : 0.0);
  report.set("server.max_rps", plain.max_rps);
  std::vector<double> lags = plain.lo.lag_ms;
  lags.insert(lags.end(), plain.hi.lag_ms.begin(), plain.hi.lag_ms.end());
  report.set("bench.gen_lag_p99_ms", quantile(lags, 0.99));

  // The traced pass: the same inputs against a daemon with sinks attached.
  Daemon daemon(args.tmp + "/daemon-traced", true);
  ReplyLog log;
  const PassResult traced = serve_pass(daemon, inputs, log);
  daemon.stop(report);
  log.drain_into(report);
  print_phase("lo (traced)", kLoRate, traced.lo);
  print_phase("hi (traced)", kHiRate, traced.hi);
  for (const auto& [key, entry] : log.entries()) {
    const auto it = plain_log.entries().find(key);
    if (it != plain_log.entries().end() && it->second.bytes != entry.bytes) {
      report.violation(describe(entry.request) + ": the traced pass served different bytes");
    }
  }
  report.set("bench.trace_overhead_ratio", traced.latency_sum_ms / plain.latency_sum_ms);

  double service_ms = 0.0, requests = 0.0;
  for (const obs::ParsedEvent& e : obs::read_events(daemon.dir() + "/server.jsonl")) {
    if (e.type != "server_request") continue;
    service_ms += e.number("latency_ms");
    requests += 1.0;
  }
  const std::map<std::string, double> counters = read_counters(daemon.dir() + "/server.stats");
  const auto counter = [&counters](const char* name) {
    const auto it = counters.find(name);
    return it == counters.end() ? 0.0 : it->second;
  };
  report.set("server.service_ms", service_ms);
  report.set("server.wait_ms", traced.latency_sum_ms - service_ms);
  report.set("server.codec_ms", codec_ms_per_request(log) * requests);
  report.set("server.rejects", counter("server.rejects.count"));
  report.set("server.degraded", counter("server.degraded.count"));

  const double hits = counter("store.hits.count"), misses = counter("store.misses.count");
  const double flushes = counter("store.appends_flushed");
  const StoreCosts costs = time_store(args.tmp + "/store-replay");
  const auto t0 = Clock::now();
  {
    store::PlanStoreOptions options;
    options.dir = daemon.dir() + "/store";
    store::PlanStore reopened(options);
    report.set("store.open_ms", ms_since(t0));
  }
  report.set("store.hits", hits);
  report.set("store.misses", misses);
  report.set("store.hit_ratio", hits + misses > 0.0 ? hits / (hits + misses) : 0.0);
  report.set("store.flushes", flushes);
  report.set("store.lookup_ms", costs.lookup_ms * (hits + misses));
  report.set("store.put_ms", costs.put_ms * counter("store.puts.count"));
  report.set("store.flush_ms", costs.flush_ms * flushes);

  // Planner layers behind each heuristic request: a cold key evaluates
  // every candidate; a warm key's evaluations are store hits. Full RL
  // searches are not split; their time stays in server.service_ms.
  double evals = 0.0;
  for (const Request& r : traced.executed) {
    if (r.kind == Kind::kRl) continue;
    const auto it = splits.find(combo_of(r.plan));
    if (it == splits.end()) continue;
    const double cold = r.kind == Kind::kCold ? it->second.evals.evals : 0.0;
    add_split(report, it->second, {1.0, 1.0, 1.0, cold});
    evals += cold;
  }
  report.set("rl.evals", evals);
}

}  // namespace

void run_serve_mixed(const Args& args, Report& report) {
  Inputs inputs;
  std::unique_ptr<Daemon> daemon;
  int starts = 0;
  const double setup_s = median_setup_s(
      [&] {
        inputs = make_inputs(args.seed, args.seconds);
        daemon = std::make_unique<Daemon>(args.tmp + "/daemon-" + std::to_string(starts++),
                                          false);
      },
      [&] {
        daemon->stop(report);
        daemon.reset();
      });

  ReplyLog log;
  const PassResult pass = serve_pass(*daemon, inputs, log);
  const double rss_mb = daemon->stop(report);
  daemon.reset();
  log.drain_into(report);
  print_phase("lo", kLoRate, pass.lo);
  print_phase("hi", kHiRate, pass.hi);
  std::printf("closed loop, %d connections: %.1f ok replies/s; %zu distinct requests\n",
              kConnections, pass.max_rps, log.entries().size());
  std::printf("calibration mean %.2f ms (reference %.1f ms); printed timings are raw\n",
              pass.speed.mean_ms(), kReferenceCalibrationMs);
  const std::map<std::string, PlanSplit> splits = replay_keys(log, report);

  if (args.trace) {
    trace_serve(args, inputs, pass, log, splits, report);
    return;
  }
  // plan_wall_s and tail_wall_s are taken with the daemon kept busy (closed
  // loop): at open-loop load an idle host's wake-up jitter swamps a 10-30 ms
  // request, and a stall of the shared host delays every request due during
  // it, which moved the open-loop p95 by up to 60% between runs. The
  // open-loop percentiles are per-layer metrics (server.{lo,hi}_p95_ms).
  std::vector<double> iteration_ms;
  for (const auto& [key, entry] : log.entries()) iteration_ms.push_back(entry.per_iteration_ms);
  std::printf("closed loop latency: n=%zu p50 %.2f ms, p95 %.2f ms (n beyond p95: %zu)\n",
              pass.closed_ms.size(), quantile(pass.closed_ms, 0.5),
              quantile(pass.closed_ms, 0.95), pass.closed_ms.size() / 20);
  report.set("setup_s", setup_s);
  const double scale = pass.speed.scale();
  report.set("plan_wall_s", geomean(pass.closed_ms) * scale / 1000.0);
  report.set("tail_wall_s", quantile(pass.closed_ms, 0.95) * scale / 1000.0);
  report.set("rate_per_s", pass.max_rps / scale);
  report.set("plan_iter_ms", geomean(iteration_ms));
  report.set("peak_rss_mb", rss_mb);
}

}  // namespace planbench
