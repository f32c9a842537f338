// Plan-server load/chaos bench (PR 7 robustness tentpole; docs/server.md).
//
// A server child is forked onto a Unix socket backed by a persistent plan
// store, then hammered by N concurrent client threads with a seeded request
// mix: valid plans (cold and warm repeats), deadline-degraded searches,
// malformed frames, oversized frame headers, and mid-frame disconnects.
// Reported: request latency percentiles (p50/p95/p99) over the valid
// exchanges plus ok/error/reject/degrade/disconnect counts.
//
// The chaos acceptance criterion rides along: after the load phase the
// server is killed with SIGKILL and a fresh server is started on the same
// store; the canonical request's reply must be bit-identical (canonical
// re-encoding compared byte-for-byte) across crash and restart, and any
// mismatch makes the bench exit nonzero.
//
// Extra knobs on top of bench_util.h's:
//   HETEROG_SERVER_CLIENTS   concurrent client threads (default 4)
//   HETEROG_SERVER_REQUESTS  requests per client (default 25; fast mode 8)
//   HETEROG_CHAOS_SEED       seed for the request mix (default 7)
//
// HETEROG_BENCH_JSON gains bench.server.* metrics: a latency histogram plus
// outcome counters and percentile gauges.
#include "bench_util.h"

#include <signal.h>
#include <sys/stat.h>
#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <thread>

#include "common/rng.h"
#include "common/stats.h"
#include "server/plan_client.h"
#include "server/plan_server.h"

using namespace heterog;
using namespace heterog::bench;

namespace {

namespace fs = std::filesystem;

/// Forks a server child on `socket_path` backed by `store_dir`; the child
/// never returns. The parent gets the child's pid.
pid_t fork_server(const std::string& socket_path, const std::string& store_dir) {
  const pid_t pid = ::fork();
  if (pid != 0) return pid;
  try {
    server::ServerOptions options;
    options.unix_path = socket_path;
    options.store_dir = store_dir;
    options.threads = 4;
    options.queue_capacity = 16;
    options.read_timeout_ms = 2000;
    server::PlanServer daemon(std::move(options));
    daemon.run();  // runs until SIGKILL'd by the parent
  } catch (const std::exception& e) {
    std::fprintf(stderr, "server child: %s\n", e.what());
    ::_exit(2);
  }
  ::_exit(0);
}

bool wait_for_socket(const std::string& path) {
  for (int i = 0; i < 200; ++i) {
    struct stat st{};
    if (::stat(path.c_str(), &st) == 0 && S_ISSOCK(st.st_mode)) return true;
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
  }
  return false;
}

server::PlanRequest canonical_request() {
  server::PlanRequest request;
  request.model = "mobilenet_v2";
  request.batch = 32.0;
  return request;
}

/// Canonical reply bytes for the bit-identity check: encode(decode(wire)) is
/// the identity on server-produced payloads, so comparing re-encodings
/// compares the wire bytes.
bool canonical_reply_bytes(const server::ClientOptions& copts,
                           const server::PlanRequest& request, std::string* bytes) {
  server::PlanClient client(copts);
  server::PlanReply reply;
  std::string transport_error;
  if (!client.exchange(request, &reply, &transport_error)) {
    std::fprintf(stderr, "canonical exchange failed: %s\n", transport_error.c_str());
    return false;
  }
  if (reply.status != server::PlanReply::Status::kOk) {
    std::fprintf(stderr, "canonical request not served ok\n");
    return false;
  }
  *bytes = server::encode_reply(reply);
  return true;
}

/// common/stats percentile with an empty-input guard (an all-chaos mix can
/// leave zero valid exchanges in a tiny fast-mode run).
double pct(const std::vector<double>& values, double p) {
  return values.empty() ? 0.0 : percentile(values, p);
}

struct MixCounts {
  std::atomic<uint64_t> ok{0};
  std::atomic<uint64_t> degraded{0};
  std::atomic<uint64_t> error{0};
  std::atomic<uint64_t> rejected{0};
  std::atomic<uint64_t> disconnect_injected{0};
  std::atomic<uint64_t> transport_errors{0};
};

/// One client thread's worth of the seeded chaos mix.
void client_mix(const server::ClientOptions& copts, uint64_t seed, int requests,
                MixCounts* counts, std::vector<double>* latencies_ms) {
  Rng rng(seed);
  const char* kModels[] = {"mobilenet_v2", "vgg19"};
  const double kBatches[] = {16.0, 32.0, 64.0};
  server::PlanClient client(copts);
  for (int i = 0; i < requests; ++i) {
    const int roll = rng.uniform_int(0, 9);
    if (roll < 6) {  // valid plan request (repeats hit the store warm)
      server::PlanRequest request;
      request.model = kModels[rng.uniform_int(0, 1)];
      request.batch = kBatches[rng.uniform_int(0, 2)];
      server::PlanReply reply;
      std::string transport_error;
      const auto start = std::chrono::steady_clock::now();
      if (!client.exchange(request, &reply, &transport_error)) {
        counts->transport_errors.fetch_add(1);
        continue;
      }
      const double ms = std::chrono::duration<double, std::milli>(
                            std::chrono::steady_clock::now() - start)
                            .count();
      latencies_ms->push_back(ms);
      obs::MetricsRegistry::global().observe("bench.server.latency.ms", ms);
      if (reply.status == server::PlanReply::Status::kOk) {
        counts->ok.fetch_add(1);
      } else {
        counts->error.fetch_add(1);
      }
    } else if (roll < 7) {  // deadline-degraded search
      server::PlanRequest request;
      request.model = "mobilenet_v2";
      request.batch = 32.0;
      request.episodes = 10;
      request.deadline_ms = 1.0;  // modelled cost blows this budget
      server::PlanReply reply;
      std::string transport_error;
      if (!client.exchange(request, &reply, &transport_error)) {
        counts->transport_errors.fetch_add(1);
      } else if (reply.status == server::PlanReply::Status::kOk && reply.degraded) {
        counts->degraded.fetch_add(1);
      } else {
        counts->error.fetch_add(1);
      }
    } else if (roll < 8) {  // malformed frame
      server::PlanReply reply;
      std::string transport_error;
      if (client.raw_exchange("definitely not a frame\n", &reply, &transport_error) &&
          reply.status == server::PlanReply::Status::kRejected) {
        counts->rejected.fetch_add(1);
      } else {
        counts->transport_errors.fetch_add(1);
      }
    } else if (roll < 9) {  // oversized declared length
      server::PlanReply reply;
      std::string transport_error;
      if (client.raw_exchange("rec 999999999 deadbeef\n", &reply, &transport_error) &&
          reply.status == server::PlanReply::Status::kRejected) {
        counts->rejected.fetch_add(1);
      } else {
        counts->transport_errors.fetch_add(1);
      }
    } else {  // half a frame, then hang up
      (void)client.fire_and_close("rec 100 deadbeef\npartial");
      counts->disconnect_injected.fetch_add(1);
    }
  }
}

}  // namespace

int main() {
  print_header("Plan server load/chaos bench (latency + crash bit-identity)",
               "PR 7 robustness tentpole; docs/server.md");

  const int clients = env_int("HETEROG_SERVER_CLIENTS", 4, 1, kNoLimit);
  const int requests =
      env_int("HETEROG_SERVER_REQUESTS", fast_mode() ? 8 : 25, 1, kNoLimit);
  const uint64_t seed =
      static_cast<uint64_t>(env_int("HETEROG_CHAOS_SEED", 7, 0, kNoLimit));

  const fs::path dir =
      fs::temp_directory_path() / ("hg_bench_srv_" + std::to_string(::getpid()));
  fs::remove_all(dir);
  fs::create_directories(dir);
  const std::string store_dir = (dir / "store").string();

  // Phase 1: serve the seeded load mix.
  const std::string socket_a = (dir / "a.sock").string();
  const pid_t server_a = fork_server(socket_a, store_dir);
  if (server_a < 0 || !wait_for_socket(socket_a)) {
    std::fprintf(stderr, "bench: server A did not come up\n");
    return 1;
  }
  server::ClientOptions copts;
  copts.unix_path = socket_a;

  std::string before_bytes;
  if (!canonical_reply_bytes(copts, canonical_request(), &before_bytes)) return 1;

  MixCounts counts;
  std::vector<std::vector<double>> per_thread(static_cast<size_t>(clients));
  std::vector<std::thread> threads;
  const auto load_start = std::chrono::steady_clock::now();
  for (int t = 0; t < clients; ++t) {
    threads.emplace_back(client_mix, copts, seed * 1000 + static_cast<uint64_t>(t),
                         requests, &counts, &per_thread[static_cast<size_t>(t)]);
  }
  for (auto& thread : threads) thread.join();
  const double load_ms = std::chrono::duration<double, std::milli>(
                             std::chrono::steady_clock::now() - load_start)
                             .count();

  // The same request after the load must still decode to the same reply.
  std::string after_load_bytes;
  if (!canonical_reply_bytes(copts, canonical_request(), &after_load_bytes)) return 1;

  // Phase 2: SIGKILL, restart on the same store, repeat the request.
  ::kill(server_a, SIGKILL);
  int wstatus = 0;
  ::waitpid(server_a, &wstatus, 0);

  const std::string socket_b = (dir / "b.sock").string();
  const pid_t server_b = fork_server(socket_b, store_dir);
  if (server_b < 0 || !wait_for_socket(socket_b)) {
    std::fprintf(stderr, "bench: server B did not come up after SIGKILL\n");
    return 1;
  }
  copts.unix_path = socket_b;
  std::string after_crash_bytes;
  const bool restarted_ok =
      canonical_reply_bytes(copts, canonical_request(), &after_crash_bytes);
  ::kill(server_b, SIGKILL);
  ::waitpid(server_b, &wstatus, 0);
  if (!restarted_ok) return 1;

  std::vector<double> latencies;
  for (const auto& chunk : per_thread) {
    latencies.insert(latencies.end(), chunk.begin(), chunk.end());
  }
  const double p50 = pct(latencies, 50.0);
  const double p95 = pct(latencies, 95.0);
  const double p99 = pct(latencies, 99.0);

  TextTable table({"metric", "value"});
  table.add_row({"clients x requests",
                 std::to_string(clients) + " x " + std::to_string(requests)});
  table.add_row({"valid exchanges", std::to_string(latencies.size())});
  table.add_row({"latency p50 (ms)", fmt_double(p50)});
  table.add_row({"latency p95 (ms)", fmt_double(p95)});
  table.add_row({"latency p99 (ms)", fmt_double(p99)});
  table.add_row({"ok replies", std::to_string(counts.ok.load())});
  table.add_row({"degraded plans", std::to_string(counts.degraded.load())});
  table.add_row({"error replies", std::to_string(counts.error.load())});
  table.add_row({"typed rejections", std::to_string(counts.rejected.load())});
  table.add_row({"disconnects injected",
                 std::to_string(counts.disconnect_injected.load())});
  table.add_row({"transport errors", std::to_string(counts.transport_errors.load())});
  table.add_row({"load wall (ms)", fmt_double(load_ms)});
  std::printf("%s", table.render().c_str());

  auto& registry = obs::MetricsRegistry::global();
  registry.add("bench.server.ok.count", counts.ok.load());
  registry.add("bench.server.degraded.count", counts.degraded.load());
  registry.add("bench.server.error.count", counts.error.load());
  registry.add("bench.server.rejects.count", counts.rejected.load());
  registry.add("bench.server.disconnects.count", counts.disconnect_injected.load());
  registry.add("bench.server.transport_errors.count", counts.transport_errors.load());
  registry.set("bench.server.latency_p50.ms", p50);
  registry.set("bench.server.latency_p95.ms", p95);
  registry.set("bench.server.latency_p99.ms", p99);
  write_bench_json("plan_server",
                   {{"chaos_seed", std::to_string(seed)},
                    {"clients", std::to_string(clients)},
                    {"requests_per_client", std::to_string(requests)}});

  int rc = 0;
  if (after_load_bytes != before_bytes) {
    std::fprintf(stderr, "FAIL: reply changed across warm repeat (store served "
                         "different bytes)\n");
    rc = 1;
  }
  if (after_crash_bytes != before_bytes) {
    std::fprintf(stderr, "FAIL: reply changed across SIGKILL + restart — the "
                         "store did not self-heal to the same answer\n");
    rc = 1;
  }
  if (rc == 0) {
    std::printf("crash bit-identity: ok (reply stable across warm repeat and "
                "SIGKILL restart)\n");
  }
  std::error_code ec;
  fs::remove_all(dir, ec);
  return rc;
}
