// Plan-server robustness suite (docs/server.md): wire-protocol codec
// totality, end-to-end request/reply parity with the library, the full typed
// rejection taxonomy (malformed / oversized / slow client / queue full /
// draining), deadline-degraded planning, graceful drain, and the crash
// acceptance criterion — a server killed with SIGKILL and restarted on the
// same store answers a repeated request with byte-identical reply payloads.
#include <gtest/gtest.h>

#include <signal.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cstring>
#include <filesystem>
#include <string>
#include <thread>
#include <vector>

#include "common/record_io.h"
#include "common/shutdown.h"
#include "core/heterog.h"
#include "models/models.h"
#include "obs/event_log.h"
#include "server/plan_client.h"
#include "server/plan_server.h"
#include "store/plan_store.h"
#include "strategy/serialize.h"

namespace heterog::server {
namespace {

namespace fs = std::filesystem;

/// Fresh per-test scratch directory under the system temp space (short
/// enough that a Unix socket path inside it fits sockaddr_un).
class TempDir {
 public:
  explicit TempDir(const std::string& tag) {
    path_ = fs::temp_directory_path() /
            ("hg_srv_" + tag + "_" + std::to_string(::getpid()));
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

PlanRequest quick_request() {
  PlanRequest request;
  request.model = "mobilenet_v2";
  request.batch = 32.0;
  return request;
}

/// PlanServer + its accept loop on a background thread; stops on destruction.
class ServerFixture {
 public:
  explicit ServerFixture(ServerOptions options) : server_(std::move(options)) {
    thread_ = std::thread([this] { server_.run(); });
  }
  ~ServerFixture() { stop(); }

  void stop() {
    server_.request_stop();
    if (thread_.joinable()) thread_.join();
  }

  PlanServer& server() { return server_; }
  ClientOptions client_options() const {
    ClientOptions copts;
    copts.unix_path = server_.unix_path();
    copts.tcp_port = server_.tcp_port();
    return copts;
  }

 private:
  PlanServer server_;
  std::thread thread_;
};

/// One raw framed exchange returning the reply payload *bytes* (the unit the
/// byte-identical acceptance criterion is stated in).
bool raw_reply_bytes(const ClientOptions& copts, const std::string& payload,
                     std::string* reply_payload) {
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  if (copts.unix_path.size() >= sizeof(addr.sun_path)) return false;
  std::memcpy(addr.sun_path, copts.unix_path.c_str(), copts.unix_path.size() + 1);
  const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (fd < 0) return false;
  if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) != 0) {
    ::close(fd);
    return false;
  }
  const std::string wire = frame_record(payload);
  if (!write_raw(fd, wire)) {
    ::close(fd);
    return false;
  }
  ::shutdown(fd, SHUT_WR);
  std::string error;
  const FrameReadStatus status =
      read_frame(fd, kMaxReplyPayload, 60000, reply_payload, &error);
  ::close(fd);
  return status == FrameReadStatus::kOk;
}

// Codec ----------------------------------------------------------------------

TEST(ServerCodec, RequestRoundTrip) {
  PlanRequest request;
  request.model = "bert";
  request.layers = 12;
  request.batch = 6.5;
  request.cluster = "12gpu";
  request.episodes = 40;
  request.deadline_ms = 750.25;
  request.seed = 0xDEADBEEFCAFEull;

  PlanRequest got;
  std::string error;
  ASSERT_TRUE(decode_request(encode_request(request), &got, &error)) << error;
  EXPECT_EQ(got.model, request.model);
  EXPECT_EQ(got.layers, request.layers);
  EXPECT_EQ(got.batch, request.batch);
  EXPECT_EQ(got.cluster, request.cluster);
  EXPECT_EQ(got.episodes, request.episodes);
  EXPECT_EQ(got.deadline_ms, request.deadline_ms);
  EXPECT_EQ(got.seed, request.seed);
}

TEST(ServerCodec, ReplyRoundTripAllStatuses) {
  std::string error;
  {
    PlanReply reply;
    reply.status = PlanReply::Status::kOk;
    reply.degraded = true;
    reply.feasible = true;
    reply.per_iteration_ms = 123.0625;
    reply.plan_text = "line one\nline two\nline three\n";
    PlanReply got;
    ASSERT_TRUE(decode_reply(encode_reply(reply), &got, &error)) << error;
    EXPECT_EQ(got.status, PlanReply::Status::kOk);
    EXPECT_TRUE(got.degraded);
    EXPECT_TRUE(got.feasible);
    EXPECT_EQ(got.per_iteration_ms, reply.per_iteration_ms);
    EXPECT_EQ(got.plan_text, reply.plan_text);
  }
  {
    PlanReply reply;
    reply.status = PlanReply::Status::kRejected;
    reply.reject_reason = RejectReason::kQueueFull;
    PlanReply got;
    ASSERT_TRUE(decode_reply(encode_reply(reply), &got, &error)) << error;
    EXPECT_EQ(got.status, PlanReply::Status::kRejected);
    EXPECT_EQ(got.reject_reason, RejectReason::kQueueFull);
  }
  {
    PlanReply reply;
    reply.status = PlanReply::Status::kError;
    reply.error = "unknown model 'nope'";
    PlanReply got;
    ASSERT_TRUE(decode_reply(encode_reply(reply), &got, &error)) << error;
    EXPECT_EQ(got.status, PlanReply::Status::kError);
    EXPECT_EQ(got.error, reply.error);
  }
}

TEST(ServerCodec, RejectReasonTokensRoundTrip) {
  for (const RejectReason reason :
       {RejectReason::kMalformedFrame, RejectReason::kOversizedFrame,
        RejectReason::kQueueFull, RejectReason::kDraining,
        RejectReason::kSlowClient}) {
    RejectReason got;
    ASSERT_TRUE(parse_reject_reason(reject_reason_name(reason), &got));
    EXPECT_EQ(got, reason);
  }
  RejectReason got;
  EXPECT_FALSE(parse_reject_reason("nonsense", &got));
}

TEST(ServerCodec, DecodeRequestRejectsDamage) {
  PlanRequest out;
  std::string error;
  EXPECT_FALSE(decode_request("", &out, &error));
  EXPECT_FALSE(decode_request("not the magic\nmodel vgg19\n", &out, &error));
  // Missing required fields.
  EXPECT_FALSE(decode_request("heterog-rpc v1 request\n", &out, &error));
  EXPECT_FALSE(
      decode_request("heterog-rpc v1 request\nmodel vgg19\n", &out, &error));
  // Unknown key.
  EXPECT_FALSE(decode_request(
      "heterog-rpc v1 request\nmodel vgg19\nbatch 32\nbogus 1\n", &out, &error));
  // Out-of-range values.
  EXPECT_FALSE(decode_request(
      "heterog-rpc v1 request\nmodel vgg19\nbatch 0\n", &out, &error));
  EXPECT_FALSE(decode_request(
      "heterog-rpc v1 request\nmodel vgg19\nbatch 32\nepisodes -1\n", &out, &error));
  EXPECT_FALSE(error.empty());
  // Numbers take no leading '+' and no hex, and a name holds no tab.
  const std::string head = "heterog-rpc v1 request\nmodel vgg19\n";
  ASSERT_TRUE(decode_request(head + "batch 32\nlayers 5\n", &out, &error)) << error;
  for (const char* tail : {"batch +32\n", "batch 0x20\n", "batch 32\nlayers +5\n",
                                  "batch 32\nepisodes +3\n",
                                  "batch 32\ndeadline_ms 0x10\n"}) {
    EXPECT_FALSE(decode_request(head + tail, &out, &error)) << tail;
  }
  EXPECT_FALSE(decode_request("heterog-rpc v1 request\nmodel vgg19\tx\nbatch 32\n", &out,
                              &error));
}

TEST(ServerCodec, DecodeReplyRejectsDamage) {
  PlanReply out;
  std::string error;
  const std::string head = "heterog-rpc v1 reply\n";
  ASSERT_TRUE(decode_reply(head + "status rejected\nreason queue_full\n", &out, &error))
      << error;
  ASSERT_TRUE(decode_reply(head + "status ok\nper_iteration_ms 16\nplan_lines 0\n", &out,
                           &error))
      << error;
  // Nothing may follow a rejected reply's reason or an error reply's
  // message, and numbers take no leading '+' and no hex.
  for (const char* body : {
           "status rejected\nreason queue_full\nextra line\n",
           "status error\nmessage planning failed\nextra line\n",
           "status ok\nper_iteration_ms 0x10\nplan_lines 0\n",
           "status ok\nper_iteration_ms +16\nplan_lines 0\n",
           "status ok\nplan_lines +0\n",
       }) {
    EXPECT_FALSE(decode_reply(head + body, &out, &error)) << body;
  }
  EXPECT_FALSE(decode_reply(head + "status ok\nplan_lines 2\nonly one\n", &out, &error));
  EXPECT_FALSE(decode_reply(head + "status ok\nplan_lines 0\nextra\n", &out, &error));
}

// End-to-end ------------------------------------------------------------------

ServerOptions unix_options(const TempDir& dir, const std::string& store = "") {
  ServerOptions options;
  options.unix_path = (dir.path() / "s.sock").string();
  options.threads = 2;
  options.store_dir = store;
  return options;
}

TEST(PlanServerEndToEnd, AnswersMatchDirectLibraryCall) {
  TempDir dir("e2e");
  ServerFixture fixture(unix_options(dir));

  PlanClient client(fixture.client_options());
  PlanReply reply;
  std::string transport_error;
  ASSERT_TRUE(client.exchange(quick_request(), &reply, &transport_error))
      << transport_error;
  ASSERT_EQ(reply.status, PlanReply::Status::kOk);
  EXPECT_FALSE(reply.degraded);

  // The same planning pipeline, called directly: identical plan text and
  // headline numbers (the server adds transport, never content).
  HeteroGConfig config;
  config.search_with_rl = false;
  config.train.threads = 1;
  const auto runner = get_runner(
      [] { return models::build_forward(models::ModelKind::kMobileNetV2, 0, 32.0); },
      *cluster::cluster_from_name("8gpu"), config);
  EXPECT_EQ(reply.plan_text, strategy::to_text(runner.strategy(), runner.cluster()));
  EXPECT_EQ(reply.per_iteration_ms, runner.per_iteration_ms());
  EXPECT_EQ(reply.feasible, runner.feasible());
}

TEST(PlanServerEndToEnd, TypedRejectionsAndErrorsNeverKillTheServer) {
  TempDir dir("reject");
  ServerOptions options = unix_options(dir);
  options.read_timeout_ms = 400;  // keep the slow-client case fast
  ServerFixture fixture(options);
  PlanClient client(fixture.client_options());
  PlanReply reply;
  std::string transport_error;

  // Hostile garbage instead of a frame -> typed malformed_frame rejection.
  ASSERT_TRUE(client.raw_exchange("complete nonsense\n", &reply, &transport_error))
      << transport_error;
  EXPECT_EQ(reply.status, PlanReply::Status::kRejected);
  EXPECT_EQ(reply.reject_reason, RejectReason::kMalformedFrame);

  // A declared length over the request cap -> oversized_frame, refused from
  // the header alone (no payload is ever read or allocated).
  ASSERT_TRUE(client.raw_exchange("rec 999999999 deadbeef\n", &reply,
                                  &transport_error))
      << transport_error;
  EXPECT_EQ(reply.status, PlanReply::Status::kRejected);
  EXPECT_EQ(reply.reject_reason, RejectReason::kOversizedFrame);

  // A valid frame whose payload is not a request -> error reply (the frame
  // was fine, the content was not).
  ASSERT_TRUE(client.raw_exchange(frame_record("gibberish payload"), &reply,
                                  &transport_error))
      << transport_error;
  EXPECT_EQ(reply.status, PlanReply::Status::kError);
  EXPECT_FALSE(reply.error.empty());

  // Unknown model and unknown cluster -> error replies with the name echoed.
  PlanRequest bad = quick_request();
  bad.model = "gpt17";
  ASSERT_TRUE(client.exchange(bad, &reply, &transport_error)) << transport_error;
  EXPECT_EQ(reply.status, PlanReply::Status::kError);
  EXPECT_NE(reply.error.find("gpt17"), std::string::npos);
  bad = quick_request();
  bad.cluster = "nope";
  ASSERT_TRUE(client.exchange(bad, &reply, &transport_error)) << transport_error;
  EXPECT_EQ(reply.status, PlanReply::Status::kError);

  // A connected-but-silent client (socket held open, nothing sent) ->
  // slow_client once the read budget lapses. raw_exchange can't model this —
  // it half-closes after writing, which reads as a disconnect — so go raw.
  {
    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    const std::string& path = fixture.client_options().unix_path;
    std::memcpy(addr.sun_path, path.c_str(), path.size() + 1);
    const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
    ASSERT_GE(fd, 0);
    ASSERT_EQ(
        ::connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)), 0);
    std::string payload, error;
    ASSERT_EQ(read_frame(fd, kMaxReplyPayload, 10000, &payload, &error),
              FrameReadStatus::kOk);
    ::close(fd);
    ASSERT_TRUE(decode_reply(payload, &reply, &error)) << error;
    EXPECT_EQ(reply.status, PlanReply::Status::kRejected);
    EXPECT_EQ(reply.reject_reason, RejectReason::kSlowClient);
  }

  // A mid-frame hangup is absorbed (counted, not crashed).
  EXPECT_TRUE(client.fire_and_close("rec 100 deadbeef\npartial"));

  // After every abuse above, a well-formed request still gets a real answer.
  ASSERT_TRUE(client.exchange(quick_request(), &reply, &transport_error))
      << transport_error;
  EXPECT_EQ(reply.status, PlanReply::Status::kOk);

  const ServerStats stats = fixture.server().stats();
  EXPECT_EQ(stats.rejected_malformed, 1u);
  EXPECT_EQ(stats.rejected_oversized, 1u);
  EXPECT_EQ(stats.rejected_slow_client, 1u);
  EXPECT_EQ(stats.replies_error, 3u);
  EXPECT_EQ(stats.replies_ok, 1u);
}

TEST(PlanServerEndToEnd, BoundedAdmissionRejectsQueueFull) {
  TempDir dir("queue");
  ServerOptions options = unix_options(dir);
  options.threads = 1;
  options.queue_capacity = 0;  // admission cap = 1 in-flight request
  options.read_timeout_ms = 2000;
  ServerFixture fixture(options);

  // Occupy the lone worker with a silent connection (it blocks in the framed
  // read until the budget lapses)...
  ClientOptions copts = fixture.client_options();
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  std::memcpy(addr.sun_path, copts.unix_path.c_str(), copts.unix_path.size() + 1);
  const int hog = ::socket(AF_UNIX, SOCK_STREAM, 0);
  ASSERT_GE(hog, 0);
  ASSERT_EQ(::connect(hog, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)),
            0);
  // ... wait until the server has actually admitted it ...
  for (int i = 0; i < 200 && fixture.server().stats().in_flight == 0; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  ASSERT_EQ(fixture.server().stats().in_flight, 1u);

  // ... then the next request must bounce with queue_full immediately.
  PlanClient client(copts);
  PlanReply reply;
  std::string transport_error;
  ASSERT_TRUE(client.exchange(quick_request(), &reply, &transport_error))
      << transport_error;
  EXPECT_EQ(reply.status, PlanReply::Status::kRejected);
  EXPECT_EQ(reply.reject_reason, RejectReason::kQueueFull);
  ::close(hog);

  // Once the hog is gone the same request is served normally.
  for (int i = 0; i < 400 && fixture.server().stats().in_flight > 0; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  ASSERT_TRUE(client.exchange(quick_request(), &reply, &transport_error))
      << transport_error;
  EXPECT_EQ(reply.status, PlanReply::Status::kOk);
  EXPECT_GE(fixture.server().stats().rejected_queue_full, 1u);
}

// Deadline degradation (the server-side analogue of the re-plan deadline in
// health::HealthPolicy): an RL search whose modelled cost exceeds the
// request's budget degrades to the heuristic planner, deterministically.
TEST(PlanServerDeadline, ExhaustedDeadlineDegradesToHeuristicBitIdentically) {
  TempDir dir("deadline");
  ServerOptions options = unix_options(dir);
  options.events = nullptr;
  ServerFixture fixture(options);
  ClientOptions copts = fixture.client_options();

  PlanRequest request = quick_request();
  request.episodes = 10;       // would be an RL search...
  request.deadline_ms = 1.0;   // ...but the modelled cost blows this budget

  std::string first, second;
  ASSERT_TRUE(raw_reply_bytes(copts, encode_request(request), &first));
  ASSERT_TRUE(raw_reply_bytes(copts, encode_request(request), &second));
  // Bit-identical reply payloads across repeats — the degrade decision is
  // modelled, never measured, so nothing nondeterministic leaks into it.
  EXPECT_EQ(first, second);

  PlanReply reply;
  std::string error;
  ASSERT_TRUE(decode_reply(first, &reply, &error)) << error;
  ASSERT_EQ(reply.status, PlanReply::Status::kOk);
  EXPECT_TRUE(reply.degraded);

  // The degraded answer IS the heuristic plan (episodes ignored entirely).
  PlanRequest heuristic = quick_request();
  PlanReply heuristic_reply;
  std::string transport_error;
  PlanClient client(copts);
  ASSERT_TRUE(client.exchange(heuristic, &heuristic_reply, &transport_error))
      << transport_error;
  ASSERT_EQ(heuristic_reply.status, PlanReply::Status::kOk);
  EXPECT_EQ(reply.plan_text, heuristic_reply.plan_text);
  EXPECT_EQ(reply.per_iteration_ms, heuristic_reply.per_iteration_ms);
  EXPECT_FALSE(heuristic_reply.degraded);  // no deadline, no degrade

  // A generous deadline does not degrade.
  PlanRequest roomy = quick_request();
  roomy.episodes = 2;
  roomy.deadline_ms = 1e9;
  ASSERT_TRUE(client.exchange(roomy, &reply, &transport_error)) << transport_error;
  ASSERT_EQ(reply.status, PlanReply::Status::kOk);
  EXPECT_FALSE(reply.degraded);

  EXPECT_EQ(fixture.server().stats().degraded, 2u);
}

TEST(PlanServerDeadline, DegradeEmitsServerDegradedEvent) {
  TempDir dir("degrade_evt");
  obs::EventLog events((dir.path() / "events.jsonl").string());
  ASSERT_TRUE(events.ok());
  ServerOptions options = unix_options(dir);
  options.events = &events;
  {
    ServerFixture fixture(options);
    PlanRequest request = quick_request();
    request.episodes = 10;
    request.deadline_ms = 1.0;
    PlanClient client(fixture.client_options());
    PlanReply reply;
    std::string transport_error;
    ASSERT_TRUE(client.exchange(request, &reply, &transport_error))
        << transport_error;
    ASSERT_EQ(reply.status, PlanReply::Status::kOk);
    EXPECT_TRUE(reply.degraded);
  }
  const auto parsed = obs::read_events((dir.path() / "events.jsonl").string());
  int starts = 0, degraded = 0, requests = 0, drains = 0;
  for (const auto& event : parsed) {
    if (event.type == "server_start") ++starts;
    if (event.type == "server_degraded") ++degraded;
    if (event.type == "server_request") ++requests;
    if (event.type == "server_drain") ++drains;
  }
  EXPECT_EQ(starts, 1);
  EXPECT_EQ(degraded, 1);
  EXPECT_EQ(requests, 1);
  EXPECT_EQ(drains, 1);
}

// Drain -----------------------------------------------------------------------

TEST(PlanServerDrain, StopFinishesInFlightAndStopsAdmission) {
  TempDir dir("drain");
  ServerOptions options = unix_options(dir, (dir.path() / "store").string());
  ServerFixture fixture(options);
  ClientOptions copts = fixture.client_options();

  // A request in flight while the stop lands must still be answered.
  std::thread inflight([&] {
    PlanClient client(copts);
    PlanReply reply;
    std::string transport_error;
    ASSERT_TRUE(client.exchange(quick_request(), &reply, &transport_error))
        << transport_error;
    EXPECT_EQ(reply.status, PlanReply::Status::kOk);
  });
  // Give the request a moment to be admitted, then drain.
  for (int i = 0; i < 200 && fixture.server().stats().in_flight == 0; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  fixture.stop();
  inflight.join();

  const ServerStats stats = fixture.server().stats();
  EXPECT_EQ(stats.replies_ok, 1u);
  EXPECT_EQ(stats.in_flight, 0u);

  // The listener is gone: a new connection is refused outright.
  PlanClient late(copts);
  PlanReply reply;
  std::string transport_error;
  EXPECT_FALSE(late.exchange(quick_request(), &reply, &transport_error));
}

TEST(PlanServerDrain, ProcessShutdownFlagDrainsTheServer) {
  // request_shutdown() (the in-process stand-in for SIGTERM) must end run()
  // through the same drain path as request_stop().
  reset_shutdown_for_tests();
  TempDir dir("sig");
  ServerFixture fixture(unix_options(dir));
  PlanClient client(fixture.client_options());
  PlanReply reply;
  std::string transport_error;
  ASSERT_TRUE(client.exchange(quick_request(), &reply, &transport_error))
      << transport_error;
  request_shutdown();
  // run() notices within one poll tick; the fixture join must not hang.
  fixture.stop();
  reset_shutdown_for_tests();
  SUCCEED();
}

// Crash / restart -------------------------------------------------------------

TEST(PlanServerCrash, CleanRestartAnswersRepeatsBitIdentically) {
  TempDir dir("restart");
  const std::string store = (dir.path() / "store").string();
  const std::string payload = encode_request(quick_request());

  std::string first;
  {
    ServerFixture fixture(unix_options(dir, store));
    ASSERT_TRUE(raw_reply_bytes(fixture.client_options(), payload, &first));
  }
  std::string second;
  {
    ServerFixture fixture(unix_options(dir, store));
    ASSERT_TRUE(raw_reply_bytes(fixture.client_options(), payload, &second));
  }
  EXPECT_EQ(first, second);

  // The second server answered from the persistent store (read-through hits),
  // not by recomputing every evaluation.
  store::PlanStoreOptions ro;
  ro.dir = store;
  ro.read_only = true;
  store::PlanStore check(ro);
  EXPECT_GT(check.size(), 0u);
}

TEST(PlanServerCrash, Sigkill9MidServiceSelfHealsAndAnswersIdentically) {
  TempDir dir("kill9");
  const std::string store = (dir.path() / "store").string();
  const std::string socket_path = (dir.path() / "k.sock").string();
  const std::string payload = encode_request(quick_request());

  // Fork (single-threaded parent) a child server process, get one answer out
  // of it, then SIGKILL it at an arbitrary instant — no drain, no flush.
  const pid_t child = fork();
  ASSERT_GE(child, 0);
  if (child == 0) {
    ServerOptions options;
    options.unix_path = socket_path;
    options.threads = 2;
    options.store_dir = store;
    PlanServer server(std::move(options));
    server.run();  // killed mid-run; never exits cleanly
    _exit(0);
  }
  for (int i = 0; i < 500 && ::access(socket_path.c_str(), F_OK) != 0; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  ASSERT_EQ(::access(socket_path.c_str(), F_OK), 0) << "child server never bound";

  ClientOptions copts;
  copts.unix_path = socket_path;
  std::string first;
  ASSERT_TRUE(raw_reply_bytes(copts, payload, &first));

  ASSERT_EQ(::kill(child, SIGKILL), 0);
  int status = 0;
  ASSERT_EQ(::waitpid(child, &status, 0), child);
  ASSERT_TRUE(WIFSIGNALED(status));

  // Restart in-process on the same store: the killed writer's lock is taken
  // over, any torn journal tail self-heals, and the repeated request gets
  // byte-identical reply payloads.
  std::string second;
  {
    ServerFixture fixture(unix_options(dir, store));
    ASSERT_TRUE(raw_reply_bytes(fixture.client_options(), payload, &second));
  }
  EXPECT_EQ(first, second);
}

// Options validation ----------------------------------------------------------

TEST(ServerOptionsValidation, BadKnobsThrowTypedServerError) {
  EXPECT_THROW(ServerOptions{}.validate(), ServerError);  // no listener
  {
    ServerOptions options;
    options.tcp_port = 70000;
    EXPECT_THROW(options.validate(), ServerError);
  }
  {
    ServerOptions options;
    options.tcp_port = 0;
    options.threads = 0;
    EXPECT_THROW(options.validate(), ServerError);
  }
  {
    ServerOptions options;
    options.tcp_port = 0;
    options.read_timeout_ms = 0;
    EXPECT_THROW(options.validate(), ServerError);
  }
  {
    ServerOptions options;
    options.unix_path = std::string(200, 'x');  // longer than sun_path
    EXPECT_THROW(PlanServer{std::move(options)}, ServerError);
  }
}

TEST(ServerOptionsValidation, TcpEphemeralPortIsReportedBack) {
  ServerOptions options;
  options.tcp_port = 0;
  options.threads = 1;
  ServerFixture fixture(std::move(options));
  EXPECT_GT(fixture.server().tcp_port(), 0);

  ClientOptions copts;
  copts.tcp_port = fixture.server().tcp_port();
  PlanClient client(copts);
  PlanReply reply;
  std::string transport_error;
  ASSERT_TRUE(client.exchange(quick_request(), &reply, &transport_error))
      << transport_error;
  EXPECT_EQ(reply.status, PlanReply::Status::kOk);
}

}  // namespace
}  // namespace heterog::server
