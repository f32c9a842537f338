// plan_client — command-line client for the plan server (docs/server.md).
// Run without arguments for its flags, declared in tools/cli.cpp.
//
// Prints the reply: headline metrics on stdout, the plan text after it.
// Exit codes tell scripts exactly what happened:
//   0 — ok reply (including deadline-degraded answers: the server answered)
//   1 — bad usage
//   2 — transport failure (cannot connect, timeout, malformed reply)
//   3 — server rejected the request (queue full, draining, frame-level)
//   4 — server error reply (unknown model/cluster, planner failure)
#include <cstdio>
#include <string>

#include "cli.h"
#include "server/plan_client.h"

int main(int argc, char** argv) {
  using namespace heterog::server;
  heterog::FlagValues flags;
  try {
    flags = heterog::cli::plan_client_flags().parse({argv + 1, argv + argc});
    if (!flags.has("socket") && !flags.has("port")) {
      throw heterog::UsageError("needs --socket PATH or --port N");
    }
  } catch (const heterog::UsageError& e) {
    if (argc == 1) {
      std::fprintf(stderr, "usage: plan_client %s\n",
                   heterog::cli::plan_client_flags().usage(19).c_str());
    } else {
      std::fprintf(stderr, "error: plan_client: %s\n", e.what());
    }
    return 1;
  }

  ClientOptions copts;
  copts.unix_path = flags.text("socket");
  if (flags.has("port")) copts.tcp_port = flags.integer<int>("port");
  copts.timeout_ms = flags.integer<int>("timeout-ms");
  PlanRequest request;
  request.model = flags.text("model");
  request.batch = flags.real("batch");
  request.cluster = flags.text("cluster");
  if (flags.has("layers")) request.layers = flags.integer<int>("layers");
  request.episodes = flags.integer<int>("episodes");
  request.deadline_ms = flags.real("deadline-ms");
  request.seed = flags.integer<uint64_t>("seed");

  PlanClient client(copts);
  PlanReply reply;
  std::string transport_error;
  if (!client.exchange(request, &reply, &transport_error)) {
    std::fprintf(stderr, "transport error: %s\n", transport_error.c_str());
    return 2;
  }

  switch (reply.status) {
    case PlanReply::Status::kRejected:
      std::fprintf(stderr, "rejected: %s\n", reject_reason_name(reply.reject_reason));
      return 3;
    case PlanReply::Status::kError:
      std::fprintf(stderr, "server error: %s\n", reply.error.c_str());
      return 4;
    case PlanReply::Status::kOk:
      break;
  }

  std::printf("plan: %.2f ms / iteration, feasible=%s, degraded=%s\n",
              reply.per_iteration_ms, reply.feasible ? "yes" : "no",
              reply.degraded ? "yes" : "no");
  if (!flags.has("quiet")) std::printf("%s", reply.plan_text.c_str());
  return 0;
}
