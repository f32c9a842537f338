#include "server/protocol.h"

#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cmath>
#include <cstring>

#include "common/record_io.h"

namespace heterog::server {

namespace {

constexpr std::string_view kRequestMagic = "heterog-rpc v1 request";
constexpr std::string_view kReplyMagic = "heterog-rpc v1 reply";

bool fail(std::string* error, std::string why) {
  *error = std::move(why);
  return false;
}

}  // namespace

const char* reject_reason_name(RejectReason reason) {
  switch (reason) {
    case RejectReason::kMalformedFrame: return "malformed_frame";
    case RejectReason::kOversizedFrame: return "oversized_frame";
    case RejectReason::kQueueFull: return "queue_full";
    case RejectReason::kDraining: return "draining";
    case RejectReason::kSlowClient: return "slow_client";
  }
  return "unknown";
}

bool parse_reject_reason(std::string_view token, RejectReason* out) {
  for (const RejectReason reason :
       {RejectReason::kMalformedFrame, RejectReason::kOversizedFrame,
        RejectReason::kQueueFull, RejectReason::kDraining,
        RejectReason::kSlowClient}) {
    if (token == reject_reason_name(reason)) {
      *out = reason;
      return true;
    }
  }
  return false;
}

std::string encode_request(const PlanRequest& request) {
  std::string out(kRequestMagic);
  out += '\n';
  out += "model " + request.model + '\n';
  out += "layers " + std::to_string(request.layers) + '\n';
  out += "batch " + format_double(request.batch) + '\n';
  out += "cluster " + request.cluster + '\n';
  out += "episodes " + std::to_string(request.episodes) + '\n';
  out += "deadline_ms " + format_double(request.deadline_ms) + '\n';
  out += "seed " + std::to_string(request.seed) + '\n';
  return out;
}

bool decode_request(std::string_view payload, PlanRequest* out, std::string* error) {
  try {
    LineCursor in(payload);
    in.expect(kRequestMagic);
    PlanRequest req;
    bool saw_model = false, saw_batch = false;
    while (!in.done()) {
      Fields f = in.line();
      const std::string_view key = f.word("request key");
      if (key == "model") {
        req.model = f.word("model name");
        saw_model = true;
      } else if (key == "layers") {
        req.layers = f.integer("layers", -1, 4096);
      } else if (key == "batch") {
        req.batch = f.real("batch");
        if (!(req.batch > 0.0) || !(req.batch < 1e9)) {
          return fail(error, "bad batch (need 0 < batch < 1e9)");
        }
        saw_batch = true;
      } else if (key == "cluster") {
        req.cluster = f.word("cluster name");
      } else if (key == "episodes") {
        req.episodes = f.integer("episodes", 0, 1'000'000);
      } else if (key == "deadline_ms") {
        req.deadline_ms = f.real("deadline_ms");
        if (std::isnan(req.deadline_ms) || req.deadline_ms > 1e15) {
          return fail(error, "bad deadline_ms");
        }
      } else if (key == "seed") {
        req.seed = f.integer<uint64_t>("seed");
      } else {
        return fail(error, "unknown request key \"" + std::string(key) + "\"");
      }
      f.finish();
    }
    if (!saw_model) return fail(error, "request missing model");
    if (!saw_batch) return fail(error, "request missing batch");
    *out = std::move(req);
    return true;
  } catch (const ParseError& e) {
    return fail(error, e.what());
  }
}

std::string encode_reply(const PlanReply& reply) {
  std::string out(kReplyMagic);
  out += '\n';
  switch (reply.status) {
    case PlanReply::Status::kOk: {
      out += "status ok\n";
      out += "degraded " + std::string(reply.degraded ? "1" : "0") + '\n';
      out += "feasible " + std::string(reply.feasible ? "1" : "0") + '\n';
      out += "per_iteration_ms " + format_double(reply.per_iteration_ms) + '\n';
      append_block(out, "plan_lines", reply.plan_text);
      break;
    }
    case PlanReply::Status::kRejected:
      out += "status rejected\n";
      out += "reason " + std::string(reject_reason_name(reply.reject_reason)) + '\n';
      break;
    case PlanReply::Status::kError:
      out += "status error\n";
      out += "message " +
             (reply.error.empty() ? std::string("planning failed") : reply.error) +
             '\n';
      break;
  }
  return out;
}

bool decode_reply(std::string_view payload, PlanReply* out, std::string* error) {
  try {
    LineCursor in(payload);
    in.expect(kReplyMagic);
    PlanReply reply;
    Fields status_line = in.field("status");
    const std::string_view status = status_line.word("reply status");
    status_line.finish();
    if (status == "rejected") {
      reply.status = PlanReply::Status::kRejected;
      Fields f = in.field("reason");
      const std::string_view reason = f.word("reject reason");
      f.finish();
      if (!parse_reject_reason(reason, &reply.reject_reason)) {
        return fail(error, "rejected reply missing a known reason");
      }
    } else if (status == "error") {
      reply.status = PlanReply::Status::kError;
      reply.error = in.rest("message");
    } else if (status == "ok") {
      reply.status = PlanReply::Status::kOk;
      while (!in.at("plan_lines")) {
        Fields f = in.line();
        const std::string_view key = f.word("reply key");
        if (key == "degraded") {
          reply.degraded = f.flag("degraded flag");
        } else if (key == "feasible") {
          reply.feasible = f.flag("feasible flag");
        } else if (key == "per_iteration_ms") {
          reply.per_iteration_ms = f.real("per_iteration_ms");
        } else {
          return fail(error, "unknown reply key \"" + std::string(key) + "\"");
        }
        f.finish();
      }
      // Each plan line is at least two bytes on the wire, so a count beyond
      // the payload cap is a lie.
      reply.plan_text = in.block("plan_lines", kMaxReplyPayload);
    } else {
      return fail(error, "unknown reply status");
    }
    in.finish();
    *out = std::move(reply);
    return true;
  } catch (const ParseError& e) {
    return fail(error, e.what());
  }
}

namespace {

/// Waits for readability within the remaining budget; false on timeout.
bool wait_readable(int fd, std::chrono::steady_clock::time_point deadline) {
  for (;;) {
    const auto now = std::chrono::steady_clock::now();
    if (now >= deadline) return false;
    const auto remaining =
        std::chrono::duration_cast<std::chrono::milliseconds>(deadline - now);
    struct pollfd pfd = {fd, POLLIN, 0};
    const int rc = ::poll(&pfd, 1, static_cast<int>(remaining.count()) + 1);
    if (rc > 0) return true;
    if (rc == 0) return false;
    if (errno != EINTR) return false;
  }
}

/// Reads up to `want` more bytes into `buffer`. Returns -1 on error, 0 on
/// EOF, else the byte count.
ssize_t read_some(int fd, std::string* buffer, size_t want) {
  char chunk[4096];
  const size_t n = want < sizeof(chunk) ? want : sizeof(chunk);
  const ssize_t got = ::recv(fd, chunk, n, 0);
  if (got > 0) buffer->append(chunk, static_cast<size_t>(got));
  return got;
}

}  // namespace

FrameReadStatus read_frame(int fd, size_t max_payload, int timeout_ms,
                           std::string* payload, std::string* error) {
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::milliseconds(timeout_ms);
  std::string buffer;

  // Phase 1: the header line, bounded at kMaxFrameHeaderBytes.
  size_t newline = std::string::npos;
  for (;;) {
    newline = buffer.find('\n');
    if (newline != std::string::npos) break;
    if (buffer.size() >= kMaxFrameHeaderBytes) {
      *error = "frame header exceeds " + std::to_string(kMaxFrameHeaderBytes) +
               " bytes without a newline";
      return FrameReadStatus::kMalformed;
    }
    if (!wait_readable(fd, deadline)) return FrameReadStatus::kTimeout;
    const ssize_t got = read_some(fd, &buffer, kMaxFrameHeaderBytes - buffer.size());
    if (got == 0) return FrameReadStatus::kEof;
    if (got < 0) {
      if (errno == EINTR || errno == EAGAIN || errno == EWOULDBLOCK) continue;
      *error = std::strerror(errno);
      return FrameReadStatus::kIoError;
    }
  }

  // The declared length is validated (including against the cap) before the
  // payload buffer is ever sized — the adversarial-length contract. The wire
  // requires a non-empty payload: no valid message encodes to zero bytes.
  FrameHeader header;
  const FrameHeaderStatus status = parse_frame_header(
      std::string_view(buffer).substr(0, newline), max_payload, 1, &header);
  if (status == FrameHeaderStatus::kOversized) {
    *error = frame_header_status_name(status);
    return FrameReadStatus::kOversized;
  }
  if (status != FrameHeaderStatus::kOk) {
    *error = frame_header_status_name(status);
    return FrameReadStatus::kMalformed;
  }

  // Phase 2: payload + terminating newline.
  buffer.erase(0, newline + 1);
  const size_t want_total = header.payload_len + 1;
  buffer.reserve(want_total);
  while (buffer.size() < want_total) {
    if (!wait_readable(fd, deadline)) return FrameReadStatus::kTimeout;
    const ssize_t got = read_some(fd, &buffer, want_total - buffer.size());
    if (got == 0) return FrameReadStatus::kEof;
    if (got < 0) {
      if (errno == EINTR || errno == EAGAIN || errno == EWOULDBLOCK) continue;
      *error = std::strerror(errno);
      return FrameReadStatus::kIoError;
    }
  }
  if (buffer[header.payload_len] != '\n') {
    *error = "missing record terminator";
    return FrameReadStatus::kMalformed;
  }
  buffer.pop_back();
  if (!verify_frame_payload(header, buffer)) {
    *error = "payload checksum mismatch";
    return FrameReadStatus::kMalformed;
  }
  *payload = std::move(buffer);
  return FrameReadStatus::kOk;
}

bool write_frame(int fd, std::string_view payload) {
  return write_raw(fd, frame_record(payload));
}

bool write_raw(int fd, std::string_view bytes) {
  size_t sent = 0;
  while (sent < bytes.size()) {
    const ssize_t n =
        ::send(fd, bytes.data() + sent, bytes.size() - sent, MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    sent += static_cast<size_t>(n);
  }
  return true;
}

}  // namespace heterog::server
