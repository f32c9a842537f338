#include "common/record_io.h"

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <sstream>

#include "common/crc32.h"

namespace heterog {

namespace {

constexpr std::string_view kRecPrefix = "rec ";

/// A bounded non-negative decimal of at most 20 digits; false on empty
/// input, non-digits, or a value above `max`.
bool parse_bounded(std::string_view text, size_t max, size_t* out) {
  size_t value = 0;
  if (text.size() > 20 || !read_number(text, &value) || value > max) return false;
  *out = value;
  return true;
}

bool is_space(char c) {
  return c == ' ' || c == '\t' || c == '\r' || c == '\n' || c == '\v' || c == '\f';
}

std::string quoted(std::string_view token) {
  return "\"" + std::string(token) + "\"";
}

}  // namespace

FrameHeaderStatus parse_frame_header(std::string_view line, size_t max_payload,
                                     size_t min_payload, FrameHeader* out) {
  if (line.substr(0, kRecPrefix.size()) != kRecPrefix) {
    return FrameHeaderStatus::kBadMagic;
  }
  const std::string_view fields = line.substr(kRecPrefix.size());
  const size_t space = fields.find(' ');
  if (space == std::string_view::npos) return FrameHeaderStatus::kMissingCrc;
  size_t len = 0;
  if (!parse_bounded(fields.substr(0, space), SIZE_MAX / 16, &len)) {
    return FrameHeaderStatus::kBadLength;
  }
  // Cap checks come after syntactic validity but before anything is
  // allocated: the declared length is attacker-controlled.
  if (len > max_payload) return FrameHeaderStatus::kOversized;
  if (len < min_payload) return FrameHeaderStatus::kZeroLength;
  const std::string_view crc = fields.substr(space + 1);
  if (crc.size() != 8) return FrameHeaderStatus::kBadCrcField;
  for (const char c : crc) {
    const bool hex = (c >= '0' && c <= '9') || (c >= 'a' && c <= 'f');
    if (!hex) return FrameHeaderStatus::kBadCrcField;
  }
  out->payload_len = len;
  out->crc_hex.assign(crc.data(), crc.size());
  return FrameHeaderStatus::kOk;
}

const char* frame_header_status_name(FrameHeaderStatus status) {
  switch (status) {
    case FrameHeaderStatus::kOk: return "ok";
    case FrameHeaderStatus::kBadMagic: return "missing \"rec\" frame header";
    case FrameHeaderStatus::kMissingCrc: return "frame header missing checksum";
    case FrameHeaderStatus::kBadLength: return "bad or overflowing payload length";
    case FrameHeaderStatus::kZeroLength: return "zero-length payload";
    case FrameHeaderStatus::kOversized: return "oversized payload length";
    case FrameHeaderStatus::kBadCrcField: return "malformed checksum field";
  }
  return "unknown";
}

bool verify_frame_payload(const FrameHeader& header, std::string_view payload) {
  return payload.size() == header.payload_len &&
         header.crc_hex == crc32_hex(crc32(payload));
}

std::string frame_record(std::string_view payload) {
  std::string out = "rec ";
  out += std::to_string(payload.size());
  out += ' ';
  out += crc32_hex(crc32(payload));
  out += '\n';
  out.append(payload.data(), payload.size());
  out += '\n';
  return out;
}

ScannedRecord RecordScanner::next() {
  ScannedRecord rec;
  if (pos_ >= data_.size()) {
    rec.status = ScannedRecord::Status::kEnd;
    return rec;
  }
  const size_t start = pos_;
  rec.offset = start;

  // On any framing failure, skip to the next "\nrec " boundary (or the end)
  // so one damaged record never swallows its intact successors.
  const auto corrupt = [&](const char* why) {
    const size_t next_frame = data_.find("\nrec ", start);
    const size_t resume = next_frame == std::string_view::npos
                              ? data_.size()
                              : next_frame + 1;  // past the '\n'
    pos_ = resume > start ? resume : data_.size();
    rec.status = ScannedRecord::Status::kCorrupt;
    rec.length = pos_ - start;
    rec.reason = why;
    return rec;
  };

  const size_t header_end = data_.find('\n', start);
  if (header_end == std::string_view::npos) {
    return corrupt("truncated frame header");
  }
  // Shared typed header parse (also the server's socket-read path): the
  // declared length is validated against the cap before the payload is even
  // located. Journals may legitimately carry empty payloads (min 0).
  FrameHeader header;
  const FrameHeaderStatus status = parse_frame_header(
      data_.substr(start, header_end - start), max_payload_, 0, &header);
  if (status != FrameHeaderStatus::kOk) {
    return corrupt(frame_header_status_name(status));
  }
  const size_t len = header.payload_len;
  const size_t payload_start = header_end + 1;
  if (payload_start + len + 1 > data_.size()) {
    return corrupt("truncated payload");
  }
  if (data_[payload_start + len] != '\n') {
    return corrupt("missing record terminator");
  }
  const std::string_view payload = data_.substr(payload_start, len);
  // String comparison, mirroring the journal trailer: a flip inside the
  // stored checksum itself is still a mismatch.
  if (!verify_frame_payload(header, payload)) {
    return corrupt("payload checksum mismatch");
  }
  pos_ = payload_start + len + 1;
  rec.status = ScannedRecord::Status::kOk;
  rec.payload = payload;
  rec.length = pos_ - start;
  return rec;
}

std::string with_crc_trailer(std::string body) {
  body += "crc " + crc32_hex(crc32(body)) + "\n";
  return body;
}

CrcTrailerResult strip_crc_trailer(const std::string& text) {
  CrcTrailerResult r;
  const auto fail = [&](std::string why) {
    r.ok = false;
    r.error = std::move(why);
    return r;
  };
  // Strict framing: writers always end in a newline, so a document that
  // doesn't has lost at least its final byte.
  if (text.empty() || text.back() != '\n') {
    return fail("does not end in a newline");
  }
  std::string trimmed = text;
  trimmed.pop_back();
  const size_t nl = trimmed.find_last_of('\n');
  const std::string last = nl == std::string::npos ? trimmed : trimmed.substr(nl + 1);
  if (last.rfind("crc ", 0) != 0) return fail("missing crc trailer line");
  if (nl == std::string::npos) return fail("document is only a crc line");
  std::string body = text.substr(0, nl + 1);
  const std::string expected = crc32_hex(crc32(body));
  if (last.substr(4) != expected) {
    return fail("checksum mismatch (stored \"" + last.substr(4) + "\", computed \"" +
                expected + "\") — the document is corrupt or was torn mid-write");
  }
  r.ok = true;
  r.body = std::move(body);
  return r;
}

std::string format_double(double v) {
  char buf[32];
  const int n = std::snprintf(buf, sizeof(buf), "%.17g", v);
  return std::string(buf, static_cast<size_t>(n));
}

std::string format_shortest(double v) {
  for (int precision = 1; precision <= 16; ++precision) {
    char buf[32];
    const int n = std::snprintf(buf, sizeof(buf), "%.*g", precision, v);
    double parsed = 0.0;
    if (read_number(std::string_view(buf, static_cast<size_t>(n)), &parsed) &&
        parsed == v) {
      return std::string(buf, static_cast<size_t>(n));
    }
  }
  return format_double(v);
}

void Fields::fail(const std::string& why) const {
  if (line_no_ > 0) throw ParseError("line " + std::to_string(line_no_) + ": " + why);
  throw ParseError(why);
}

void Fields::malformed(std::string_view what, std::string_view token) const {
  fail("malformed " + std::string(what) + " " + quoted(token));
}

bool Fields::done() {
  while (pos_ < line_.size() && is_space(line_[pos_])) ++pos_;
  return pos_ >= line_.size();
}

std::string_view Fields::word(std::string_view what) {
  if (done()) fail("missing " + std::string(what));
  const size_t start = pos_;
  while (pos_ < line_.size() && !is_space(line_[pos_])) ++pos_;
  return line_.substr(start, pos_ - start);
}

double Fields::real(std::string_view what) {
  const std::string_view token = word(what);
  double value = 0.0;
  if (!read_number(token, &value)) malformed(what, token);
  return value;
}

bool Fields::flag(std::string_view what) {
  const std::string_view token = word(what);
  if (token != "0" && token != "1") malformed(what, token);
  return token == "1";
}

std::string_view Fields::rest() {
  if (pos_ < line_.size()) ++pos_;  // the one separator
  const std::string_view text = line_.substr(pos_);
  pos_ = line_.size();
  return text;
}

void Fields::finish() {
  if (!done()) fail("trailing garbage " + quoted(line_.substr(pos_)));
}

std::string_view LineCursor::peek() const {
  const size_t nl = text_.find('\n', pos_);
  return text_.substr(pos_, nl == std::string_view::npos ? nl : nl - pos_);
}

bool LineCursor::at(std::string_view key) const {
  if (done()) return false;
  Fields fields(peek());
  return !fields.done() && fields.word("key") == key;
}

std::string_view LineCursor::next() {
  if (done()) {
    throw ParseError("line " + std::to_string(line_no_ + 1) + ": unexpected end");
  }
  const std::string_view line = peek();
  pos_ = std::min(pos_ + line.size() + 1, text_.size());
  ++line_no_;
  return line;
}

Fields LineCursor::field(std::string_view key) {
  const std::string_view text = next();
  Fields fields(text, line_no_);
  if (fields.done() || fields.word("key") != key) {
    throw ParseError("line " + std::to_string(line_no_) + ": expected \"" +
                     std::string(key) + " ...\", got " + quoted(text));
  }
  return fields;
}

void LineCursor::expect(std::string_view literal) {
  const std::string_view text = next();
  if (text != literal) {
    throw ParseError("line " + std::to_string(line_no_) + ": expected " +
                     quoted(literal) + ", got " + quoted(text));
  }
}

double LineCursor::real(std::string_view key) {
  Fields fields = field(key);
  const double value = fields.real(key);
  fields.finish();
  return value;
}

bool LineCursor::flag(std::string_view key) {
  Fields fields = field(key);
  const bool value = fields.flag(key);
  fields.finish();
  return value;
}

std::string LineCursor::block(std::string_view key, size_t max_lines) {
  const size_t lines = integer<size_t>(key, 0, max_lines);
  std::string out;
  for (size_t i = 0; i < lines; ++i) {
    const std::string_view text = next();
    out.append(text.data(), text.size());
    out += '\n';
  }
  return out;
}

void LineCursor::finish() const {
  if (!done()) {
    throw ParseError("line " + std::to_string(line_no_ + 1) + ": trailing garbage " +
                     quoted(peek()));
  }
}

void append_block(std::string& out, std::string_view key, std::string_view text) {
  size_t lines = 0;
  for (const char c : text) lines += c == '\n';
  const bool open_last_line = !text.empty() && text.back() != '\n';
  out.append(key.data(), key.size());
  out += ' ';
  out += std::to_string(lines + (open_last_line ? 1 : 0));
  out += '\n';
  out.append(text.data(), text.size());
  if (open_last_line) out += '\n';
}

std::optional<std::string> read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return std::nullopt;
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return std::move(buffer).str();
}

}  // namespace heterog
