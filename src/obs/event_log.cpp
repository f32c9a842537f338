#include "obs/event_log.h"

#include <algorithm>
#include <cstdio>
#include <optional>

#include "common/check.h"
#include "common/record_io.h"

namespace heterog::obs {

namespace {

void append_escaped(std::string& out, const std::string& value) {
  out += '"';
  for (const char c : value) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buffer[8];
          std::snprintf(buffer, sizeof(buffer), "\\u%04x", c);
          out += buffer;
        } else {
          out += c;
        }
    }
  }
  out += '"';
}

}  // namespace

const std::vector<std::string>& all_event_types() {
  // The emit-side schema. Adding a type here without a matching section in
  // docs/observability.md fails
  // tests/obs_test.cpp:Docs.ObservabilityDocCoversExactlyTheEventVocabulary.
  static const std::vector<std::string> types = {
      // Strategy search (rl::Trainer).
      "search_start", "search_phase", "search_episode", "search_end",
      "pretrain_round",
      // Fault/checkpoint runner (heterog::DistRunner).
      "run_start", "run_step", "run_retry", "run_recovery", "run_checkpoint",
      "run_end",
      // Deployed-schedule statistics (heterog::get_runner, heterog_cli
      // evaluate).
      "schedule", "device_utilization", "link_utilization",
      // Online health monitoring (health::HealthMonitor, heterog::DistRunner
      // degraded re-planning).
      "suspicion", "quarantine", "breaker_open", "degraded_replan",
      // Correlated fault domains: a rack burst attributed by the monitor and
      // the runner's one-shot domain-wide replan.
      "domain_suspicion", "domain_replan",
      // Persistent plan/eval store (store::PlanStore).
      "store_open", "store_quarantine",
      // Plan server (server::PlanServer): lifecycle, per-request outcomes,
      // typed rejections, deadline degradation and graceful drain.
      "server_start", "server_request", "server_reject", "server_degraded",
      "server_drain",
  };
  return types;
}

Event::Event(const std::string& type) : type_(type) {
  const auto& types = all_event_types();
  check_lazy(std::find(types.begin(), types.end(), type) != types.end(),
             [&] { return "Event: undocumented event type '" + type + "'"; });
}

Event& Event::with(const std::string& key, int64_t value) {
  Field f;
  f.key = key;
  f.kind = Kind::kInt;
  f.int_value = value;
  fields_.push_back(std::move(f));
  return *this;
}

Event& Event::with(const std::string& key, int value) {
  return with(key, static_cast<int64_t>(value));
}

Event& Event::with(const std::string& key, uint64_t value) {
  return with(key, static_cast<int64_t>(value));
}

Event& Event::with(const std::string& key, double value) {
  Field f;
  f.key = key;
  f.kind = Kind::kDouble;
  f.double_value = value;
  fields_.push_back(std::move(f));
  return *this;
}

Event& Event::with(const std::string& key, bool value) {
  Field f;
  f.key = key;
  f.kind = Kind::kBool;
  f.bool_value = value;
  fields_.push_back(std::move(f));
  return *this;
}

Event& Event::with(const std::string& key, const std::string& value) {
  Field f;
  f.key = key;
  f.kind = Kind::kString;
  f.string_value = value;
  fields_.push_back(std::move(f));
  return *this;
}

Event& Event::with(const std::string& key, const char* value) {
  return with(key, std::string(value));
}

std::string Event::to_json(uint64_t seq) const {
  std::string out = "{\"v\":" + std::to_string(EventLog::kSchemaVersion) +
                    ",\"seq\":" + std::to_string(seq) + ",\"type\":";
  append_escaped(out, type_);
  for (const Field& f : fields_) {
    out += ',';
    append_escaped(out, f.key);
    out += ':';
    switch (f.kind) {
      case Kind::kInt: out += std::to_string(f.int_value); break;
      case Kind::kDouble: out += format_shortest(f.double_value); break;
      case Kind::kBool: out += f.bool_value ? "true" : "false"; break;
      case Kind::kString: append_escaped(out, f.string_value); break;
    }
  }
  out += '}';
  return out;
}

EventLog::EventLog(const std::string& path) : path_(path) {
  file_ = std::fopen(path.c_str(), "w");
}

EventLog::~EventLog() {
  if (file_ != nullptr) std::fclose(file_);
}

void EventLog::emit(const Event& event) {
  std::lock_guard<std::mutex> lock(mu_);
  if (file_ == nullptr) return;
  const std::string line = event.to_json(seq_++);
  std::fwrite(line.data(), 1, line.size(), file_);
  std::fputc('\n', file_);
  std::fflush(file_);
}

void EventLog::flush() {
  std::lock_guard<std::mutex> lock(mu_);
  if (file_ != nullptr) std::fflush(file_);
}

uint64_t EventLog::events_emitted() const {
  std::lock_guard<std::mutex> lock(mu_);
  return seq_;
}

double ParsedEvent::number(const std::string& key, double fallback) const {
  const auto it = fields.find(key);
  if (it == fields.end()) return fallback;
  // Booleans count as numbers for aggregation (true=1, false=0).
  if (it->second == "true") return 1.0;
  if (it->second == "false") return 0.0;
  double value = 0.0;
  return read_number(it->second, &value) ? value : fallback;
}

std::string ParsedEvent::str(const std::string& key) const {
  const auto it = fields.find(key);
  return it != fields.end() ? it->second : std::string();
}

namespace {

// Minimal parser for the flat one-line objects the writer emits. `pos` is
// advanced past the parsed token; any deviation throws EventLogError with
// the line number for context.
[[noreturn]] void parse_fail(int line_no, const std::string& why) {
  throw EventLogError("event log line " + std::to_string(line_no) + ": " + why);
}

void skip_ws(const std::string& s, size_t& pos) {
  while (pos < s.size() && (s[pos] == ' ' || s[pos] == '\t')) ++pos;
}

std::string parse_string(const std::string& s, size_t& pos, int line_no) {
  if (pos >= s.size() || s[pos] != '"') parse_fail(line_no, "expected string");
  ++pos;
  std::string out;
  while (pos < s.size() && s[pos] != '"') {
    char c = s[pos++];
    if (c == '\\') {
      if (pos >= s.size()) parse_fail(line_no, "dangling escape");
      const char esc = s[pos++];
      switch (esc) {
        case '"': out += '"'; break;
        case '\\': out += '\\'; break;
        case '/': out += '/'; break;
        case 'n': out += '\n'; break;
        case 'r': out += '\r'; break;
        case 't': out += '\t'; break;
        case 'u': {
          if (pos + 4 > s.size()) parse_fail(line_no, "short \\u escape");
          unsigned code = 0;
          for (int i = 0; i < 4; ++i) {
            const char h = s[pos++];
            code <<= 4;
            if (h >= '0' && h <= '9') code |= static_cast<unsigned>(h - '0');
            else if (h >= 'a' && h <= 'f') code |= static_cast<unsigned>(h - 'a' + 10);
            else if (h >= 'A' && h <= 'F') code |= static_cast<unsigned>(h - 'A' + 10);
            else parse_fail(line_no, "bad \\u escape");
          }
          if (code < 0x80) {
            out += static_cast<char>(code);
          } else {
            // The writer only emits \u for control chars; anything else in
            // a hand-edited file is preserved as UTF-8 (2-byte range).
            out += static_cast<char>(0xC0 | (code >> 6));
            out += static_cast<char>(0x80 | (code & 0x3F));
          }
          break;
        }
        default: parse_fail(line_no, "unknown escape");
      }
    } else {
      out += c;
    }
  }
  if (pos >= s.size()) parse_fail(line_no, "unterminated string");
  ++pos;  // closing quote
  return out;
}

/// A string, or an unquoted `true`, `false` or number read in full (the
/// writer's `inf`, `-inf` and `nan` included). *quoted tells them apart.
std::string parse_scalar(const std::string& s, size_t& pos, int line_no, bool* quoted) {
  skip_ws(s, pos);
  if (pos >= s.size()) parse_fail(line_no, "missing value");
  *quoted = s[pos] == '"';
  if (*quoted) return parse_string(s, pos, line_no);
  if (s[pos] == '{' || s[pos] == '[') {
    parse_fail(line_no, "nested values are not part of the v1 schema");
  }
  const size_t start = pos;
  while (pos < s.size() && s[pos] != ',' && s[pos] != '}') ++pos;
  std::string out = s.substr(start, pos - start);
  while (!out.empty() && (out.back() == ' ' || out.back() == '\t')) out.pop_back();
  if (out.empty()) parse_fail(line_no, "empty value");
  double number = 0.0;
  if (out != "true" && out != "false" && !read_number(out, &number)) {
    parse_fail(line_no, "malformed value " + out);
  }
  return out;
}

ParsedEvent parse_line(const std::string& line, int line_no) {
  size_t pos = 0;
  skip_ws(line, pos);
  if (pos >= line.size() || line[pos] != '{') parse_fail(line_no, "expected '{'");
  ++pos;
  ParsedEvent event;
  bool first = true;
  while (true) {
    skip_ws(line, pos);
    if (pos < line.size() && line[pos] == '}') {
      ++pos;
      break;
    }
    if (!first) {
      if (pos >= line.size() || line[pos] != ',') parse_fail(line_no, "expected ','");
      ++pos;
      skip_ws(line, pos);
    }
    first = false;
    const std::string key = parse_string(line, pos, line_no);
    skip_ws(line, pos);
    if (pos >= line.size() || line[pos] != ':') parse_fail(line_no, "expected ':'");
    ++pos;
    bool quoted = false;
    const std::string value = parse_scalar(line, pos, line_no, &quoted);
    if (key == "v") {
      if (quoted || !read_number(value, &event.version)) {
        parse_fail(line_no, "malformed schema version " + value);
      }
    } else if (key == "seq") {
      if (quoted || !read_number(value, &event.seq)) {
        parse_fail(line_no, "malformed seq " + value);
      }
    } else if (key == "type") {
      event.type = value;
    } else {
      event.fields[key] = value;
    }
  }
  skip_ws(line, pos);
  if (pos != line.size()) parse_fail(line_no, "trailing garbage after object");
  if (event.version <= 0 || event.version > EventLog::kSchemaVersion) {
    parse_fail(line_no, "unsupported schema version " + std::to_string(event.version));
  }
  if (event.type.empty()) parse_fail(line_no, "missing \"type\"");
  return event;
}

}  // namespace

std::vector<ParsedEvent> read_events(const std::string& path) {
  const std::optional<std::string> text = read_file(path);
  if (!text) throw EventLogError("cannot read " + path);
  const std::string& content = *text;

  std::vector<ParsedEvent> events;
  size_t start = 0;
  int line_no = 0;
  while (start < content.size()) {
    size_t end = content.find('\n', start);
    if (end == std::string::npos) end = content.size();
    ++line_no;
    std::string line = content.substr(start, end - start);
    if (!line.empty() && line.back() == '\r') line.pop_back();
    if (!line.empty()) events.push_back(parse_line(line, line_no));
    start = end + 1;
  }
  return events;
}

}  // namespace heterog::obs
