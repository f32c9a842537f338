// The text grammar and CRC framing shared by every line-oriented format:
// the run journal, health-monitor state, plan-store records, RPC frames and
// plan files (docs/persistence.md "Text grammar").
//
//  1. Per-record framing — each record is
//         "rec <payload-len> <crc32-hex>\n" <payload> "\n"
//     (length-prefixed so binary payloads survive, CRC over the payload so a
//     torn append or bit flip is detected per record, not per file). A
//     RecordScanner walks a byte buffer record by record and *resynchronises*
//     after corruption: a bad frame is reported with its extent and reason,
//     and scanning resumes at the next "\nrec " boundary — one flipped byte
//     quarantines one record, not the rest of the journal. Used by
//     store::PlanStore and the plan server's wire protocol.
//
//  2. Whole-document CRC trailer — "crc <hex>\n" as the final line, verified
//     (by string comparison, so flips inside the stored checksum are caught
//     too) before any field of the document is parsed. Used by the run
//     journal and the v2 plan format.
//
//  3. Text records — one number writer (17 significant digits, plus the
//     shortest round-trip form the event log and metrics use), full-token
//     number reads, a line cursor with line-counted blocks, and one
//     whole-file read. Every reader throws ParseError, which each loader
//     rethrows as its own typed error.
#pragma once

#include <charconv>
#include <cstddef>
#include <limits>
#include <optional>
#include <stdexcept>
#include <string>
#include <string_view>
#include <system_error>

namespace heterog {

/// Hard ceiling on a framed record's payload: a crafted length prefix must
/// not be able to drive a gigantic allocation. Generous next to the store's
/// sub-kilobyte eval records.
inline constexpr size_t kMaxRecordPayload = 16u << 20;  // 16 MiB

/// Frames `payload` as one record: "rec <len> <crc32-hex>\n<payload>\n".
std::string frame_record(std::string_view payload);

/// Longest header line ("rec <len> <crc>\n") a well-formed frame can carry:
/// 4 + 20 digits + 1 + 8 hex + newline, rounded up. Streaming readers (the
/// plan server) stop reading an unterminated header at this bound so a
/// client feeding an endless first line cannot grow a buffer.
inline constexpr size_t kMaxFrameHeaderBytes = 40;

/// Why a frame header was rejected. The distinctions matter to the server's
/// rejection taxonomy: an oversized *declared* length is refused before any
/// payload allocation, which is the whole point of parsing the header on its
/// own.
enum class FrameHeaderStatus {
  kOk,
  kBadMagic,     // line does not start with "rec "
  kMissingCrc,   // no space-separated checksum field
  kBadLength,    // length field empty, non-numeric, or > 20 digits (overflow)
  kZeroLength,   // declared length 0 where the caller requires a payload
  kOversized,    // declared length exceeds the caller's cap
  kBadCrcField,  // checksum field is not 8 hex digits
};

struct FrameHeader {
  size_t payload_len = 0;
  std::string crc_hex;  // exactly 8 lowercase hex digits when kOk
};

/// Parses one "rec <len> <crc32-hex>" header line (no trailing newline).
/// Rejects a declared length above `max_payload` or below `min_payload`
/// BEFORE the caller allocates anything — the hardening contract for reads
/// from untrusted sockets. Overflow-safe: a 30-digit length is kBadLength,
/// never a wrapped size_t. Never throws.
FrameHeaderStatus parse_frame_header(std::string_view line, size_t max_payload,
                                     size_t min_payload, FrameHeader* out);

/// Human-readable reason for each non-kOk status (stable strings; the server
/// embeds them in typed rejection replies and the scanner in quarantine
/// reasons).
const char* frame_header_status_name(FrameHeaderStatus status);

/// True iff `payload` matches the header's stored checksum (string-compared,
/// so a flip inside the stored checksum itself is still a mismatch).
bool verify_frame_payload(const FrameHeader& header, std::string_view payload);

struct ScannedRecord {
  enum class Status {
    kOk,       // payload points into the scanned buffer
    kCorrupt,  // frame damaged; offset/length cover the skipped bytes
    kEnd,      // no bytes left
  };
  Status status = Status::kEnd;
  std::string_view payload;  // valid only for kOk
  size_t offset = 0;         // byte offset of the frame (or damage) start
  size_t length = 0;         // bytes consumed from `offset`
  std::string reason;        // human-readable, only for kCorrupt
};

/// Sequential scanner over a buffer of framed records. The buffer must
/// outlive the scanner and every payload string_view it hands out.
class RecordScanner {
 public:
  explicit RecordScanner(std::string_view data, size_t max_payload = kMaxRecordPayload)
      : data_(data), max_payload_(max_payload) {}

  /// Returns the next record, a corruption report, or kEnd. Never throws:
  /// any malformed frame — bad header, oversized or non-numeric length,
  /// truncated payload, CRC mismatch, missing terminator — comes back as
  /// kCorrupt with scanning resynchronised past it.
  ScannedRecord next();

 private:
  std::string_view data_;
  size_t pos_ = 0;
  size_t max_payload_;
};

/// Appends the "crc <hex>\n" trailer line over `body` (which should already
/// end in a newline) and returns the finished document.
std::string with_crc_trailer(std::string body);

struct CrcTrailerResult {
  bool ok = false;
  std::string body;   // the checksummed body, trailer stripped (ok only)
  std::string error;  // why verification failed (!ok only)
};

/// Verifies and strips the final "crc <hex>" line. Returns the body on
/// success; on any framing or checksum problem returns ok=false with a
/// reason, so callers can wrap the failure in their own typed error.
CrcTrailerResult strip_crc_trailer(const std::string& text);

// Text records ----------------------------------------------------------------

/// A malformed text record. what() is the reason, led by the line number
/// when a LineCursor found it ("line 7: malformed step time \"1.5x\"");
/// each loader rethrows it as its own typed error under its own prefix.
class ParseError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/// `v` with 17 significant digits ("%g" style), which reads back to every
/// finite double exactly; infinities and NaN print as "inf", "-inf" and
/// "nan".
std::string format_double(double v);

/// The shortest "%.<p>g" (p = 1..17) that reads back to `v` exactly, or
/// format_double(v) when none does (NaN).
std::string format_shortest(double v);

/// True when all of `token` converts to a T with std::from_chars: no
/// whitespace, no '+', no base prefix, no '-' for an unsigned T, nothing out
/// of T's range.
template <typename T>
bool read_number(std::string_view token, T* out) {
  const char* end = token.data() + token.size();
  const auto [ptr, ec] = std::from_chars(token.data(), end, *out);
  return ec == std::errc() && ptr == end;
}

/// The whitespace-separated tokens of one line. Any run of spaces, tabs or
/// carriage returns separates two tokens, as istream extraction does.
///
/// Numbers must convert in full (read_number): "", "12x", "+5", "0x10" and
/// "1e999" are malformed, and so is "-1" for an unsigned type. Doubles also
/// read "inf", "-inf" and "nan". A value outside [min, max] is out of range.
class Fields {
 public:
  explicit Fields(std::string_view line, int line_no = 0)
      : line_(line), line_no_(line_no) {}

  /// True when no token is left.
  bool done();
  /// The next token; ParseError when none is left.
  std::string_view word(std::string_view what);
  template <typename T = int>
  T integer(std::string_view what, T min = std::numeric_limits<T>::lowest(),
            T max = std::numeric_limits<T>::max()) {
    const std::string_view token = word(what);
    T value{};
    if (!read_number(token, &value)) malformed(what, token);
    if (value < min || value > max) {
      fail(std::string(what) + " " + std::string(token) + " out of range [" +
           std::to_string(min) + ", " + std::to_string(max) + "]");
    }
    return value;
  }
  double real(std::string_view what);
  /// "0" or "1".
  bool flag(std::string_view what);
  /// Exactly 2 * sizeof(T) lowercase hex digits (crc32_hex, store keys).
  template <typename T>
  T hex(std::string_view what) {
    const std::string_view token = word(what);
    T value = 0;
    for (const char c : token) {
      const bool digit = c >= '0' && c <= '9';
      if (!digit && !(c >= 'a' && c <= 'f')) malformed(what, token);
      value = static_cast<T>(value << 4) | static_cast<T>(digit ? c - '0' : c - 'a' + 10);
    }
    if (token.size() != 2 * sizeof(T)) malformed(what, token);
    return value;
  }
  /// Everything after the current token and one separator, verbatim (names
  /// may hold spaces). Consumes the rest of the line.
  std::string_view rest();
  /// ParseError unless every token was consumed.
  void finish();

 private:
  [[noreturn]] void fail(const std::string& why) const;
  [[noreturn]] void malformed(std::string_view what, std::string_view token) const;

  std::string_view line_;
  size_t pos_ = 0;
  int line_no_ = 0;
};

/// Strict sequential reader over a document's '\n'-separated lines. A final
/// line without a newline still counts. Every mismatch throws ParseError
/// carrying the 1-based line number.
class LineCursor {
 public:
  explicit LineCursor(std::string_view text) : text_(text) {}

  bool done() const { return pos_ >= text_.size(); }
  /// True when the next line's first token is `key`.
  bool at(std::string_view key) const;
  /// The next line, raw.
  std::string_view next();
  /// The next line's tokens.
  Fields line() {
    const std::string_view text = next();
    return Fields(text, line_no_);
  }
  /// The next line's tokens after its first, which must be `key`.
  Fields field(std::string_view key);
  /// The next line must equal `literal` exactly.
  void expect(std::string_view literal);
  /// "key <text>": the text after one separator, verbatim.
  std::string_view rest(std::string_view key) { return field(key).rest(); }
  /// "key <value>" lines holding one number or flag.
  template <typename T = int>
  T integer(std::string_view key, T min = std::numeric_limits<T>::lowest(),
            T max = std::numeric_limits<T>::max()) {
    Fields fields = field(key);
    const T value = fields.integer<T>(key, min, max);
    fields.finish();
    return value;
  }
  double real(std::string_view key);
  bool flag(std::string_view key);
  /// A line-counted block: "key <n>" and then n raw lines, returned with a
  /// newline after each. n above `max_lines` is out of range.
  std::string block(std::string_view key, size_t max_lines);
  /// ParseError unless every line was consumed.
  void finish() const;

 private:
  /// The next line, not consumed.
  std::string_view peek() const;

  std::string_view text_;
  size_t pos_ = 0;
  int line_no_ = 0;  // lines consumed so far
};

/// Appends the line-counted block LineCursor::block reads: "key <n>\n", then
/// `text` with a newline added when it lacks a final one.
void append_block(std::string& out, std::string_view key, std::string_view text);

/// The whole file at `path`, byte for byte; nullopt when it cannot be read.
std::optional<std::string> read_file(const std::string& path);

}  // namespace heterog
