// Shared CRC-checked record framing for append-only journals.
//
// Two protocols live here, both built on common/crc32:
//
//  1. Per-record framing — each record is
//         "rec <payload-len> <crc32-hex>\n" <payload> "\n"
//     (length-prefixed so binary payloads survive, CRC over the payload so a
//     torn append or bit flip is detected per record, not per file). A
//     RecordScanner walks a byte buffer record by record and *resynchronises*
//     after corruption: a bad frame is reported with its extent and reason,
//     and scanning resumes at the next "\nrec " boundary — one flipped byte
//     quarantines one record, not the rest of the journal. Used by
//     store::PlanStore.
//
//  2. Whole-document CRC trailer — "crc <hex>\n" as the final line, verified
//     (by string comparison, so flips inside the stored checksum are caught
//     too) before any field of the document is parsed. Lifted from
//     ckpt/journal.cpp so the run journal and the v2 plan format
//     (strategy/serialize) share one implementation.
#pragma once

#include <cstddef>
#include <string>
#include <string_view>

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

}  // namespace heterog
