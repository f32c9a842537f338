// Plain-text (de)serialisation of strategy maps, used by the bench harness
// to cache search results across binaries, by users to export plans, and by
// the ckpt run journal to embed the deployed plan.
//
// Two on-disk versions:
//
//   v1 (legacy, read-compat only)      v2 (written by save_plan)
//   -----------------------------      --------------------------------
//   heterog-plan v1                    heterog-plan v2
//   devices <M>                        cluster <8-hex fingerprint>
//   groups <N>                         devices <M>
//   <N action indices, one per line>   groups <N>
//                                      <N action indices, one per line>
//                                      crc <8-hex CRC-32 of all prior bytes>
//
// v2 hardens the format against deployment accidents: the cluster
// fingerprint (cluster::cluster_fingerprint) refuses a plan made for
// different hardware even when the device *count* happens to match; the crc
// line (common/record_io's trailer) detects truncation, a lost final newline
// included, and bit rot; the action count is cross-checked
// against the `groups` header; and trailing garbage after the last line is
// rejected (for v1 too), so concatenation corruption cannot masquerade as a
// valid shorter plan.
#pragma once

#include <optional>
#include <stdexcept>
#include <string>

#include "cluster/cluster.h"
#include "strategy/strategy.h"

namespace heterog::strategy {

/// Thrown by the checked parse/load entry points for any malformed plan:
/// bad magic, checksum mismatch, action-count mismatch, out-of-range action,
/// device-count or cluster-fingerprint mismatch, trailing garbage.
class PlanFormatError : public std::runtime_error {
 public:
  explicit PlanFormatError(const std::string& what) : std::runtime_error(what) {}
};

/// Serialises to the legacy v1 format (no checksum) — kept for tooling that
/// has only a device count in hand.
std::string to_text(const StrategyMap& map, int device_count);

/// Serialises to the checksummed v2 format, stamping `cluster`'s fingerprint.
std::string to_text(const StrategyMap& map, const cluster::ClusterSpec& cluster);

/// Parses a v1 or v2 plan; returns nullopt on malformed input or
/// device-count mismatch. v2 checksums are verified; the v2 cluster
/// fingerprint is NOT verified by this overload (no cluster in hand).
std::optional<StrategyMap> from_text(const std::string& text, int device_count);

/// Checked parse: like from_text but throws PlanFormatError carrying the
/// reason, and additionally verifies a v2 fingerprint against `cluster`.
StrategyMap parse_plan(const std::string& text, const cluster::ClusterSpec& cluster);

/// File helpers. Saves are atomic (write-temp/flush/rename in the target
/// directory): on failure they return false and leave any prior plan at
/// `path` intact. The device_count overload writes v1, the cluster overload
/// writes v2.
bool save_plan(const std::string& path, const StrategyMap& map, int device_count);
bool save_plan(const std::string& path, const StrategyMap& map,
               const cluster::ClusterSpec& cluster);

/// load returns nullopt when the file is missing or invalid.
std::optional<StrategyMap> load_plan(const std::string& path, int device_count);

/// Checked load: throws PlanFormatError (unreadable file, corrupt or
/// mismatched plan) instead of flattening every failure to nullopt.
StrategyMap load_plan_checked(const std::string& path,
                              const cluster::ClusterSpec& cluster);

}  // namespace heterog::strategy
