#include "strategy/serialize.h"

#include <sstream>

#include "common/atomic_file.h"
#include "common/crc32.h"
#include "common/record_io.h"

namespace heterog::strategy {

namespace {

[[noreturn]] void fail(const std::string& why) { throw PlanFormatError("plan: " + why); }

/// Group counts are capped so a crafted plan cannot drive a gigantic
/// reserve(). No real plan comes near the cap.
constexpr size_t kMaxGroups = 1'000'000;

/// The lines after the magic (and, in v2, the fingerprint): devices, groups
/// and one action index per group, with nothing after the last.
StrategyMap parse_actions(LineCursor& in, int device_count) {
  const int devices = in.integer("devices");
  if (devices != device_count) {
    fail("plan is for " + std::to_string(devices) + " devices, expected " +
         std::to_string(device_count));
  }
  const size_t groups = in.integer<size_t>("groups", 0, kMaxGroups);
  StrategyMap map;
  map.group_actions.reserve(groups);
  for (size_t g = 0; g < groups; ++g) {
    Fields f = in.line();
    const int index =
        f.integer("action index", 0, Action::action_count(device_count) - 1);
    f.finish();
    map.group_actions.push_back(Action::from_index(index, device_count));
  }
  in.finish();
  return map;
}

/// Shared v1/v2 parser. `cluster` may be null (fingerprint check skipped).
StrategyMap parse_any(const std::string& text, int device_count,
                      const cluster::ClusterSpec* cluster) {
  LineCursor header(text);
  if (!header.at("heterog-plan")) fail("not a heterog-plan file");
  Fields magic = header.field("heterog-plan");
  const std::string version(magic.word("version"));
  magic.finish();
  if (version == "v1") return parse_actions(header, device_count);
  if (version != "v2") fail("unsupported version \"" + version + "\"");

  const CrcTrailerResult checked = strip_crc_trailer(text);
  if (!checked.ok) fail(checked.error);
  LineCursor in(checked.body);
  in.next();  // the magic line read above
  Fields fp = in.field("cluster");
  const uint32_t fingerprint = fp.hex<uint32_t>("cluster fingerprint");
  fp.finish();
  if (cluster && fingerprint != cluster_fingerprint(*cluster)) {
    fail("v2: cluster fingerprint mismatch — plan was made for different hardware "
         "(plan " + crc32_hex(fingerprint) + ", cluster " +
         crc32_hex(cluster_fingerprint(*cluster)) + ")");
  }
  return parse_actions(in, device_count);
}

StrategyMap parse_checked(const std::string& text, int device_count,
                          const cluster::ClusterSpec* cluster) {
  try {
    return parse_any(text, device_count, cluster);
  } catch (const ParseError& e) {
    fail(e.what());
  }
}

}  // namespace

std::string to_text(const StrategyMap& map, int device_count) {
  std::ostringstream os;
  os << "heterog-plan v1\n";
  os << "devices " << device_count << "\n";
  os << "groups " << map.group_actions.size() << "\n";
  for (const Action& a : map.group_actions) os << a.index(device_count) << "\n";
  return os.str();
}

std::string to_text(const StrategyMap& map, const cluster::ClusterSpec& cluster) {
  const int device_count = cluster.device_count();
  std::ostringstream os;
  os << "heterog-plan v2\n";
  os << "cluster " << crc32_hex(cluster_fingerprint(cluster)) << "\n";
  os << "devices " << device_count << "\n";
  os << "groups " << map.group_actions.size() << "\n";
  for (const Action& a : map.group_actions) os << a.index(device_count) << "\n";
  return with_crc_trailer(os.str());
}

std::optional<StrategyMap> from_text(const std::string& text, int device_count) {
  try {
    return parse_checked(text, device_count, nullptr);
  } catch (const PlanFormatError&) {
    return std::nullopt;
  }
}

StrategyMap parse_plan(const std::string& text, const cluster::ClusterSpec& cluster) {
  return parse_checked(text, cluster.device_count(), &cluster);
}

bool save_plan(const std::string& path, const StrategyMap& map, int device_count) {
  return write_file_atomic(path, to_text(map, device_count));
}

bool save_plan(const std::string& path, const StrategyMap& map,
               const cluster::ClusterSpec& cluster) {
  return write_file_atomic(path, to_text(map, cluster));
}

std::optional<StrategyMap> load_plan(const std::string& path, int device_count) {
  const auto text = read_file(path);
  if (!text) return std::nullopt;
  return from_text(*text, device_count);
}

StrategyMap load_plan_checked(const std::string& path,
                              const cluster::ClusterSpec& cluster) {
  const auto text = read_file(path);
  if (!text) throw PlanFormatError("plan: cannot read file: " + path);
  return parse_plan(*text, cluster);
}

}  // namespace heterog::strategy
