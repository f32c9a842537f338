#include "strategy/serialize.h"

#include <fstream>
#include <sstream>

#include "common/atomic_file.h"
#include "common/crc32.h"
#include "common/record_io.h"

namespace heterog::strategy {

namespace {

[[noreturn]] void fail(const std::string& why) { throw PlanFormatError("plan: " + why); }

/// Group counts are parsed signed and range-checked so a crafted plan cannot
/// drive a gigantic reserve() into std::length_error / bad_alloc (those are
/// not PlanFormatErrors). No real plan comes near the cap.
size_t parse_group_count(std::istringstream& is, const char* version) {
  std::string key;
  long long groups = -1;
  if (!(is >> key >> groups) || key != "groups") {
    fail(std::string(version) + ": bad groups line");
  }
  constexpr long long kMax = 1'000'000;
  if (groups < 0 || groups > kMax) {
    fail(std::string(version) + ": group count out of range: " + std::to_string(groups));
  }
  return static_cast<size_t>(groups);
}

StrategyMap parse_actions(std::istringstream& is, size_t groups, int device_count) {
  StrategyMap map;
  map.group_actions.reserve(groups);
  for (size_t g = 0; g < groups; ++g) {
    int index = -1;
    if (!(is >> index)) {
      fail("truncated: expected " + std::to_string(groups) + " actions, found " +
           std::to_string(g));
    }
    if (index < 0 || index >= Action::action_count(device_count)) {
      fail("action index " + std::to_string(index) + " out of range for " +
           std::to_string(device_count) + " devices");
    }
    map.group_actions.push_back(Action::from_index(index, device_count));
  }
  return map;
}

void reject_trailing(std::istringstream& is) {
  std::string extra;
  if (is >> extra) fail("trailing garbage after last action (\"" + extra + "\")");
}

/// Shared v1/v2 parser. `cluster` may be null (fingerprint check skipped).
StrategyMap parse_any(const std::string& text, int device_count,
                      const cluster::ClusterSpec* cluster) {
  std::istringstream header(text);
  std::string magic, version;
  if (!(header >> magic >> version) || magic != "heterog-plan") {
    fail("not a heterog-plan file");
  }

  if (version == "v1") {
    std::istringstream is(text);
    is >> magic >> version;
    std::string key;
    int devices = 0;
    if (!(is >> key >> devices) || key != "devices") fail("v1: bad devices line");
    if (devices != device_count) {
      fail("v1: plan is for " + std::to_string(devices) + " devices, expected " +
           std::to_string(device_count));
    }
    const size_t groups = parse_group_count(is, "v1");
    StrategyMap map = parse_actions(is, groups, device_count);
    reject_trailing(is);
    return map;
  }

  if (version != "v2") fail("unsupported version \"" + version + "\"");

  const CrcTrailerResult checked = strip_crc_trailer(text);
  if (!checked.ok) fail(checked.error);
  std::istringstream is(checked.body);
  is >> magic >> version;
  std::string key, fingerprint;
  if (!(is >> key >> fingerprint) || key != "cluster" || fingerprint.size() != 8) {
    fail("v2: bad cluster fingerprint line");
  }
  if (cluster && fingerprint != crc32_hex(cluster_fingerprint(*cluster))) {
    fail("v2: cluster fingerprint mismatch — plan was made for different hardware "
         "(plan " + fingerprint + ", cluster " +
         crc32_hex(cluster_fingerprint(*cluster)) + ")");
  }
  int devices = 0;
  if (!(is >> key >> devices) || key != "devices") fail("v2: bad devices line");
  if (devices != device_count) {
    fail("v2: plan is for " + std::to_string(devices) + " devices, expected " +
         std::to_string(device_count));
  }
  const size_t groups = parse_group_count(is, "v2");
  StrategyMap map = parse_actions(is, groups, device_count);
  reject_trailing(is);  // action count cross-check: nothing between actions and crc
  return map;
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
    return parse_any(text, device_count, nullptr);
  } catch (const PlanFormatError&) {
    return std::nullopt;
  }
}

StrategyMap parse_plan(const std::string& text, const cluster::ClusterSpec& cluster) {
  return parse_any(text, cluster.device_count(), &cluster);
}

bool save_plan(const std::string& path, const StrategyMap& map, int device_count) {
  return write_file_atomic(path, to_text(map, device_count));
}

bool save_plan(const std::string& path, const StrategyMap& map,
               const cluster::ClusterSpec& cluster) {
  return write_file_atomic(path, to_text(map, cluster));
}

namespace {

std::optional<std::string> read_file(const std::string& path) {
  std::ifstream in(path);
  if (!in) return std::nullopt;
  std::stringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

}  // namespace

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
