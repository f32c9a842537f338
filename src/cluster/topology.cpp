#include "cluster/topology.h"

#include <algorithm>
#include <cmath>
#include <optional>
#include <sstream>

#include "common/json.h"
#include "common/record_io.h"
#include "common/rng.h"

namespace heterog::cluster {

namespace {

// ---------------------------------------------------------------------------
// Schema plumbing over the shared reader in common/json.h.

double get_number(const json::Value& obj, const std::string& key, double fallback) {
  const auto it = obj.object.find(key);
  if (it == obj.object.end()) return fallback;
  if (it->second.type != json::Value::Type::kNumber) {
    throw TopoSpecError("topology spec: field \"" + key + "\" must be a number");
  }
  return it->second.number;
}

int get_int(const json::Value& obj, const std::string& key, int fallback) {
  const double d = get_number(obj, key, fallback);
  // Integrality and range both matter: casting an out-of-int-range double is
  // undefined behaviour, not just a wrong value.
  if (d != std::floor(d) || d < -2147483648.0 || d > 2147483647.0) {
    throw TopoSpecError("topology spec: field \"" + key + "\" must be an int");
  }
  return static_cast<int>(d);
}

uint64_t get_seed(const json::Value& obj, const std::string& key, uint64_t fallback) {
  const double d = get_number(obj, key, static_cast<double>(fallback));
  // Seeds must survive the JSON double round trip exactly: cap at 2^53.
  if (d != std::floor(d) || d < 0.0 || d > 9007199254740992.0) {
    throw TopoSpecError("topology spec: field \"" + key +
                        "\" must be an integer in [0, 2^53]");
  }
  return static_cast<uint64_t>(d);
}

std::map<std::string, double> get_mix(const json::Value& obj, const std::string& key,
                                      const std::map<std::string, double>& fallback) {
  const auto it = obj.object.find(key);
  if (it == obj.object.end()) return fallback;
  if (it->second.type != json::Value::Type::kObject) {
    throw TopoSpecError("topology spec: field \"" + key +
                        "\" must be an object of name -> weight");
  }
  std::map<std::string, double> mix;
  for (const auto& [name, weight] : it->second.object) {
    if (weight.type != json::Value::Type::kNumber) {
      throw TopoSpecError("topology spec: weight of \"" + name + "\" in \"" + key +
                          "\" must be a number");
    }
    mix[name] = weight.number;
  }
  return mix;
}

void emit_mix(std::ostringstream& os, const char* key,
              const std::map<std::string, double>& mix) {
  os << "\"" << key << "\": {";
  bool first = true;
  for (const auto& [name, weight] : mix) {
    if (!first) os << ", ";
    first = false;
    os << "\"" << name << "\": " << format_double(weight);
  }
  os << "}";
}

struct GpuSku {
  const char* key;
  GpuModel model;
};
constexpr GpuSku kGpuSkus[] = {
    {"v100", GpuModel::kV100},
    {"1080ti", GpuModel::kGtx1080Ti},
    {"p100", GpuModel::kP100},
    {"a100", GpuModel::kA100},
};

struct NamedGbps {
  const char* key;
  double gbps;
};
constexpr NamedGbps kLinkClasses[] = {{"nvlink", 320.0}, {"pcie", 96.0}};
constexpr NamedGbps kNicClasses[] = {
    {"roce100", 100.0}, {"roce50", 50.0}, {"roce25", 25.0}};

template <typename Table, size_t N>
const Table* find_class(const Table (&table)[N], const std::string& key) {
  for (const auto& entry : table) {
    if (key == entry.key) return &entry;
  }
  return nullptr;
}

/// Validates a weight map against its class table: known keys, non-negative
/// weights, at least one positive weight.
template <typename Table, size_t N>
void validate_mix(const std::map<std::string, double>& mix, const Table (&table)[N],
                  const char* field) {
  double total = 0.0;
  for (const auto& [key, weight] : mix) {
    if (find_class(table, key) == nullptr) {
      throw TopoSpecError(std::string("topology spec: unknown ") + field + " key \"" +
                          key + "\"");
    }
    if (weight < 0.0 || !std::isfinite(weight)) {
      throw TopoSpecError(std::string("topology spec: ") + field + " weight of \"" +
                          key + "\" must be finite and >= 0");
    }
    total += weight;
  }
  if (!(total > 0.0)) {
    throw TopoSpecError(std::string("topology spec: ") + field +
                        " needs at least one positive weight");
  }
}

/// Draws one key from a weight map. Map iteration is sorted by key, so the
/// draw is deterministic in (mix, rng state).
std::string draw_from_mix(Rng& rng, const std::map<std::string, double>& mix) {
  std::vector<std::string> keys;
  std::vector<double> weights;
  for (const auto& [key, weight] : mix) {
    keys.push_back(key);
    weights.push_back(weight);
  }
  return keys[static_cast<size_t>(rng.sample_weighted(weights))];
}

}  // namespace

void TopoGenOptions::validate() const {
  auto fail = [](const std::string& why) { throw TopoSpecError("topology spec: " + why); };
  if (racks < 1) fail("racks must be >= 1");
  if (hosts_per_rack < 1) fail("hosts_per_rack must be >= 1");
  if (gpus_per_host < 1) fail("gpus_per_host must be >= 1");
  if (!(tor_gbps > 0.0) || !std::isfinite(tor_gbps)) fail("tor_gbps must be positive");
  if (!(oversubscription >= 1.0) || !std::isfinite(oversubscription)) {
    fail("oversubscription must be >= 1");
  }
  if (racks_per_pod < 0) fail("racks_per_pod must be >= 0");
  validate_mix(gpu_mix, kGpuSkus, "gpu_mix");
  validate_mix(link_classes, kLinkClasses, "link_classes");
  validate_mix(nic_classes, kNicClasses, "nic_classes");
}

ClusterSpec generate_cluster(const TopoGenOptions& options) {
  options.validate();
  Rng rng(options.seed);

  // Switch levels above the ToR: an aggregation tier joining racks_per_pod
  // racks when configured, then the core (the ClusterSpec's flat switch).
  // Each level up carries tor / oversubscription^level.
  const bool has_agg = options.racks_per_pod >= 2 && options.racks_per_pod < options.racks;
  TopologySpec topo;
  topo.tor_gbps = options.tor_gbps;
  double core_gbps = options.tor_gbps;
  if (options.racks > 1) {
    core_gbps = options.tor_gbps / options.oversubscription;
    if (has_agg) {
      topo.tiers.push_back({core_gbps, options.racks_per_pod});
      core_gbps /= options.oversubscription;
    }
  }

  std::vector<HostSpec> hosts;
  std::vector<DeviceSpec> devices;
  topo.rack_of_host.reserve(static_cast<size_t>(options.host_count()));
  for (int h = 0; h < options.host_count(); ++h) {
    // Whole machines are homogeneous: one SKU / link class / NIC class per
    // host, drawn in a fixed order so the byte stream is seed-stable.
    const GpuSku* sku = find_class(kGpuSkus, draw_from_mix(rng, options.gpu_mix));
    const NamedGbps* fabric =
        find_class(kLinkClasses, draw_from_mix(rng, options.link_classes));
    const NamedGbps* nic = find_class(kNicClasses, draw_from_mix(rng, options.nic_classes));

    HostSpec host;
    host.id = h;
    host.name = "host" + std::to_string(h);
    host.nic_gbps = nic->gbps;
    host.intra_gbps = fabric->gbps;
    hosts.push_back(std::move(host));
    topo.rack_of_host.push_back(h / options.hosts_per_rack);

    for (int g = 0; g < options.gpus_per_host; ++g) {
      DeviceSpec d;
      d.id = static_cast<DeviceId>(devices.size());
      d.name = "G" + std::to_string(d.id);
      d.model = sku->model;
      d.host = h;
      d.gflops_per_ms = base_gflops_per_ms(sku->model);
      d.memory_bytes = memory_capacity_bytes(sku->model);
      devices.push_back(std::move(d));
    }
  }

  return ClusterSpec(std::move(hosts), std::move(devices), core_gbps)
      .with_topology(std::move(topo));
}

std::string topo_gen_to_json(const TopoGenOptions& options) {
  std::ostringstream os;
  os << "{\"seed\": " << options.seed;
  os << ", \"racks\": " << options.racks;
  os << ", \"hosts_per_rack\": " << options.hosts_per_rack;
  os << ", \"gpus_per_host\": " << options.gpus_per_host;
  os << ", \"tor_gbps\": " << format_double(options.tor_gbps);
  os << ", \"oversubscription\": " << format_double(options.oversubscription);
  os << ", \"racks_per_pod\": " << options.racks_per_pod;
  os << ", ";
  emit_mix(os, "gpu_mix", options.gpu_mix);
  os << ", ";
  emit_mix(os, "link_classes", options.link_classes);
  os << ", ";
  emit_mix(os, "nic_classes", options.nic_classes);
  os << "}";
  return os.str();
}

TopoGenOptions parse_topo_gen_json(const std::string& text) {
  json::Value root;
  try {
    root = json::parse(text);
  } catch (const json::ParseError& e) {
    throw TopoSpecError(std::string("topology spec JSON: ") + e.what());
  }
  if (root.type != json::Value::Type::kObject) {
    throw TopoSpecError("topology spec: top level must be a JSON object");
  }
  for (const auto& [key, value] : root.object) {
    (void)value;
    const auto& fields = topo_json_fields();
    if (std::find(fields.begin(), fields.end(), key) == fields.end()) {
      throw TopoSpecError("topology spec: unknown field \"" + key + "\"");
    }
  }

  TopoGenOptions defaults;
  TopoGenOptions o;
  o.seed = get_seed(root, "seed", defaults.seed);
  o.racks = get_int(root, "racks", defaults.racks);
  o.hosts_per_rack = get_int(root, "hosts_per_rack", defaults.hosts_per_rack);
  o.gpus_per_host = get_int(root, "gpus_per_host", defaults.gpus_per_host);
  o.tor_gbps = get_number(root, "tor_gbps", defaults.tor_gbps);
  o.oversubscription = get_number(root, "oversubscription", defaults.oversubscription);
  o.racks_per_pod = get_int(root, "racks_per_pod", defaults.racks_per_pod);
  o.gpu_mix = get_mix(root, "gpu_mix", defaults.gpu_mix);
  o.link_classes = get_mix(root, "link_classes", defaults.link_classes);
  o.nic_classes = get_mix(root, "nic_classes", defaults.nic_classes);
  o.validate();
  return o;
}

TopoGenOptions load_topo_gen_options(const std::string& path) {
  const std::optional<std::string> text = read_file(path);
  if (!text) throw TopoSpecError("cannot read topology spec file: " + path);
  return parse_topo_gen_json(*text);
}

std::string cluster_to_json(const ClusterSpec& cluster) {
  std::ostringstream os;
  os << "{\"switch_gbps\": " << format_double(cluster.switch_gbps());
  os << ", \"hosts\": [";
  for (const auto& h : cluster.hosts()) {
    if (h.id) os << ", ";
    os << "{\"id\": " << h.id << ", \"nic_gbps\": " << format_double(h.nic_gbps)
       << ", \"intra_gbps\": " << format_double(h.intra_gbps);
    if (cluster.has_topology()) {
      os << ", \"rack\": " << cluster.topology().rack_of_host[static_cast<size_t>(h.id)];
    }
    os << "}";
  }
  os << "], \"devices\": [";
  for (const auto& d : cluster.devices()) {
    if (d.id) os << ", ";
    os << "{\"id\": " << d.id << ", \"host\": " << d.host << ", \"model\": \""
       << gpu_model_name(d.model) << "\", \"gflops_per_ms\": "
       << format_double(d.gflops_per_ms) << ", \"memory_bytes\": " << d.memory_bytes
       << "}";
  }
  os << "], \"link_scales\": [";
  bool first = true;
  for (const auto& [pair, scale] : cluster.host_link_scales()) {
    if (!first) os << ", ";
    first = false;
    os << "[" << pair.first << ", " << pair.second << ", " << format_double(scale) << "]";
  }
  os << "]";
  if (cluster.has_topology()) {
    const TopologySpec& topo = cluster.topology();
    os << ", \"topology\": {\"tor_gbps\": " << format_double(topo.tor_gbps)
       << ", \"tiers\": [";
    for (size_t t = 0; t < topo.tiers.size(); ++t) {
      if (t) os << ", ";
      os << "[" << format_double(topo.tiers[t].gbps) << ", " << topo.tiers[t].group_size
         << "]";
    }
    os << "]";
    // Emitted only when a switch has been degraded, so freshly generated
    // clusters serialize byte-identically to before switch faults existed.
    if (!cluster.switch_scales().empty()) {
      os << ", \"switch_scales\": [";
      bool first_sw = true;
      for (const auto& [coord, scale] : cluster.switch_scales()) {
        if (!first_sw) os << ", ";
        first_sw = false;
        os << "[" << coord.first << ", " << coord.second << ", "
           << format_double(scale) << "]";
      }
      os << "]";
    }
    os << "}";
  }
  os << "}";
  return os.str();
}

const std::vector<std::string>& topo_json_fields() {
  static const std::vector<std::string> fields = {
      "seed",        "racks",           "hosts_per_rack", "gpus_per_host",
      "tor_gbps",    "oversubscription", "racks_per_pod",  "gpu_mix",
      "link_classes", "nic_classes",
  };
  return fields;
}

std::optional<TopoGenOptions> topo_preset(const std::string& name) {
  TopoGenOptions o;
  if (name == "rack16") {
    // Two non-blocking racks of two 4-GPU machines: the smallest topology
    // with an inter-rack hop. V100/1080Ti mix over PCIe, 50 GbE.
    o.racks = 2;
    o.hosts_per_rack = 2;
    o.gpus_per_host = 4;
    o.tor_gbps = 100.0;
    o.link_classes = {{"pcie", 1.0}};
    o.nic_classes = {{"roce50", 1.0}};
    return o;
  }
  if (name == "pod64") {
    // One pod of four racks, 2:1 oversubscribed toward the core.
    o.racks = 4;
    o.hosts_per_rack = 4;
    o.gpus_per_host = 4;
    o.tor_gbps = 100.0;
    o.oversubscription = 2.0;
    o.racks_per_pod = 2;
    o.gpu_mix = {{"v100", 2.0}, {"1080ti", 1.0}, {"p100", 1.0}};
    return o;
  }
  if (name == "pod256") {
    o.racks = 8;
    o.hosts_per_rack = 8;
    o.gpus_per_host = 4;
    o.tor_gbps = 200.0;
    o.oversubscription = 2.0;
    o.racks_per_pod = 4;
    o.gpu_mix = {{"a100", 1.0}, {"v100", 2.0}, {"p100", 1.0}};
    o.nic_classes = {{"roce100", 2.0}, {"roce50", 1.0}};
    return o;
  }
  if (name == "dc1000") {
    // 100 machines / 1000 GPUs across ten racks with an aggregation tier and
    // 3:1 oversubscription — the ROADMAP's production-scale target scenario.
    o.racks = 10;
    o.hosts_per_rack = 10;
    o.gpus_per_host = 10;
    o.tor_gbps = 200.0;
    o.oversubscription = 3.0;
    o.racks_per_pod = 5;
    o.gpu_mix = {{"a100", 1.0}, {"v100", 2.0}, {"1080ti", 1.0}};
    o.nic_classes = {{"roce100", 2.0}, {"roce50", 1.0}};
    return o;
  }
  return std::nullopt;
}

const std::vector<std::string>& topo_preset_names() {
  static const std::vector<std::string> names = {"rack16", "pod64", "pod256", "dc1000"};
  return names;
}

}  // namespace heterog::cluster
