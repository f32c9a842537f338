// FaultPlan JSON loader and writer (schema in faults.h), over the shared
// reader in common/json.h.
#include <cmath>
#include <optional>
#include <sstream>

#include "common/json.h"
#include "common/record_io.h"
#include "faults/faults.h"

namespace heterog::faults {

namespace {

double get_number(const json::Value& obj, const std::string& key, double fallback,
                  bool required = false) {
  const auto it = obj.object.find(key);
  if (it == obj.object.end()) {
    if (required) throw FaultPlanError("fault plan: missing field \"" + key + "\"");
    return fallback;
  }
  if (it->second.type != json::Value::Type::kNumber) {
    throw FaultPlanError("fault plan: field \"" + key + "\" must be a number");
  }
  return it->second.number;
}

int get_int(const json::Value& obj, const std::string& key, int fallback,
            bool required = false) {
  const double d = get_number(obj, key, fallback, required);
  // The range check matters as much as the integrality check: casting an
  // out-of-int-range double is undefined behaviour, not just a wrong value.
  if (d != std::floor(d) || d < -2147483648.0 || d > 2147483647.0) {
    throw FaultPlanError("fault plan: field \"" + key + "\" must be an int");
  }
  return static_cast<int>(d);
}

FaultEvent parse_event(const json::Value& obj) {
  if (obj.type != json::Value::Type::kObject) {
    throw FaultPlanError("fault plan: each fault must be a JSON object");
  }
  const auto kind_it = obj.object.find("kind");
  if (kind_it == obj.object.end() || kind_it->second.type != json::Value::Type::kString) {
    throw FaultPlanError("fault plan: fault missing string field \"kind\"");
  }
  const std::string& kind = kind_it->second.str;

  FaultEvent e;
  e.onset_step = get_int(obj, "onset_step", 0, /*required=*/true);
  e.recovery_step = get_int(obj, "recovery_step", -1);
  if (kind == "device_failure") {
    e.kind = FaultKind::kDeviceFailure;
    e.device = get_int(obj, "device", -1, /*required=*/true);
  } else if (kind == "straggler") {
    e.kind = FaultKind::kStraggler;
    e.device = get_int(obj, "device", -1, /*required=*/true);
    e.slowdown = get_number(obj, "slowdown", 2.0);
  } else if (kind == "link_degradation") {
    e.kind = FaultKind::kLinkDegradation;
    e.device_a = get_int(obj, "device_a", -1, /*required=*/true);
    e.device_b = get_int(obj, "device_b", -1, /*required=*/true);
    e.bandwidth_factor = get_number(obj, "bandwidth_factor", 0.5);
  } else if (kind == "transient") {
    e.kind = FaultKind::kTransient;
    e.device = get_int(obj, "device", -1, /*required=*/true);
    e.failed_attempts = get_int(obj, "failed_attempts", 1);
  } else if (kind == "rack_failure") {
    e.kind = FaultKind::kRackFailure;
    e.rack = get_int(obj, "rack", -1, /*required=*/true);
  } else if (kind == "switch_outage") {
    e.kind = FaultKind::kSwitchOutage;
    e.level = get_int(obj, "level", -1, /*required=*/true);
    e.switch_index = get_int(obj, "switch", -1, /*required=*/true);
  } else if (kind == "switch_degradation") {
    e.kind = FaultKind::kSwitchDegradation;
    e.level = get_int(obj, "level", -1, /*required=*/true);
    e.switch_index = get_int(obj, "switch", -1, /*required=*/true);
    e.bandwidth_factor = get_number(obj, "bandwidth_factor", 0.5);
  } else {
    throw FaultPlanError("fault plan: unknown fault kind \"" + kind + "\"");
  }
  return e;
}

}  // namespace

FaultPlan parse_fault_plan_json(const std::string& text) {
  json::Value root;
  try {
    root = json::parse(text);
  } catch (const json::ParseError& e) {
    throw FaultPlanError(std::string("fault plan JSON: ") + e.what());
  }

  const json::Value* list = nullptr;
  if (root.type == json::Value::Type::kArray) {
    list = &root;
  } else if (root.type == json::Value::Type::kObject) {
    const auto it = root.object.find("faults");
    if (it == root.object.end() || it->second.type != json::Value::Type::kArray) {
      throw FaultPlanError("fault plan: top-level object needs a \"faults\" array");
    }
    list = &it->second;
  } else {
    throw FaultPlanError("fault plan: top level must be an object or array");
  }

  FaultPlan plan;
  for (const auto& entry : list->array) plan.events.push_back(parse_event(entry));
  return plan;
}

FaultPlan load_fault_plan(const std::string& path) {
  const std::optional<std::string> text = read_file(path);
  if (!text) throw FaultPlanError("cannot read fault plan file: " + path);
  return parse_fault_plan_json(*text);
}

std::string fault_plan_to_json(const FaultPlan& plan) {
  std::ostringstream os;
  os << "{\"faults\": [";
  for (size_t i = 0; i < plan.events.size(); ++i) {
    const FaultEvent& e = plan.events[i];
    if (i) os << ", ";
    os << "{\"kind\": \"" << fault_kind_name(e.kind) << "\"";
    switch (e.kind) {
      case FaultKind::kDeviceFailure:
        os << ", \"device\": " << e.device;
        break;
      case FaultKind::kStraggler:
        os << ", \"device\": " << e.device
           << ", \"slowdown\": " << format_double(e.slowdown);
        break;
      case FaultKind::kLinkDegradation:
        os << ", \"device_a\": " << e.device_a << ", \"device_b\": " << e.device_b
           << ", \"bandwidth_factor\": " << format_double(e.bandwidth_factor);
        break;
      case FaultKind::kTransient:
        os << ", \"device\": " << e.device
           << ", \"failed_attempts\": " << e.failed_attempts;
        break;
      case FaultKind::kRackFailure:
        os << ", \"rack\": " << e.rack;
        break;
      case FaultKind::kSwitchOutage:
        os << ", \"level\": " << e.level << ", \"switch\": " << e.switch_index;
        break;
      case FaultKind::kSwitchDegradation:
        os << ", \"level\": " << e.level << ", \"switch\": " << e.switch_index
           << ", \"bandwidth_factor\": " << format_double(e.bandwidth_factor);
        break;
    }
    os << ", \"onset_step\": " << e.onset_step;
    if (e.recovery_step >= 0) os << ", \"recovery_step\": " << e.recovery_step;
    os << "}";
  }
  os << "]}";
  return os.str();
}

const std::vector<std::string>& fault_json_fields() {
  static const std::vector<std::string> fields = {
      "kind",        "device",           "device_a",       "device_b",
      "onset_step",  "recovery_step",    "slowdown",       "bandwidth_factor",
      "failed_attempts", "level",        "switch",         "rack",
  };
  return fields;
}

}  // namespace heterog::faults
