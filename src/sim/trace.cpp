#include "sim/trace.h"

#include <algorithm>
#include <cmath>
#include <fstream>
#include <sstream>

#include "common/check.h"

namespace heterog::sim {

namespace {

/// Escapes a string for embedding in JSON.
std::string json_escape(const std::string& in) {
  std::string out;
  out.reserve(in.size() + 8);
  for (char c : in) {
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\n':
        out += "\\n";
        break;
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
  return out;
}

std::string resource_name(const compile::ResourceModel& resources, int resource) {
  if (resources.is_gpu_resource(resource)) {
    return "GPU " + std::to_string(resource);
  }
  if (resources.is_link_resource(resource)) {
    const int m = resources.device_count();
    const int pair = resource - m;
    return "link G" + std::to_string(pair / m) + "->G" + std::to_string(pair % m);
  }
  if (resource == resources.nccl_resource()) return "NCCL channel";
  const int nic = resource - resources.nccl_resource() - 1;
  return "host" + std::to_string(nic / 2) + (nic % 2 == 0 ? " NIC out" : " NIC in");
}

}  // namespace

std::string chrome_trace_json(const compile::DistGraph& graph, const SimResult& result) {
  check(static_cast<int>(result.start_ms.size()) == graph.node_count(),
        "chrome_trace_json: result does not match graph");
  const auto& resources = graph.resources();
  std::ostringstream os;
  os << "{\"traceEvents\":[";
  bool first = true;

  // Resource name metadata (tid = resource index, pid = 0).
  for (int r = 0; r < resources.resource_count(); ++r) {
    if (!first) os << ",";
    first = false;
    os << "{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":0,\"tid\":" << r
       << ",\"args\":{\"name\":\"" << json_escape(resource_name(resources, r))
       << "\"}}";
  }

  for (compile::DistNodeId id = 0; id < graph.node_count(); ++id) {
    const compile::DistNode node = graph.node(id);
    const int resource = resources.resource_of(node);
    const double start_us = result.start_ms[static_cast<size_t>(id)] * 1000.0;
    const double dur_us =
        std::max(result.finish_ms[static_cast<size_t>(id)] -
                     result.start_ms[static_cast<size_t>(id)],
                 0.0) *
        1000.0;
    os << ",{\"name\":\"" << json_escape(node.name) << "\",\"ph\":\"X\",\"pid\":0,"
       << "\"tid\":" << resource << ",\"ts\":" << start_us << ",\"dur\":" << dur_us
       << ",\"cat\":\"" << compile::node_kind_name(node.kind) << "\""
       << ",\"args\":{\"bytes\":" << node.output_bytes << "}}";
  }
  os << "]}";
  return os.str();
}

bool write_chrome_trace(const std::string& path, const compile::DistGraph& graph,
                        const SimResult& result) {
  std::ofstream out(path);
  if (!out) return false;
  out << chrome_trace_json(graph, result);
  return static_cast<bool>(out);
}

std::string ascii_timeline(const compile::DistGraph& graph, const SimResult& result,
                           AsciiTimelineOptions options) {
  check(options.width >= 10, "ascii_timeline: width too small");
  const auto& resources = graph.resources();
  const double span = std::max(result.makespan_ms, 1e-9);
  const double per_column = span / options.width;

  std::ostringstream os;
  os << "timeline: " << result.makespan_ms << " ms total, one column ~ "
     << per_column << " ms\n";

  const std::vector<int32_t>& used = graph.used_resources();
  const std::vector<int32_t>& queue = graph.queue_resources();
  auto render_row = [&](int resource, const std::string& label) {
    std::string row(static_cast<size_t>(options.width), '.');
    bool any = false;
    for (compile::DistNodeId id = 0; id < graph.node_count(); ++id) {
      if (used[static_cast<size_t>(queue[static_cast<size_t>(id)])] != resource) continue;
      any = true;
      const compile::NodeKind kind = graph.kind(id);
      const char glyph = kind == compile::NodeKind::kCompute
                             ? '#'
                             : (kind == compile::NodeKind::kTransfer ? '=' : '*');
      int begin = static_cast<int>(result.start_ms[static_cast<size_t>(id)] / per_column);
      int end = static_cast<int>(
          std::ceil(result.finish_ms[static_cast<size_t>(id)] / per_column));
      begin = std::clamp(begin, 0, options.width - 1);
      end = std::clamp(end, begin + 1, options.width);
      for (int c = begin; c < end; ++c) row[static_cast<size_t>(c)] = glyph;
    }
    if (any || resources.is_gpu_resource(resource)) {
      os << label;
      if (label.size() < 14) os << std::string(14 - label.size(), ' ');
      os << row << "\n";
    }
  };

  for (int d = 0; d < resources.device_count(); ++d) {
    render_row(resources.gpu_resource(d), "GPU" + std::to_string(d));
  }
  render_row(resources.nccl_resource(), "NCCL");
  if (options.include_links) {
    for (int r = 0; r < resources.resource_count(); ++r) {
      if (resources.is_link_resource(r) || resources.is_nic_resource(r)) {
        render_row(r, resource_name(resources, r));
      }
    }
  }
  return os.str();
}

}  // namespace heterog::sim
