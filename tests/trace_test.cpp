#include <gtest/gtest.h>

#include <fstream>

#include "common/check.h"
#include "sim/trace.h"
#include "test_util.h"

namespace heterog::sim {
namespace {

using strategy::Action;
using strategy::CommMethod;
using strategy::ReplicationMode;

class TraceTest : public ::testing::Test {
 protected:
  heterog::testing::TestRig rig_{cluster::make_paper_testbed_8gpu()};

  std::pair<compile::CompileResult, SimResult> make_schedule() {
    const auto train = heterog::testing::make_toy_training_graph(32.0);
    auto compiled = rig_.compile_uniform(
        train, Action::dp(ReplicationMode::kEven, CommMethod::kPS), 16);
    auto result = Simulator().run(compiled.graph);
    return {std::move(compiled), std::move(result)};
  }
};

TEST_F(TraceTest, ChromeTraceContainsEveryNode) {
  const auto [compiled, result] = make_schedule();
  const std::string json = chrome_trace_json(compiled.graph, result);
  // Every node appears as one complete event.
  int events = 0;
  for (size_t pos = 0; (pos = json.find("\"ph\":\"X\"", pos)) != std::string::npos;
       ++pos) {
    ++events;
  }
  EXPECT_EQ(events, compiled.graph.node_count());
  // Metadata rows for resources exist and the JSON is balanced.
  EXPECT_NE(json.find("NCCL channel"), std::string::npos);
  EXPECT_NE(json.find("NIC"), std::string::npos);
  EXPECT_EQ(std::count(json.begin(), json.end(), '{'),
            std::count(json.begin(), json.end(), '}'));
  EXPECT_EQ(json.front(), '{');
  EXPECT_EQ(json.back(), '}');
}

TEST_F(TraceTest, ChromeTraceEscapesNames) {
  compile::DistGraph g(1);
  compile::DistNode n;
  n.name = "weird\"name\\with\nnewline";
  n.kind = compile::NodeKind::kCompute;
  n.device = 0;
  n.duration_ms = 1.0;
  g.add_node(std::move(n));
  g.finalize();
  const auto result = Simulator().run(g);
  const std::string json = chrome_trace_json(g, result);
  EXPECT_NE(json.find("weird\\\"name\\\\with\\nnewline"), std::string::npos);
}

TEST_F(TraceTest, WriteChromeTraceToFile) {
  const auto [compiled, result] = make_schedule();
  const std::string path = ::testing::TempDir() + "/hg_trace_test.json";
  ASSERT_TRUE(write_chrome_trace(path, compiled.graph, result));
  std::ifstream in(path);
  std::string contents((std::istreambuf_iterator<char>(in)),
                       std::istreambuf_iterator<char>());
  EXPECT_EQ(contents, chrome_trace_json(compiled.graph, result));
}

TEST_F(TraceTest, AsciiTimelineHasOneRowPerGpu) {
  const auto [compiled, result] = make_schedule();
  const std::string timeline = ascii_timeline(compiled.graph, result);
  int gpu_rows = 0;
  for (size_t pos = 0; (pos = timeline.find("GPU", pos)) != std::string::npos; ++pos) {
    ++gpu_rows;
  }
  EXPECT_EQ(gpu_rows, 8);
  EXPECT_NE(timeline.find('#'), std::string::npos);  // compute blocks rendered
}

TEST_F(TraceTest, AsciiTimelineWidthRespected) {
  const auto [compiled, result] = make_schedule();
  AsciiTimelineOptions options;
  options.width = 40;
  const std::string timeline = ascii_timeline(compiled.graph, result, options);
  std::istringstream is(timeline);
  std::string line;
  std::getline(is, line);  // header
  while (std::getline(is, line)) {
    EXPECT_LE(line.size(), 14u + 40u);
  }
}

TEST_F(TraceTest, RejectsMismatchedResult) {
  const auto [compiled, result] = make_schedule();
  compile::DistGraph other(2);
  compile::DistNode n;
  n.name = "x";
  n.kind = compile::NodeKind::kCompute;
  n.device = 0;
  n.duration_ms = 1.0;
  other.add_node(std::move(n));
  other.finalize();
  EXPECT_THROW(chrome_trace_json(other, result), CheckError);
}

}  // namespace
}  // namespace heterog::sim
