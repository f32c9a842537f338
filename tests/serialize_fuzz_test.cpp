// Property/fuzz tests for every text parser that accepts untrusted bytes:
// strategy::from_text / parse_plan, faults::parse_fault_plan_json /
// load_fault_plan, ckpt::parse_journal, health::HealthMonitor::deserialize,
// the plan store's record codec and the RPC codecs. A deterministic Rng
// drives truncations, bit flips, garbage extensions, splices and fully
// random buffers; the property under test is uniform — a parser may reject
// input only through its typed error (or nullopt), and must never crash,
// hang or trip a sanitizer. Alongside: documents written by the writers at
// dd1a1fc (tests/fixtures) must re-serialize byte for byte, and extreme
// values must round-trip through every writer. The `fuzz` ctest label runs
// this binary under -DHETEROG_SANITIZE=address,undefined in CI.
#include <gtest/gtest.h>

#include <bit>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <limits>
#include <optional>
#include <string>
#include <typeinfo>
#include <vector>

#include "ckpt/journal.h"
#include "cluster/cluster.h"
#include "common/check.h"
#include "common/record_io.h"
#include "common/rng.h"
#include "compile/dist_graph.h"
#include "faults/faults.h"
#include "health/health.h"
#include "server/protocol.h"
#include "sim/plan_eval.h"
#include "store/plan_store.h"
#include "strategy/serialize.h"
#include "strategy/strategy.h"
#include "reference_sim.h"

namespace heterog {
namespace {

namespace fs = std::filesystem;

constexpr int kRounds = 400;

/// Feeds `text` to `parse`, asserting that only the allowed typed error (or
/// a clean return) comes out. Anything else — another exception type, a
/// crash, UB under sanitizers — fails the test.
template <typename Error, typename Fn>
void expect_typed(Fn&& parse, const std::string& text, const char* what) {
  try {
    parse(text);
  } catch (const Error&) {
    // The one acceptable failure mode.
  } catch (const std::exception& e) {
    FAIL() << what << " escaped with untyped " << typeid(e).name() << ": " << e.what()
           << "\ninput (" << text.size() << " bytes): "
           << text.substr(0, 120);
  }
}

std::string mutate(Rng& rng, const std::string& seed) {
  std::string out = seed;
  switch (rng.uniform_int(0, 4)) {
    case 0:  // truncate
      out.resize(static_cast<size_t>(rng.uniform_int(0, static_cast<int>(out.size()))));
      break;
    case 1:  // flip 1-8 bytes
      for (int i = rng.uniform_int(1, 8); i > 0 && !out.empty(); --i) {
        const auto pos =
            static_cast<size_t>(rng.uniform_int(0, static_cast<int>(out.size()) - 1));
        out[pos] = static_cast<char>(rng.uniform_int(0, 255));
      }
      break;
    case 2:  // extend with garbage
      for (int i = rng.uniform_int(1, 64); i > 0; --i) {
        out.push_back(static_cast<char>(rng.uniform_int(0, 255)));
      }
      break;
    case 3: {  // splice: duplicate or drop a middle chunk
      if (out.size() > 4) {
        const auto a =
            static_cast<size_t>(rng.uniform_int(0, static_cast<int>(out.size()) - 2));
        const auto b = static_cast<size_t>(
            rng.uniform_int(static_cast<int>(a) + 1, static_cast<int>(out.size()) - 1));
        if (rng.uniform() < 0.5) {
          out = out.substr(0, a) + out.substr(b);  // drop [a, b)
        } else {
          out = out.substr(0, b) + out.substr(a);  // duplicate [a, b)
        }
      }
      break;
    }
    default:  // fully random buffer
      out.clear();
      for (int i = rng.uniform_int(0, 256); i > 0; --i) {
        out.push_back(static_cast<char>(rng.uniform_int(0, 255)));
      }
      break;
  }
  return out;
}

cluster::ClusterSpec fuzz_cluster() {
  return cluster::make_homogeneous(4, cluster::GpuModel::kGtx1080Ti, 2);
}

std::string valid_plan_v2() {
  const auto map = strategy::StrategyMap::uniform(
      3, strategy::Action::dp(strategy::ReplicationMode::kEven,
                              strategy::CommMethod::kAllReduce));
  return strategy::to_text(map, fuzz_cluster());
}

std::string valid_plan_v1() {
  const auto map = strategy::StrategyMap::uniform(
      3, strategy::Action::dp(strategy::ReplicationMode::kProportional,
                              strategy::CommMethod::kPS));
  return strategy::to_text(map, 4);
}

std::string valid_fault_json() {
  faults::FaultPlan plan;
  faults::FaultEvent e;
  e.kind = faults::FaultKind::kStraggler;
  e.device = 1;
  e.slowdown = 2.0;
  e.onset_step = 3;
  e.recovery_step = 9;
  plan.events.push_back(e);
  e = faults::FaultEvent();
  e.kind = faults::FaultKind::kDeviceFailure;
  e.device = 2;
  e.onset_step = 5;
  plan.events.push_back(e);
  return faults::fault_plan_to_json(plan);
}

std::string valid_journal() {
  ckpt::RunJournal j;
  j.model_name = "fuzz";
  j.meta = {{"model", "fuzz"}};
  j.cluster = fuzz_cluster();
  j.cluster_crc = cluster::cluster_fingerprint(j.cluster);
  j.total_steps = 6;
  j.watermark = 2;
  j.step_ms = {1.0, 2.0};
  j.grouping_assignment = {0, 1, 0};
  j.plan_text = valid_plan_v2();
  j.fault_plan_json = valid_fault_json();
  return ckpt::to_text(j);
}

TEST(Fuzz, PlanFromTextNeverCrashes) {
  Rng rng(0xF002);
  const std::vector<std::string> seeds = {valid_plan_v1(), valid_plan_v2()};
  const auto cluster = fuzz_cluster();
  for (int i = 0; i < kRounds; ++i) {
    const std::string input = mutate(rng, seeds[static_cast<size_t>(i) % seeds.size()]);
    // from_text flattens every failure to nullopt — it must not throw at all.
    try {
      (void)strategy::from_text(input, cluster.device_count());
    } catch (const std::exception& e) {
      FAIL() << "from_text threw " << typeid(e).name() << ": " << e.what();
    }
    expect_typed<strategy::PlanFormatError>(
        [&](const std::string& text) { (void)strategy::parse_plan(text, cluster); },
        input, "parse_plan");
  }
}

TEST(Fuzz, FaultPlanJsonNeverCrashes) {
  Rng rng(0xF003);
  const std::string seed = valid_fault_json();
  for (int i = 0; i < kRounds; ++i) {
    const std::string input = mutate(rng, seed);
    expect_typed<faults::FaultPlanError>(
        [](const std::string& text) { (void)faults::parse_fault_plan_json(text); },
        input, "parse_fault_plan_json");
  }
}

TEST(Fuzz, FaultPlanFileLoadNeverCrashes) {
  Rng rng(0xF004);
  const std::string seed = valid_fault_json();
  const fs::path dir =
      fs::temp_directory_path() / ("heterog_fuzz_" + std::to_string(::getpid()));
  fs::create_directories(dir);
  const std::string path = (dir / "plan.json").string();
  for (int i = 0; i < 64; ++i) {
    const std::string input = mutate(rng, seed);
    std::ofstream(path, std::ios::binary) << input;
    expect_typed<faults::FaultPlanError>(
        [&](const std::string&) { (void)faults::load_fault_plan(path); }, input,
        "load_fault_plan");
  }
  std::error_code ec;
  fs::remove_all(dir, ec);
}

TEST(Fuzz, JournalParseNeverCrashes) {
  Rng rng(0xF005);
  const std::string seed = valid_journal();
  for (int i = 0; i < kRounds; ++i) {
    const std::string input = mutate(rng, seed);
    expect_typed<ckpt::JournalError>(
        [](const std::string& text) { (void)ckpt::parse_journal(text); }, input,
        "parse_journal");
  }
}

std::string valid_store_journal() {
  std::string journal = frame_record("heterog-store v1 gen 1");
  for (uint64_t i = 1; i <= 6; ++i) {
    sim::PlanEvaluation eval;
    eval.per_iteration_ms = 1.5 * static_cast<double>(i);
    eval.cold_iteration_ms = 2.0;
    eval.oom = i % 2 == 0;
    eval.peak_memory_bytes = {static_cast<int64_t>(i) << 20, 1 << 10};
    if (eval.oom) eval.oom_devices = {static_cast<cluster::DeviceId>(i % 4)};
    journal += frame_record(store::PlanStore::encode_eval(i * 77, eval));
  }
  return journal;
}

TEST(Fuzz, StoreRecordScannerNeverCrashes) {
  // The scanner must classify every mutation as kOk/kCorrupt/kEnd — it never
  // throws, and a corrupt frame's extent always advances the scan (no hangs).
  Rng rng(0xF006);
  const std::string seed = valid_store_journal();
  for (int i = 0; i < kRounds; ++i) {
    const std::string input = mutate(rng, seed);
    RecordScanner scanner(input);
    size_t consumed = 0;
    for (int guard = 0; guard < 10'000; ++guard) {
      const ScannedRecord rec = scanner.next();
      if (rec.status == ScannedRecord::Status::kEnd) break;
      ASSERT_GT(rec.length, 0u) << "scanner failed to advance";
      ASSERT_LE(rec.offset + rec.length, input.size());
      consumed = rec.offset + rec.length;
    }
    ASSERT_LE(consumed, input.size());
  }
}

TEST(Fuzz, StoreEvalDecodeNeverThrows) {
  // decode_eval's contract is bool, never an exception — whatever bytes come
  // out of a CRC-validated frame that was crafted rather than written by us.
  Rng rng(0xF007);
  sim::PlanEvaluation eval;
  eval.per_iteration_ms = 3.25;
  eval.peak_memory_bytes = {123, 456};
  const std::string seed = store::PlanStore::encode_eval(0xDEADBEEF, eval);
  for (int i = 0; i < kRounds; ++i) {
    const std::string input = mutate(rng, seed);
    uint64_t key = 0;
    sim::PlanEvaluation out;
    try {
      (void)store::PlanStore::decode_eval(input, &key, &out);
    } catch (const std::exception& e) {
      FAIL() << "decode_eval threw " << typeid(e).name() << ": " << e.what();
    }
  }
}

TEST(Fuzz, StoreOpenOnMutatedJournalNeverCrashes) {
  // Untrusted journal bytes into a full PlanStore open: corruption of any
  // kind must be healed or quarantined, never escape as a crash or an
  // untyped exception. (StoreError is allowed — a mutation cannot create an
  // environment problem here, but the type contract is what's under test.)
  Rng rng(0xF008);
  const std::string seed = valid_store_journal();
  const fs::path dir =
      fs::temp_directory_path() / ("heterog_fuzz_store_" + std::to_string(::getpid()));
  for (int i = 0; i < 96; ++i) {
    fs::remove_all(dir);
    fs::create_directories(dir);
    const std::string input = mutate(rng, seed);
    std::ofstream((dir / "evals.journal").string(), std::ios::binary) << input;
    try {
      store::PlanStoreOptions options;
      options.dir = dir.string();
      store::PlanStore store(options);  // the property: opening never crashes
    } catch (const store::StoreError&) {
      // The one acceptable failure mode.
    } catch (const std::exception& e) {
      FAIL() << "PlanStore open escaped with untyped " << typeid(e).name() << ": "
             << e.what() << "\ninput (" << input.size() << " bytes)";
    }
  }
  std::error_code ec;
  fs::remove_all(dir, ec);
}

// Server wire protocol (PR 7) -----------------------------------------------

server::PlanRequest valid_server_request() {
  server::PlanRequest request;
  request.model = "mobilenet_v2";
  request.layers = 20;
  request.batch = 32.0;
  request.cluster = "8gpu";
  request.episodes = 7;
  request.deadline_ms = 125.5;
  request.seed = 0xABCDEF01ull;
  return request;
}

server::PlanReply valid_server_reply() {
  server::PlanReply reply;
  reply.status = server::PlanReply::Status::kOk;
  reply.degraded = true;
  reply.feasible = true;
  reply.per_iteration_ms = 17.25;
  reply.plan_text = valid_plan_v2();
  return reply;
}

TEST(Fuzz, FrameHeaderParserNeverCrashes) {
  // parse_frame_header is the first parser untrusted socket bytes meet. The
  // contract under test: every input classifies to a typed FrameHeaderStatus,
  // kOk never reports a length outside the caller's [min, max] window (the
  // cap-before-allocation guarantee), and nothing crashes or hangs.
  Rng rng(0xF008);
  const std::string framed = frame_record("fuzz payload");
  const std::string seed = framed.substr(0, framed.find('\n'));  // header line
  const std::vector<std::string> adversarial = {
      "", "rec", "rec ", "rec  ", "rec 0 00000000", "rec -1 deadbeef",
      "rec 18446744073709551616 deadbeef",  // 2^64: must be kBadLength
      "rec 99999999999999999999999999 deadbeef",
      "rec 4096 DEADBEEF", "rec 4096 deadbee", "rec 4096 deadbeef0",
      "rec 4096 zzzzzzzz", "rec 4096", "REC 4096 deadbeef",
      std::string(kMaxFrameHeaderBytes * 4, '9'),
      "rec " + std::string(1000, '1') + " deadbeef",
      std::string("rec 4\x00 deadbeef", 15),
  };
  const size_t kCap = 4096;
  auto check = [&](const std::string& line) {
    FrameHeader header;
    const FrameHeaderStatus status =
        parse_frame_header(line, kCap, /*min_payload=*/1, &header);
    ASSERT_NE(frame_header_status_name(status), nullptr);
    if (status == FrameHeaderStatus::kOk) {
      ASSERT_GE(header.payload_len, 1u);
      ASSERT_LE(header.payload_len, kCap);
      ASSERT_EQ(header.crc_hex.size(), 8u);
    }
  };
  for (const std::string& line : adversarial) check(line);
  for (int i = 0; i < kRounds; ++i) check(mutate(rng, seed));
}

TEST(Fuzz, ServerRequestDecodeNeverCrashes) {
  // decode_request is total: bool + error string, never an exception, no
  // matter what CRC-valid-but-crafted bytes arrive in a request frame.
  Rng rng(0xF009);
  const std::string seed = server::encode_request(valid_server_request());
  server::PlanRequest out;
  std::string error;
  for (size_t cut = 0; cut <= seed.size(); ++cut) {  // every truncation
    EXPECT_NO_THROW((void)server::decode_request(seed.substr(0, cut), &out, &error));
  }
  for (int i = 0; i < kRounds; ++i) {
    const std::string input = mutate(rng, seed);
    try {
      (void)server::decode_request(input, &out, &error);
    } catch (const std::exception& e) {
      FAIL() << "decode_request threw " << typeid(e).name() << ": " << e.what();
    }
  }
}

TEST(Fuzz, ServerReplyDecodeNeverCrashes) {
  // Same totality contract on the client side of the wire, where the plan
  // text payload makes the surface much larger.
  Rng rng(0xF00A);
  const std::string seed = server::encode_reply(valid_server_reply());
  server::PlanReply out;
  std::string error;
  for (size_t cut = 0; cut <= seed.size(); ++cut) {
    EXPECT_NO_THROW((void)server::decode_reply(seed.substr(0, cut), &out, &error));
  }
  for (int i = 0; i < kRounds; ++i) {
    const std::string input = mutate(rng, seed);
    try {
      (void)server::decode_reply(input, &out, &error);
    } catch (const std::exception& e) {
      FAIL() << "decode_reply threw " << typeid(e).name() << ": " << e.what();
    }
  }
}

// ---------------------------------------------------------------------------
// Simulator-input fuzzer: malformed / degenerate DistGraph shapes. The
// contract is reject-or-complete — every entry point either throws a typed
// CheckError (validate_for_simulation) or finishes the run; it never hangs,
// never corrupts a heap, never trips ASan/UBSan. The simulator and the
// test-side reference must agree on which of the two happens, and on the
// result when they complete.

TEST(Fuzz, SimulatorDegenerateGraphShapes) {
  // Targeted shapes first: each either passes DistGraph::add_node and must
  // be caught by DistGraph::finalize or validate_for_simulation, or
  // completes harmlessly.
  using compile::DistGraph;
  using compile::DistNode;
  using compile::NodeKind;

  auto run_both = [](DistGraph g) {
    // Returns true when the graph was rejected; checks both agree. A shape
    // finalize() rejects reaches neither simulator.
    if (!g.finalized()) {
      try {
        g.finalize();
      } catch (const CheckError&) {
        return true;
      }
    }
    bool reference_rejected = false, data_rejected = false;
    double reference_ms = -1.0, data_ms = -1.0;
    try {
      reference_ms = testing::reference_run(g).makespan_ms;
    } catch (const CheckError&) {
      reference_rejected = true;
    }
    try {
      data_ms = sim::Simulator().run(g).makespan_ms;
    } catch (const CheckError&) {
      data_rejected = true;
    }
    EXPECT_EQ(reference_rejected, data_rejected);
    if (!reference_rejected && !data_rejected) {
      EXPECT_EQ(reference_ms, data_ms);
    }
    return reference_rejected;
  };

  {
    // Zero-byte outputs and zero durations everywhere: must complete.
    DistGraph g(3);
    DistNode a;
    a.kind = NodeKind::kCompute;
    a.device = 0;
    const auto ia = g.add_node(a);
    DistNode t;
    t.kind = NodeKind::kTransfer;
    t.link_from = 0;
    t.link_to = 1;
    const auto it = g.add_node(t);
    g.add_edge(ia, it);
    EXPECT_FALSE(run_both(g));
  }
  {
    // Self-referencing collective: participants {2, 2} — degenerate but
    // in-range; must not hang or double-occupy a resource.
    DistGraph g(3);
    DistNode c;
    c.kind = NodeKind::kCollective;
    c.participants = {2, 2};
    c.duration_ms = 1.0;
    c.output_bytes = 64;
    g.add_node(c);
    run_both(g);  // reject or complete, both impls agreeing
  }
  {
    // Empty / single-element participant lists are rejected at add_node.
    DistNode c;
    c.kind = NodeKind::kCollective;
    DistGraph g(2);
    EXPECT_THROW(g.add_node(c), CheckError);
    c.participants = {0};
    EXPECT_THROW(g.add_node(c), CheckError);
  }
  {
    // Out-of-range collective participant passes add_node (documented) and
    // must be rejected before either simulator runs.
    DistGraph g(2);
    DistNode c;
    c.kind = NodeKind::kCollective;
    c.participants = {0, 17};
    c.duration_ms = 1.0;
    g.add_node(c);
    EXPECT_TRUE(run_both(g));
  }
  {
    // Out-of-range transfer destination (add_node only checks >= 0, != from).
    DistGraph g(2);
    DistNode t;
    t.kind = NodeKind::kTransfer;
    t.link_from = 0;
    t.link_to = 9;
    t.duration_ms = 1.0;
    g.add_node(t);
    EXPECT_TRUE(run_both(g));
  }
  {
    // NaN / negative durations smuggled in through with_durations.
    for (const double bad : {std::numeric_limits<double>::quiet_NaN(), -1.0}) {
      DistGraph g(2);
      DistNode a;
      a.kind = NodeKind::kCompute;
      a.device = 0;
      a.duration_ms = 1.0;
      const auto id = g.add_node(a);
      g.finalize();
      std::vector<double> durations = g.durations();
      durations[static_cast<size_t>(id)] = bad;
      EXPECT_TRUE(run_both(g.with_durations(std::move(durations))));
    }
  }

  // Randomized sweep: seeded graphs mixing valid nodes with the mutations
  // above; the only allowed outcomes are typed rejection or completion.
  Rng rng(0xF00B);
  for (int round = 0; round < 200; ++round) {
    const int devices = rng.uniform_int(1, 4);
    DistGraph g(devices);
    const int nodes = rng.uniform_int(1, 12);
    for (int i = 0; i < nodes; ++i) {
      DistNode n;
      const int kind = rng.uniform_int(0, 2);
      try {
        if (kind == 0) {
          n.kind = NodeKind::kCompute;
          n.device = rng.uniform_int(0, devices);  // may be out of range
          n.duration_ms = rng.uniform(0.0, 2.0);
          n.output_bytes = rng.uniform_int(0, 2) == 0 ? 0 : rng.uniform_int(1, 1 << 20);
          g.add_node(n);
        } else if (kind == 1) {
          n.kind = NodeKind::kTransfer;
          n.link_from = rng.uniform_int(0, devices - 1);
          n.link_to = rng.uniform_int(0, devices);  // may be out of range
          n.duration_ms = rng.uniform(0.0, 2.0);
          g.add_node(n);
        } else {
          n.kind = NodeKind::kCollective;
          const int count = rng.uniform_int(0, 3);
          for (int p = 0; p < count; ++p) {
            n.participants.push_back(rng.uniform_int(0, devices));  // dups + range
          }
          n.duration_ms = rng.uniform(0.0, 2.0);
          g.add_node(n);
        }
      } catch (const CheckError&) {
        // add_node rejected the shape — a valid outcome.
      }
    }
    for (int e = 0; e < nodes; ++e) {
      if (g.node_count() < 2) break;
      try {
        g.add_edge(rng.uniform_int(0, g.node_count() - 1),
                   rng.uniform_int(0, g.node_count() - 1));
      } catch (const CheckError&) {
      }
    }
    if (g.node_count() > 0 && rng.uniform_int(0, 3) == 0) {
      const double bad =
          rng.uniform_int(0, 1) == 0 ? std::numeric_limits<double>::quiet_NaN() : -0.5;
      const int victim = rng.uniform_int(0, g.node_count() - 1);
      try {
        g.finalize();
        std::vector<double> durations = g.durations();
        durations[static_cast<size_t>(victim)] = bad;
        g = g.with_durations(std::move(durations));
      } catch (const CheckError&) {
        // finalize() rejected the shape; run_both sees the rejection too.
      }
    }
    SCOPED_TRACE("round " + std::to_string(round));
    run_both(g);
  }
}

TEST(Fuzz, ValidSeedsStillParse) {
  // Sanity for the corpus itself — a fuzzer over rejected-by-construction
  // seeds would prove nothing.
  const auto cluster = fuzz_cluster();
  EXPECT_TRUE(strategy::from_text(valid_plan_v1(), cluster.device_count()).has_value());
  EXPECT_NO_THROW((void)strategy::parse_plan(valid_plan_v2(), cluster));
  EXPECT_NO_THROW((void)faults::parse_fault_plan_json(valid_fault_json()));
  EXPECT_NO_THROW((void)ckpt::parse_journal(valid_journal()));
  {
    server::PlanRequest req;
    server::PlanReply rep;
    std::string error;
    EXPECT_TRUE(server::decode_request(
        server::encode_request(valid_server_request()), &req, &error))
        << error;
    EXPECT_TRUE(server::decode_reply(
        server::encode_reply(valid_server_reply()), &rep, &error))
        << error;
    EXPECT_EQ(rep.plan_text, valid_plan_v2());
  }

  const fs::path dir = fs::temp_directory_path() /
                       ("heterog_fuzz_seed_" + std::to_string(::getpid()));
  fs::remove_all(dir);
  fs::create_directories(dir);
  std::ofstream((dir / "evals.journal").string(), std::ios::binary)
      << valid_store_journal();
  store::PlanStoreOptions options;
  options.dir = dir.string();
  store::PlanStore store(options);
  EXPECT_EQ(store.size(), 6u);  // every seeded record survives a clean open
  EXPECT_EQ(store.stats().records_quarantined, 0u);
  std::error_code ec;
  fs::remove_all(dir, ec);
}

TEST(Fuzz, HealthStateDeserializeNeverCrashes) {
  Rng rng(0xF00B);
  health::HealthMonitor monitor(3, health::HealthPolicy{});
  monitor.set_rack_map({0, 0, 1});
  monitor.force_failure(2, 4, "failure");
  const std::string seed = monitor.serialize();
  for (int i = 0; i < kRounds; ++i) {
    expect_typed<health::HealthError>(
        [](const std::string& text) { (void)health::HealthMonitor::deserialize(text); },
        mutate(rng, seed), "HealthMonitor::deserialize");
  }
}

// Documents written by the writers at dd1a1fc ---------------------------------

std::string fixture(const std::string& name) {
  const auto text =
      read_file(std::string(HETEROG_SOURCE_DIR) + "/tests/fixtures/" + name);
  EXPECT_TRUE(text.has_value()) << "missing fixture " << name;
  return text.value_or("");
}

TEST(CodecFixtures, JournalRewritesByteForByte) {
  // rack16 MobileNet-v2 b64, chaos seed 6 with --health: a topology, two
  // recoveries, a fault plan and a health state with its domain section.
  const std::string text = fixture("journal_rack16_health.heterog");
  const ckpt::RunJournal j = ckpt::parse_journal(text);
  EXPECT_EQ(ckpt::to_text(j), text);
  EXPECT_EQ(cluster::cluster_fingerprint(j.cluster), j.cluster_crc);
  EXPECT_TRUE(j.cluster.has_topology());
  EXPECT_EQ(j.recoveries.size(), 2u);

  EXPECT_NE(j.health_state.find("\ndomain "), std::string::npos);
  EXPECT_EQ(health::HealthMonitor::deserialize(j.health_state).serialize(),
            j.health_state);
  EXPECT_EQ(strategy::to_text(strategy::parse_plan(j.plan_text, j.cluster), j.cluster),
            j.plan_text);
  EXPECT_EQ(faults::fault_plan_to_json(faults::parse_fault_plan_json(j.fault_plan_json)) +
                "\n",
            j.fault_plan_json);
}

TEST(CodecFixtures, StoreJournalRewritesByteForByte) {
  // fig3 MobileNet-v2 b512 heuristic plan: OOM and fitting evaluations.
  const std::string text = fixture("evals.journal");
  RecordScanner scanner(text);
  ScannedRecord rec = scanner.next();
  ASSERT_EQ(rec.status, ScannedRecord::Status::kOk);
  EXPECT_EQ(rec.payload, "heterog-store v1 gen 1");
  std::string rewritten = frame_record(rec.payload);
  size_t evals = 0, oom = 0;
  for (rec = scanner.next(); rec.status != ScannedRecord::Status::kEnd;
       rec = scanner.next()) {
    ASSERT_EQ(rec.status, ScannedRecord::Status::kOk) << rec.reason;
    uint64_t key = 0;
    sim::PlanEvaluation eval;
    ASSERT_TRUE(store::PlanStore::decode_eval(rec.payload, &key, &eval)) << rec.payload;
    rewritten += frame_record(store::PlanStore::encode_eval(key, eval));
    ++evals;
    oom += eval.oom && !eval.oom_devices.empty() ? 1 : 0;
  }
  EXPECT_EQ(rewritten, text);
  EXPECT_EQ(evals, 14u);
  EXPECT_GT(oom, 0u);

  const fs::path dir = fs::temp_directory_path() /
                       ("heterog_fixture_store_" + std::to_string(::getpid()));
  fs::remove_all(dir);
  fs::create_directories(dir);
  std::ofstream((dir / "evals.journal").string(), std::ios::binary) << text;
  {
    store::PlanStoreOptions options;
    options.dir = dir.string();
    options.read_only = true;
    store::PlanStore store(options);
    EXPECT_EQ(store.stats().records_loaded, evals);
    EXPECT_EQ(store.stats().records_quarantined, 0u);
  }
  std::error_code ec;
  fs::remove_all(dir, ec);
}

TEST(CodecFixtures, RpcDocumentsRewriteByteForByte) {
  std::string error;
  const std::string request_text = fixture("request.rpc");
  server::PlanRequest request;
  ASSERT_TRUE(server::decode_request(request_text, &request, &error)) << error;
  EXPECT_EQ(server::encode_request(request), request_text);
  EXPECT_EQ(request.seed, std::numeric_limits<uint64_t>::max());
  EXPECT_EQ(request.deadline_ms, 0.1 + 0.2);

  for (const char* name : {"reply_ok.rpc", "reply_rejected.rpc", "reply_error.rpc"}) {
    SCOPED_TRACE(name);
    const std::string text = fixture(name);
    server::PlanReply reply;
    ASSERT_TRUE(server::decode_reply(text, &reply, &error)) << error;
    EXPECT_EQ(server::encode_reply(reply), text);
  }
}

TEST(CodecFixtures, PlansRewriteByteForByte) {
  // 8-GPU testbed MobileNet-v2 b64 heuristic plan.
  const auto cluster = *cluster::cluster_from_name("8gpu");
  const std::string v1 = fixture("plan_v1.plan");
  const auto map = strategy::from_text(v1, cluster.device_count());
  ASSERT_TRUE(map.has_value());
  EXPECT_EQ(strategy::to_text(*map, cluster.device_count()), v1);
  const std::string v2 = fixture("plan_v2.plan");
  EXPECT_EQ(strategy::to_text(strategy::parse_plan(v2, cluster), cluster), v2);
  EXPECT_EQ(strategy::parse_plan(v2, cluster).group_actions, map->group_actions);
}

// Extreme values through every writer -------------------------------------------

const std::vector<double>& extreme_doubles() {
  using L = std::numeric_limits<double>;
  static const std::vector<double> values = {
      -0.0,          0.0,           L::denorm_min(), -L::denorm_min(),
      L::min() / 3,  L::min(),      L::max(),        L::lowest(),
      L::infinity(), -L::infinity(), L::quiet_NaN(), -L::quiet_NaN(),
      0.1 + 0.2,     1.0 / 3.0,     2.000004,        -123456.789e-300};
  return values;
}

uint64_t bits(double v) { return std::bit_cast<uint64_t>(v); }

TEST(CodecRoundTrip, NumbersReadBackBitForBit) {
  for (const double v : extreme_doubles()) {
    SCOPED_TRACE(format_double(v));
    EXPECT_EQ(bits(Fields(format_double(v)).real("value")), bits(v));
    EXPECT_EQ(bits(Fields(format_shortest(v)).real("value")), bits(v));
  }
  for (const int64_t v : {std::numeric_limits<int64_t>::min(), int64_t{-1}, int64_t{0},
                          std::numeric_limits<int64_t>::max()}) {
    EXPECT_EQ(Fields(std::to_string(v)).integer<int64_t>("value"), v);
  }
  const uint64_t u64_max = std::numeric_limits<uint64_t>::max();
  EXPECT_EQ(Fields(std::to_string(u64_max)).integer<uint64_t>("value"), u64_max);
  EXPECT_THROW(Fields("9223372036854775808").integer<int64_t>("value"), ParseError);
  EXPECT_THROW(Fields("18446744073709551616").integer<uint64_t>("value"), ParseError);
  for (const char* token : {"", "12x", "+5", "0x10", "1e999"}) {
    EXPECT_THROW(Fields(token).real("value"), ParseError) << token;
    EXPECT_THROW(Fields(token).integer<int64_t>("value"), ParseError) << token;
  }
  EXPECT_THROW(Fields("-1").integer<uint64_t>("value"), ParseError);
}

TEST(CodecRoundTrip, JournalKeepsExtremeValuesAndSpacedNames) {
  ckpt::RunJournal j;
  j.model_name = "my model  v2 ";
  j.meta = {{"note", "two  spaces and a tail "}, {"empty", ""}};
  std::vector<cluster::HostSpec> hosts(2);
  hosts[0].id = 0;
  hosts[0].name = "rack a  host 0";
  hosts[1].id = 1;
  hosts[1].name = " leading space";
  std::vector<cluster::DeviceSpec> devices(2);
  for (int d = 0; d < 2; ++d) {
    cluster::DeviceSpec& device = devices[static_cast<size_t>(d)];
    device.id = d;
    device.host = d;
    device.gflops_per_ms = std::numeric_limits<double>::denorm_min();
    device.memory_bytes = std::numeric_limits<int64_t>::max();
  }
  devices[1].name = "GPU one ";
  j.cluster = cluster::ClusterSpec(hosts, devices, std::numeric_limits<double>::max());
  j.cluster_crc = cluster::cluster_fingerprint(j.cluster);
  j.profiler_seed = std::numeric_limits<uint64_t>::max();
  j.retry_backoff_total_ms = -0.0;
  j.step_ms = extreme_doubles();
  j.total_steps = j.watermark = static_cast<int>(j.step_ms.size());
  ckpt::RecoveryRecord r;
  r.failed_devices = {std::numeric_limits<int32_t>::min(),
                      std::numeric_limits<int32_t>::max()};
  r.replan_wall_ms = std::numeric_limits<double>::quiet_NaN();
  r.pre_fault_iteration_ms = -std::numeric_limits<double>::infinity();
  j.recoveries = {r};

  const std::string text = ckpt::to_text(j);
  const ckpt::RunJournal back = ckpt::parse_journal(text);
  EXPECT_EQ(ckpt::to_text(back), text);
  EXPECT_EQ(back.model_name, j.model_name);
  EXPECT_EQ(back.meta, j.meta);
  EXPECT_EQ(back.cluster.host(0).name, hosts[0].name);
  EXPECT_EQ(back.cluster.host(1).name, hosts[1].name);
  EXPECT_EQ(back.cluster.device(1).name, devices[1].name);
  EXPECT_EQ(back.cluster.device(0).memory_bytes, std::numeric_limits<int64_t>::max());
  EXPECT_EQ(cluster::cluster_fingerprint(back.cluster), j.cluster_crc);
  EXPECT_EQ(back.profiler_seed, j.profiler_seed);
  EXPECT_EQ(bits(back.retry_backoff_total_ms), bits(-0.0));
  ASSERT_EQ(back.step_ms.size(), j.step_ms.size());
  for (size_t i = 0; i < j.step_ms.size(); ++i) {
    EXPECT_EQ(bits(back.step_ms[i]), bits(j.step_ms[i])) << "step " << i;
  }
  EXPECT_EQ(back.recoveries.at(0).failed_devices, r.failed_devices);
  EXPECT_TRUE(std::isnan(back.recoveries.at(0).replan_wall_ms));
}

TEST(CodecRoundTrip, StoreRecordsAndRepliesKeepExtremeValues) {
  for (const double v : extreme_doubles()) {
    SCOPED_TRACE(format_double(v));
    sim::PlanEvaluation eval;
    eval.per_iteration_ms = v;
    eval.cold_iteration_ms = -v;
    eval.computation_ms = v;
    eval.communication_ms = v;
    eval.peak_memory_bytes = {std::numeric_limits<int64_t>::min(), 0,
                              std::numeric_limits<int64_t>::max()};
    eval.oom_devices = {std::numeric_limits<int32_t>::max()};
    const std::string payload =
        store::PlanStore::encode_eval(std::numeric_limits<uint64_t>::max(), eval);
    uint64_t key = 0;
    sim::PlanEvaluation back;
    ASSERT_TRUE(store::PlanStore::decode_eval(payload, &key, &back));
    EXPECT_EQ(store::PlanStore::encode_eval(key, back), payload);
    EXPECT_EQ(key, std::numeric_limits<uint64_t>::max());
    EXPECT_EQ(bits(back.per_iteration_ms), bits(v));
    EXPECT_EQ(back.peak_memory_bytes, eval.peak_memory_bytes);

    server::PlanReply reply;
    reply.status = server::PlanReply::Status::kOk;
    reply.per_iteration_ms = v;
    reply.plan_text = "a plan line with  spaces\n\n";
    server::PlanReply got;
    std::string error;
    ASSERT_TRUE(server::decode_reply(server::encode_reply(reply), &got, &error)) << error;
    EXPECT_EQ(bits(got.per_iteration_ms), bits(v));
    EXPECT_EQ(got.plan_text, reply.plan_text);
  }
  server::PlanReply reply;
  reply.status = server::PlanReply::Status::kError;
  reply.error = "planner failure:  two  spaces ";
  server::PlanReply got;
  std::string error;
  ASSERT_TRUE(server::decode_reply(server::encode_reply(reply), &got, &error)) << error;
  EXPECT_EQ(got.error, reply.error);
}

TEST(CodecRoundTrip, HealthStateKeepsExtremeValues) {
  // Written by hand: the monitor's statistics are private, so the text
  // carries the extreme values and must survive a read and a write.
  std::string text =
      "health-v1\n"
      "policy 1 0.20000000000000001 3 1.3 3 4 3 0.10000000000000001 3 100 64 4 0 inf\n"
      "run 2147483647 -2147483648 1 -0 nan 0\n"
      "devices 2\n"
      "device 1 4.9406564584124654e-324 inf 5 -inf 0 0 0 -1\n"
      "device 3 1.7976931348623157e+308 -nan 2147483647 -0 1 2 3 7\n"
      "pending 1 1\n"
      "domain 1 0.59999999999999998 2\n"
      "rackmap 2 0 -2147483648\n"
      "confirmed 2 -1 7\n"
      "verdicts 1 -2147483648\n";
  EXPECT_EQ(health::HealthMonitor::deserialize(text).serialize(), text);
}

}  // namespace
}  // namespace heterog
