// The command-line front end's declared flags (tools/cli.h over
// common/flags.h): the parser's grammar, the workload it resolves, and every
// heterog_cli / plan_client command line the docs show, parsed without
// running it.
//
// ctest label: cli (runs under ASan/UBSan in CI: argv is input from outside
// the program).
#include <filesystem>
#include <fstream>
#include <limits>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "cli.h"
#include "cluster/topology.h"
#include "common/flags.h"

namespace heterog {
namespace {

namespace fs = std::filesystem;

FlagValues parse(const char* command, const std::vector<std::string>& args) {
  return cli::command_flags(command)->parse(args);
}

TEST(CliFlags, NumbersAreReadInFullWithinBounds) {
  const FlagValues flags =
      parse("run", {"--model", "vgg19", "--batch", "0.5", "--chaos-seed",
                    "18446744073709551615", "--health", "--detect-threshold", "2.5"});
  EXPECT_EQ(flags.integer<uint64_t>("chaos-seed"), std::numeric_limits<uint64_t>::max());
  EXPECT_EQ(flags.real("batch"), 0.5);
  EXPECT_EQ(flags.real("detect-threshold"), 2.5);
  EXPECT_TRUE(flags.has("health"));
  EXPECT_FALSE(flags.has("steps"));
  EXPECT_EQ(flags.integer<int>("steps"), 20);  // the declared default

  const std::vector<std::string> base = {"--model", "vgg19", "--batch", "32"};
  for (const std::vector<std::string>& extra : std::vector<std::vector<std::string>>{
           {"--steps", "+4"},       {"--steps", "0x10"},       {"--steps", " 4"},
           {"--steps", "4 "},       {"--steps", ""},           {"--steps", "0"},
           {"--steps", "1e3"},      {"--chaos-seed", "18446744073709551616"},
           {"--batch2", "1"},       {"--detect-threshold", "0"}, {"--health", "yes"},
           {"--detect-threshold", "inf"},
           {"--steps"},             {"--steps", "--health"},   {"stray"}}) {
    std::vector<std::string> args = base;
    args.insert(args.end(), extra.begin(), extra.end());
    EXPECT_THROW(parse("run", args), UsageError) << args.back();
  }
  EXPECT_THROW(parse("run", {"--batch", "32"}), UsageError);  // --model is required
  EXPECT_THROW(parse("run", {"--model", "vgg19", "--batch", "inf"}), UsageError);
  EXPECT_THROW(
      parse("evaluate", {"--model", "vgg19", "--batch", "32", "--order", "FIFO"}),
      UsageError);
  EXPECT_THROW(parse("report", {"a.jsonl", "--csv"}), UsageError);
  EXPECT_EQ(parse("report", {"a.jsonl", "--csv", "c.csv", "b.jsonl"}).operands(),
            (std::vector<std::string>{"a.jsonl", "b.jsonl"}));
}

TEST(CliFlags, UsageErrorsNameTheFlag) {
  try {
    parse("plan", {"--model", "vgg19", "--batch", "32", "--episodes", "-4"});
    FAIL() << "no UsageError";
  } catch (const UsageError& e) {
    EXPECT_EQ(std::string(e.what()), "--episodes: value -4 out of range [0, 2147483647]");
  }
}

// --cluster-seed is a uint64_t: 2^32 must reach the generator whole, not
// truncated to seed 0's cluster, and label the cluster as given.
TEST(CliFlags, ClusterSeedReachesTheGeneratorInFull) {
  const cli::Workload w = cli::resolve_workload(
      parse("plan", {"--model", "vgg19", "--batch", "32", "--cluster-gen", "rack16",
                     "--cluster-seed", "4294967296"}));
  cluster::TopoGenOptions options = *cluster::topo_preset("rack16");
  options.seed = 4294967296ull;
  EXPECT_EQ(cluster::cluster_fingerprint(w.cluster),
            cluster::cluster_fingerprint(cluster::generate_cluster(options)));
  options.seed = 0;
  EXPECT_NE(cluster::cluster_fingerprint(w.cluster),
            cluster::cluster_fingerprint(cluster::generate_cluster(options)));
  EXPECT_EQ(w.cluster_label, "gen:rack16@4294967296");
}

/// Every heterog_cli / plan_client command line in the fenced code blocks of
/// README.md and docs/*.md, as "file:line: text" and its words. A leading
/// "$ ", a trailing "#" comment and a trailing "&" are dropped, and "\"
/// continuations are joined.
std::vector<std::pair<std::string, std::vector<std::string>>> documented_command_lines() {
  const fs::path source(HETEROG_SOURCE_DIR);
  std::vector<fs::path> docs = {source / "README.md"};
  for (const auto& entry : fs::directory_iterator(source / "docs")) {
    if (entry.path().extension() == ".md") docs.push_back(entry.path());
  }
  std::vector<std::pair<std::string, std::vector<std::string>>> out;
  for (const fs::path& doc : docs) {
    std::ifstream in(doc);
    std::string raw;
    std::string line;
    bool fenced = false;
    for (int line_no = 1; std::getline(in, raw); ++line_no) {
      if (raw.find_first_not_of(' ') != std::string::npos &&
          raw.compare(raw.find_first_not_of(' '), 3, "```") == 0) {
        fenced = !fenced;
        continue;
      }
      if (!fenced) continue;
      line += raw;
      if (!line.empty() && line.back() == '\\') {
        line.back() = ' ';
        continue;
      }
      if (line.rfind("$ ", 0) == 0) line.erase(0, 2);
      line = line.substr(0, line.find(" #"));
      std::istringstream words_in(line);
      std::vector<std::string> words;
      for (std::string word; words_in >> word;) words.push_back(word);
      if (!words.empty() && words.back() == "&") words.pop_back();
      const std::string program =
          words.empty() ? "" : fs::path(words.front()).filename().string();
      if (program == "heterog_cli" || program == "plan_client") {
        const std::string where = doc.filename().string() + ":" + std::to_string(line_no);
        out.emplace_back(where + ": " + line, words);
      }
      line.clear();
    }
  }
  return out;
}

TEST(CliDocs, DocumentedCommandLinesParse) {
  const auto lines = documented_command_lines();
  EXPECT_GE(lines.size(), 30u);
  for (const auto& [where, words] : lines) {
    SCOPED_TRACE(where);
    const bool client = fs::path(words.front()).filename() == "plan_client";
    const Flags* flags = client ? &cli::plan_client_flags()
                                : cli::command_flags(words.size() > 1 ? words[1] : "");
    ASSERT_NE(flags, nullptr) << "unknown subcommand";
    try {
      flags->parse({words.begin() + (client ? 1 : 2), words.end()});
    } catch (const UsageError& e) {
      ADD_FAILURE() << e.what();
    }
    for (size_t i = 0; i + 1 < words.size(); ++i) {
      models::ModelKind kind{};
      int layers = 0;
      if (words[i] != "--model") continue;
      EXPECT_TRUE(models::parse_model_name(words[i + 1], &kind, &layers)) << words[i + 1];
    }
  }
}

}  // namespace
}  // namespace heterog
