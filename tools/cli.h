// The command lines of heterog_cli and plan_client: each subcommand's
// declared flags (common/flags.h) and the workload the planning subcommands
// resolve from them. A library of its own, so tests read the declarations
// without running a command.
#pragma once

#include <map>
#include <string>
#include <string_view>

#include "cluster/cluster.h"
#include "common/flags.h"
#include "models/models.h"

namespace heterog::cli {

/// heterog_cli's flags for `command`; null for an unknown command.
const Flags* command_flags(std::string_view command);
/// heterog_cli's usage text, rendered from the declarations.
std::string usage();
const Flags& plan_client_flags();

/// --model at --layers (the family's default without it) and global --batch.
struct Model {
  std::string name;
  models::ModelKind kind = models::ModelKind::kVgg19;
  int layers = 0;
  double batch = 0.0;
  std::string batch_text;  // as given: the journal's metadata keeps it verbatim
  graph::GraphDef forward() const { return models::build_forward(kind, layers, batch); }
};

/// What `plan`, `run`, `evaluate` and `baselines` run: a model on a cluster,
/// grouped into at most `groups` op groups.
struct Workload : Model {
  cluster::ClusterSpec cluster;
  std::string cluster_label;  // in summaries and the journal's metadata
  int groups = 0;
};

/// --cluster names a fixed testbed, --cluster-gen a generator preset or JSON
/// spec (docs/topology.md) whose seed --cluster-seed overrides. UsageError
/// for an unknown model or cluster.
Workload resolve_workload(const FlagValues& flags);

/// The model a journal's "model", "layers" and "batch" metadata name, read
/// as the flags are; UsageError when they do not parse.
Model model_from_meta(const std::map<std::string, std::string>& meta);

}  // namespace heterog::cli
