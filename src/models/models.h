// The paper's eight benchmark model families (Sec. 6.1): VGG19, ResNet200,
// Inception-v3, MobileNet-v2, NasNet, Transformer, BERT-large, XLNet-large.
//
// Generators emit structurally faithful forward DAGs; build_training() wraps
// them with backward + apply ops. Workload totals are calibrated to
// published model figures (see builder.h and DESIGN.md §2).
#pragma once

#include <string>
#include <vector>

#include "graph/graph.h"
#include "graph/training.h"

namespace heterog::models {

enum class ModelKind {
  kVgg19,
  kResNet200,
  kInceptionV3,
  kMobileNetV2,
  kNasNet,
  kTransformer,
  kBertLarge,
  kXlnetLarge,
};

const char* model_kind_name(ModelKind kind);

/// CLI/RPC model-name lookup shared by heterog_cli and the plan server:
/// "vgg19", "resnet200", "inception_v3", "mobilenet_v2", "nasnet",
/// "transformer", "bert", "xlnet". On a match fills `kind` and the family's
/// default layer depth (0 for the CNNs); returns false for unknown names.
bool parse_model_name(const std::string& name, ModelKind* kind, int* default_layers);

/// The names parse_model_name accepts, for usage text and docs.
const std::vector<std::string>& known_model_names();

/// One line on the family's structure, for model listings.
const char* model_note(ModelKind kind);

/// Builds the forward graph. `layers` selects depth for the NLP families
/// (Transformer / BERT / XLNet number of encoder layers); it is ignored for
/// the CNNs (pass 0).
graph::GraphDef build_forward(ModelKind kind, int layers, double batch);

/// Forward + backward + apply training DAG.
graph::GraphDef build_training(ModelKind kind, int layers, double batch);

/// One benchmark configuration as it appears in the paper's tables.
struct Benchmark {
  std::string label;    // e.g. "Transformer (6 layers)"
  ModelKind kind = ModelKind::kVgg19;
  int layers = 0;       // 0 = model default
  double batch_8gpu = 0.0;
  double batch_12gpu = 0.0;
};

/// The eight standard rows of Tables 1 / 4 (trainable under pure DP).
std::vector<Benchmark> standard_benchmarks();

/// The six large-model rows (pure DP OOMs; Tables 1 / 3 / 4 bottom).
/// Note: Table 1 labels the Transformer row "24 layers" while Table 3 labels
/// it "48 layers"; we follow Table 3 (48), which is consistent with the
/// memory arithmetic.
std::vector<Benchmark> large_benchmarks();

/// The five CNN rows used in Fig. 3(a) and Table 5.
std::vector<Benchmark> cnn_benchmarks();

}  // namespace heterog::models
