#include "models/models.h"

#include <cmath>

#include "common/check.h"
#include "models/builder.h"

namespace heterog::models {

namespace {

using graph::OpId;
using graph::OpKind;

constexpr double kBytesPerMB = 1024.0 * 1024.0;

double mb(double height, double width, double channels) {
  return height * width * channels * 4.0 / kBytesPerMB;
}

/// 3x3 (or kxk) convolution workload at output resolution h x w.
struct ConvShape {
  double gflops;
  double out_mb;
  double param_mb;
};

ConvShape conv_shape(double h, double w, double cin, double cout, double k) {
  ConvShape s;
  s.gflops = 2.0 * k * k * cin * cout * h * w / 1e9;
  s.out_mb = mb(h, w, cout);
  s.param_mb = k * k * cin * cout * 4.0 / kBytesPerMB;
  return s;
}

OpId add_conv(ForwardBuilder& b, const std::string& name, const std::vector<OpId>& deps,
              double h, double w, double cin, double cout, double k,
              OpKind kind = OpKind::kConv2D) {
  const ConvShape s = conv_shape(h, w, cin, cout, k);
  return b.op(kind, name, deps, s.gflops, s.out_mb, s.param_mb);
}

OpId add_relu(ForwardBuilder& b, const std::string& name, OpId dep, double out_mb) {
  return b.op(OpKind::kRelu, name, {dep}, out_mb * kBytesPerMB * 2.0 / 1e9 / 4.0, out_mb);
}

OpId add_fc(ForwardBuilder& b, const std::string& name, const std::vector<OpId>& deps,
            double in_dim, double out_dim) {
  return b.op(OpKind::kMatMul, name, deps, 2.0 * in_dim * out_dim / 1e9,
              out_dim * 4.0 / kBytesPerMB, in_dim * out_dim * 4.0 / kBytesPerMB);
}

OpId add_loss(ForwardBuilder& b, OpId logits, double classes) {
  const OpId sm = b.op(OpKind::kSoftmax, "softmax", {logits}, classes * 4.0 / 1e9,
                       classes * 4.0 / kBytesPerMB);
  return b.op(OpKind::kLoss, "loss", {sm}, classes * 2.0 / 1e9, 4.0 / kBytesPerMB);
}

// --------------------------------------------------------------------------
// VGG-19: 16 conv layers in 5 blocks + 3 FC layers.
// Calibration: ~19.6 fwd GFLOPs/sample, ~100 MB activations/sample,
// ~548 MB parameters (the FC layers dominate).
graph::GraphDef build_vgg19(double batch) {
  ForwardBuilder b("vgg19", batch);
  OpId x = b.input(mb(224, 224, 3));
  const int plan[5] = {2, 2, 4, 4, 4};
  const double chans[5] = {64, 128, 256, 512, 512};
  double h = 224, cin = 3;
  for (int blk = 0; blk < 5; ++blk) {
    for (int i = 0; i < plan[blk]; ++i) {
      const std::string tag = "conv" + std::to_string(blk + 1) + "_" + std::to_string(i + 1);
      x = add_conv(b, tag, {x}, h, h, cin, chans[blk], 3);
      x = add_relu(b, tag + "/relu", x, mb(h, h, chans[blk]));
      cin = chans[blk];
    }
    h /= 2;
    x = b.op(OpKind::kPool, "pool" + std::to_string(blk + 1), {x}, 0.01, mb(h, h, cin));
  }
  x = add_fc(b, "fc6", {x}, 7 * 7 * 512, 4096);
  x = add_relu(b, "fc6/relu", x, 4096 * 4.0 / kBytesPerMB);
  x = add_fc(b, "fc7", {x}, 4096, 4096);
  x = add_relu(b, "fc7/relu", x, 4096 * 4.0 / kBytesPerMB);
  x = add_fc(b, "fc8", {x}, 4096, 1000);
  add_loss(b, x, 1000);
  return b.finalize(19.6, 100.0, 548.0);
}

// --------------------------------------------------------------------------
// ResNet-200: bottleneck stages [3, 24, 36, 3].
// Calibration: ~16 fwd GFLOPs/sample, ~210 MB activations/sample, ~260 MB
// parameters (sets the paper's OOM boundary: batch 192 per 8 GPUs fits,
// batch 384 does not).
graph::GraphDef build_resnet200(double batch) {
  ForwardBuilder b("resnet200", batch);
  OpId x = b.input(mb(224, 224, 3));
  x = add_conv(b, "stem/conv", {x}, 112, 112, 3, 64, 7);
  x = b.op(OpKind::kBatchNorm, "stem/bn", {x}, 0.01, mb(112, 112, 64));
  x = b.op(OpKind::kPool, "stem/pool", {x}, 0.01, mb(56, 56, 64));

  const int blocks[4] = {3, 24, 36, 3};
  const double chans[4] = {256, 512, 1024, 2048};
  const double spatial[4] = {56, 28, 14, 7};
  double cin = 64;
  for (int stage = 0; stage < 4; ++stage) {
    const double c = chans[stage];
    const double s = spatial[stage];
    for (int blk = 0; blk < blocks[stage]; ++blk) {
      const std::string tag = "s" + std::to_string(stage + 1) + "b" + std::to_string(blk + 1);
      const OpId shortcut = x;
      OpId y = add_conv(b, tag + "/reduce", {x}, s, s, cin, c / 4, 1);
      y = add_conv(b, tag + "/conv3x3", {y}, s, s, c / 4, c / 4, 3);
      y = add_conv(b, tag + "/expand", {y}, s, s, c / 4, c, 1);
      if (std::abs(cin - c) > 0.5) {
        const OpId proj = add_conv(b, tag + "/proj", {shortcut}, s, s, cin, c, 1);
        x = b.op(OpKind::kAdd, tag + "/add", {y, proj}, 0.01, mb(s, s, c));
      } else {
        x = b.op(OpKind::kAdd, tag + "/add", {y, shortcut}, 0.01, mb(s, s, c));
      }
      cin = c;
    }
  }
  x = b.op(OpKind::kPool, "avgpool", {x}, 0.01, 2048 * 4.0 / kBytesPerMB);
  x = add_fc(b, "fc", {x}, 2048, 1000);
  add_loss(b, x, 1000);
  return b.finalize(16.0, 210.0, 260.0);
}

// --------------------------------------------------------------------------
// Inception-v3: stem + 11 inception modules with 4-way branching.
// Calibration: ~5.7 fwd GFLOPs/sample, ~120 MB activations/sample, ~95 MB
// parameters.
graph::GraphDef build_inception_v3(double batch) {
  ForwardBuilder b("inception_v3", batch);
  OpId x = b.input(mb(299, 299, 3));
  x = add_conv(b, "stem/conv1", {x}, 149, 149, 3, 32, 3);
  x = add_conv(b, "stem/conv2", {x}, 147, 147, 32, 64, 3);
  x = b.op(OpKind::kPool, "stem/pool", {x}, 0.01, mb(73, 73, 64));
  x = add_conv(b, "stem/conv3", {x}, 71, 71, 64, 192, 3);
  x = b.op(OpKind::kPool, "stem/pool2", {x}, 0.01, mb(35, 35, 192));

  struct Module {
    double s;
    double cin;
    double cout;
  };
  const Module modules[11] = {
      {35, 192, 256},  {35, 256, 288},  {35, 288, 288},  {17, 288, 768},
      {17, 768, 768},  {17, 768, 768},  {17, 768, 768},  {17, 768, 768},
      {8, 768, 1280},  {8, 1280, 2048}, {8, 2048, 2048},
  };
  for (int m = 0; m < 11; ++m) {
    const auto& mod = modules[m];
    const std::string tag = "mixed" + std::to_string(m);
    const double bc = mod.cout / 4;  // per-branch output channels
    const OpId b1 = add_conv(b, tag + "/b1x1", {x}, mod.s, mod.s, mod.cin, bc, 1);
    OpId b2 = add_conv(b, tag + "/b3r", {x}, mod.s, mod.s, mod.cin, bc / 2, 1);
    b2 = add_conv(b, tag + "/b3", {b2}, mod.s, mod.s, bc / 2, bc, 3);
    OpId b3 = add_conv(b, tag + "/b5r", {x}, mod.s, mod.s, mod.cin, bc / 2, 1);
    b3 = add_conv(b, tag + "/b5a", {b3}, mod.s, mod.s, bc / 2, bc, 3);
    b3 = add_conv(b, tag + "/b5b", {b3}, mod.s, mod.s, bc, bc, 3);
    OpId b4 = b.op(OpKind::kPool, tag + "/pool", {x}, 0.01, mb(mod.s, mod.s, mod.cin));
    b4 = add_conv(b, tag + "/bp", {b4}, mod.s, mod.s, mod.cin, bc, 1);
    x = b.op(OpKind::kConcat, tag + "/concat", {b1, b2, b3, b4}, 0.01,
             mb(mod.s, mod.s, mod.cout));
  }
  x = b.op(OpKind::kPool, "avgpool", {x}, 0.01, 2048 * 4.0 / kBytesPerMB);
  x = add_fc(b, "fc", {x}, 2048, 1000);
  add_loss(b, x, 1000);
  return b.finalize(5.7, 120.0, 95.0);
}

// --------------------------------------------------------------------------
// MobileNet-v2: 17 inverted-residual blocks (expand / depthwise / project).
// Calibration: ~0.6 fwd GFLOPs/sample, ~80 MB activations/sample, ~14 MB
// parameters.
graph::GraphDef build_mobilenet_v2(double batch) {
  ForwardBuilder b("mobilenet_v2", batch);
  OpId x = b.input(mb(224, 224, 3));
  x = add_conv(b, "stem", {x}, 112, 112, 3, 32, 3);

  struct Block {
    double t;  // expansion
    double c;  // output channels
    int n;     // repeats
    double s;  // output spatial
  };
  const Block blocks[7] = {{1, 16, 1, 112}, {6, 24, 2, 56}, {6, 32, 3, 28},
                           {6, 64, 4, 14},  {6, 96, 3, 14}, {6, 160, 3, 7},
                           {6, 320, 1, 7}};
  double cin = 32;
  int idx = 0;
  for (const auto& blk : blocks) {
    for (int i = 0; i < blk.n; ++i) {
      const std::string tag = "ir" + std::to_string(idx++);
      const double mid = cin * blk.t;
      OpId y = add_conv(b, tag + "/expand", {x}, blk.s, blk.s, cin, mid, 1);
      y = add_conv(b, tag + "/dw", {y}, blk.s, blk.s, 1, mid, 3,
                   OpKind::kDepthwiseConv2D);
      y = add_conv(b, tag + "/project", {y}, blk.s, blk.s, mid, blk.c, 1);
      if (i > 0 && std::abs(cin - blk.c) < 0.5) {
        x = b.op(OpKind::kAdd, tag + "/add", {y, x}, 0.005, mb(blk.s, blk.s, blk.c));
      } else {
        x = y;
      }
      cin = blk.c;
    }
  }
  x = add_conv(b, "head/conv", {x}, 7, 7, 320, 1280, 1);
  x = b.op(OpKind::kPool, "avgpool", {x}, 0.005, 1280 * 4.0 / kBytesPerMB);
  x = add_fc(b, "fc", {x}, 1280, 1000);
  add_loss(b, x, 1000);
  return b.finalize(0.6, 80.0, 14.0);
}

// --------------------------------------------------------------------------
// NasNet-A (large): 18 cells, each with 5 separable-conv branch pairs feeding
// a concat — the heavily-branched DAG the paper highlights.
// Calibration: ~12 fwd GFLOPs/sample, ~200 MB activations/sample, ~340 MB
// parameters.
graph::GraphDef build_nasnet(double batch) {
  ForwardBuilder b("nasnet", batch);
  OpId x = b.input(mb(331, 331, 3));
  x = add_conv(b, "stem", {x}, 165, 165, 3, 96, 3);

  OpId prev = x;
  double cin = 96;
  const int cells = 18;
  for (int c = 0; c < cells; ++c) {
    const bool reduction = (c == 6 || c == 12);
    const double s = c < 6 ? 42 : (c < 12 ? 21 : 11);
    const double cout = c < 6 ? 168 : (c < 12 ? 336 : 672);
    const std::string tag = "cell" + std::to_string(c);
    std::vector<OpId> branch_outs;
    for (int p = 0; p < 5; ++p) {
      const std::string bt = tag + "/pair" + std::to_string(p);
      // Separable conv = depthwise + pointwise on each of the two inputs.
      OpId a = add_conv(b, bt + "/dwA", {x}, s, s, 1, cin, 5, OpKind::kDepthwiseConv2D);
      a = add_conv(b, bt + "/pwA", {a}, s, s, cin, cout / 5, 1);
      OpId d = (p % 2 == 0)
                   ? add_conv(b, bt + "/dwB", {prev}, s, s, 1, cin, 3,
                              OpKind::kDepthwiseConv2D)
                   : b.op(OpKind::kPool, bt + "/poolB", {prev}, 0.01, mb(s, s, cin));
      d = add_conv(b, bt + "/pwB", {d}, s, s, cin, cout / 5, 1);
      branch_outs.push_back(
          b.op(OpKind::kAdd, bt + "/add", {a, d}, 0.005, mb(s, s, cout / 5)));
    }
    const OpId cat = b.op(OpKind::kConcat, tag + "/concat", branch_outs, 0.01,
                          mb(s, s, cout));
    prev = x;
    x = cat;
    cin = cout;
    if (reduction) prev = x;  // spatial change: realign the skip input
  }
  x = b.op(OpKind::kPool, "avgpool", {x}, 0.01, 4032 * 4.0 / kBytesPerMB);
  x = add_fc(b, "fc", {x}, 4032, 1000);
  add_loss(b, x, 1000);
  // NasNet's heavy branch fan-in roughly doubles the backward working set
  // relative to the forward activations, so the forward target is kept low
  // enough that batch 192 / 8 GPUs trains under pure DP (Table 1).
  return b.finalize(12.0, 85.0, 340.0);
}

// --------------------------------------------------------------------------
// Transformer encoder stack (translation-scale: d=512, seq=330, 8 heads).
// Per-layer calibration: ~2.3 fwd GFLOPs/sample, 13 MB activations/sample,
// ~12.6 MB parameters; plus embedding + output projection (~130 MB).
struct NlpDims {
  double d_model;
  double seq;
  double heads;
  double vocab;
  double ffn_mult;
};

void add_encoder_layer(ForwardBuilder& b, OpId& x, const NlpDims& dims,
                       const std::string& tag, bool two_stream) {
  const double s = dims.seq, d = dims.d_model, h = dims.heads;
  const double token_mb = s * d * 4.0 / kBytesPerMB;
  const OpId ln1 = b.op(OpKind::kLayerNorm, tag + "/ln1", {x}, s * d * 8 / 1e9, token_mb);
  const OpId qkv = b.op(OpKind::kMatMul, tag + "/qkv", {ln1}, 2 * s * d * 3 * d / 1e9,
                        3 * token_mb, 3 * d * d * 4 / kBytesPerMB);
  OpId score = b.op(OpKind::kAttentionScore, tag + "/score", {qkv}, 2 * s * s * d / 1e9,
                    h * s * s * 4 / kBytesPerMB);
  if (two_stream) {
    // XLNet two-stream attention: a second score path over the query stream.
    const OpId score2 =
        b.op(OpKind::kAttentionScore, tag + "/score_q", {qkv}, 2 * s * s * d / 1e9,
             h * s * s * 4 / kBytesPerMB, d * d * 4 / kBytesPerMB);
    score = b.op(OpKind::kAdd, tag + "/score_merge", {score, score2}, 0.01,
                 h * s * s * 4 / kBytesPerMB);
  }
  const OpId probs = b.op(OpKind::kSoftmax, tag + "/probs", {score}, h * s * s * 4 / 1e9,
                          h * s * s * 4 / kBytesPerMB);
  const OpId ctx = b.op(OpKind::kAttentionContext, tag + "/ctx", {probs, qkv},
                        2 * s * s * d / 1e9, token_mb);
  const OpId proj = b.op(OpKind::kMatMul, tag + "/proj", {ctx}, 2 * s * d * d / 1e9,
                         token_mb, d * d * 4 / kBytesPerMB);
  const OpId add1 = b.op(OpKind::kAdd, tag + "/add1", {proj, x}, s * d * 2 / 1e9, token_mb);
  const OpId ln2 =
      b.op(OpKind::kLayerNorm, tag + "/ln2", {add1}, s * d * 8 / 1e9, token_mb);
  const double dff = d * dims.ffn_mult;
  const OpId ffn1 = b.op(OpKind::kMatMul, tag + "/ffn1", {ln2}, 2 * s * d * dff / 1e9,
                         s * dff * 4 / kBytesPerMB, d * dff * 4 / kBytesPerMB);
  const OpId relu = b.op(OpKind::kRelu, tag + "/gelu", {ffn1}, s * dff * 2 / 1e9,
                         s * dff * 4 / kBytesPerMB);
  const OpId ffn2 = b.op(OpKind::kMatMul, tag + "/ffn2", {relu}, 2 * s * dff * d / 1e9,
                         token_mb, dff * d * 4 / kBytesPerMB);
  x = b.op(OpKind::kAdd, tag + "/add2", {ffn2, add1}, s * d * 2 / 1e9, token_mb);
}

graph::GraphDef build_nlp(const std::string& name, const NlpDims& dims, int layers,
                          double batch, bool two_stream, double act_mb_per_layer,
                          double flops_per_layer, double param_mb_target) {
  ForwardBuilder b(name, batch);
  const double token_mb = dims.seq * dims.d_model * 4.0 / kBytesPerMB;
  OpId x = b.input(dims.seq * 4.0 / kBytesPerMB);
  x = b.op(OpKind::kEmbeddingLookup, "embedding", {x}, dims.seq * dims.d_model / 1e9,
           token_mb, dims.vocab * dims.d_model * 4.0 / kBytesPerMB);
  for (int l = 0; l < layers; ++l) {
    add_encoder_layer(b, x, dims, "layer" + std::to_string(l), two_stream);
  }
  // Output projection is tied to the embedding weights (standard for these
  // LMs), so the embedding stays the single largest parameter op.
  x = b.op(OpKind::kMatMul, "lm_head", {x},
           2 * dims.seq * dims.d_model * dims.vocab / 1e9,
           dims.seq * dims.vocab * 4.0 / kBytesPerMB / 16.0 /* top-k slice kept */);
  add_loss(b, x, dims.vocab / 16.0);
  const double act_target = act_mb_per_layer * layers + 4.0;
  const double flops_target = flops_per_layer * layers + 1.0;
  return b.finalize(flops_target, act_target, param_mb_target);
}

graph::GraphDef build_transformer(int layers, double batch) {
  if (layers <= 0) layers = 6;
  const NlpDims dims{512, 330, 8, 32000, 4.0};
  // Calibration: 13 MB act / 2.3 GF / 12.6 MB params per layer + 130 MB
  // embedding/head parameters.
  return build_nlp("transformer" + std::to_string(layers), dims, layers, batch, false,
                   13.0, 2.3, 12.6 * layers + 130.0);
}

/// The deeper (>24-layer) BERT/XLNet configurations are long-sequence
/// (phase-2 pretraining style, seq 512 instead of 384): the quadratic
/// attention term raises per-layer activation and compute by ~1.55x. This is
/// what puts the 48-layer rows past the OOM boundary at their small batch
/// sizes (Tables 1/3) while the 24-layer rows still train under pure DP.
constexpr double kLongSeqBoost = 1.55;

graph::GraphDef build_bert_large(int layers, double batch) {
  if (layers <= 0) layers = 24;
  const bool long_seq = layers > 24;
  const NlpDims dims{1024, long_seq ? 512.0 : 384.0, 16, 30522, 4.0};
  const double boost = long_seq ? kLongSeqBoost : 1.0;
  // Calibration: 33.3 MB act / 6.5 GF / 50 MB params per layer + 125 MB
  // embeddings -> 24 layers ~= 0.80 GB act/sample, 1.33 GB params.
  return build_nlp("bert" + std::to_string(layers), dims, layers, batch, false,
                   33.3 * boost, 6.5 * boost, 50.0 * layers + 125.0);
}

graph::GraphDef build_xlnet_large(int layers, double batch) {
  if (layers <= 0) layers = 24;
  const bool long_seq = layers > 24;
  const NlpDims dims{1024, long_seq ? 512.0 : 384.0, 16, 32000, 4.0};
  const double boost = long_seq ? kLongSeqBoost : 1.0;
  // Calibration: 33.0 MB act / 7.0 GF / 63.5 MB params per layer + 125 MB
  // embeddings -> 24 layers ~= 0.79 GB act/sample, 1.65 GB params.
  return build_nlp("xlnet" + std::to_string(layers), dims, layers, batch, true,
                   33.0 * boost, 7.0 * boost, 63.5 * layers + 125.0);
}

}  // namespace

const char* model_kind_name(ModelKind kind) {
  switch (kind) {
    case ModelKind::kVgg19:
      return "VGG-19";
    case ModelKind::kResNet200:
      return "ResNet200";
    case ModelKind::kInceptionV3:
      return "Inception_v3";
    case ModelKind::kMobileNetV2:
      return "MobileNet_v2";
    case ModelKind::kNasNet:
      return "NasNet";
    case ModelKind::kTransformer:
      return "Transformer";
    case ModelKind::kBertLarge:
      return "Bert-large";
    case ModelKind::kXlnetLarge:
      return "Xlnet-large";
  }
  return "Unknown";
}

namespace {

struct NamedModel {
  const char* name;
  ModelKind kind;
  int default_layers;
  const char* note;
};

constexpr NamedModel kNamedModels[] = {
    {"vgg19", ModelKind::kVgg19, 0, "16 conv + 3 FC, parameter-heavy FCs"},
    {"resnet200", ModelKind::kResNet200, 0, "bottleneck stages [3,24,36,3]"},
    {"inception_v3", ModelKind::kInceptionV3, 0, "11 branched modules"},
    {"mobilenet_v2", ModelKind::kMobileNetV2, 0, "17 inverted residuals"},
    {"nasnet", ModelKind::kNasNet, 0, "18 heavily-branched cells"},
    {"transformer", ModelKind::kTransformer, 6, "--layers selects depth"},
    {"bert", ModelKind::kBertLarge, 24, "--layers selects depth"},
    {"xlnet", ModelKind::kXlnetLarge, 24, "--layers selects depth"},
};

}  // namespace

bool parse_model_name(const std::string& name, ModelKind* kind, int* default_layers) {
  for (const auto& m : kNamedModels) {
    if (name == m.name) {
      *kind = m.kind;
      *default_layers = m.default_layers;
      return true;
    }
  }
  return false;
}

const char* model_note(ModelKind kind) {
  for (const auto& m : kNamedModels) {
    if (m.kind == kind) return m.note;
  }
  return "";
}

const std::vector<std::string>& known_model_names() {
  static const std::vector<std::string> names = [] {
    std::vector<std::string> out;
    for (const auto& m : kNamedModels) out.emplace_back(m.name);
    return out;
  }();
  return names;
}

graph::GraphDef build_forward(ModelKind kind, int layers, double batch) {
  check(batch > 0.0, "build_forward: batch must be positive");
  switch (kind) {
    case ModelKind::kVgg19:
      return build_vgg19(batch);
    case ModelKind::kResNet200:
      return build_resnet200(batch);
    case ModelKind::kInceptionV3:
      return build_inception_v3(batch);
    case ModelKind::kMobileNetV2:
      return build_mobilenet_v2(batch);
    case ModelKind::kNasNet:
      return build_nasnet(batch);
    case ModelKind::kTransformer:
      return build_transformer(layers, batch);
    case ModelKind::kBertLarge:
      return build_bert_large(layers, batch);
    case ModelKind::kXlnetLarge:
      return build_xlnet_large(layers, batch);
  }
  check_failed("build_forward: unknown model kind");
}

graph::GraphDef build_training(ModelKind kind, int layers, double batch) {
  return graph::build_training_graph(build_forward(kind, layers, batch));
}

std::vector<Benchmark> standard_benchmarks() {
  return {
      {"VGG-19", ModelKind::kVgg19, 0, 192, 288},
      {"ResNet200", ModelKind::kResNet200, 0, 192, 288},
      {"Inception_v3", ModelKind::kInceptionV3, 0, 192, 288},
      {"MobileNet_v2", ModelKind::kMobileNetV2, 0, 192, 288},
      {"NasNet", ModelKind::kNasNet, 0, 192, 288},
      {"Transformer (6 layers)", ModelKind::kTransformer, 6, 720, 1080},
      {"Bert-large (24 layers)", ModelKind::kBertLarge, 24, 48, 72},
      {"XlNet-large (24 layers)", ModelKind::kXlnetLarge, 24, 48, 72},
  };
}

std::vector<Benchmark> large_benchmarks() {
  return {
      {"ResNet200", ModelKind::kResNet200, 0, 384, 576},
      {"Transformer (48 layers)", ModelKind::kTransformer, 48, 120, 180},
      {"Bert-large (24 layers)", ModelKind::kBertLarge, 24, 96, 144},
      {"XlNet-large (24 layers)", ModelKind::kXlnetLarge, 24, 96, 144},
      {"Bert-large (48 layers)", ModelKind::kBertLarge, 48, 24, 36},
      {"XlNet-large (48 layers)", ModelKind::kXlnetLarge, 48, 24, 36},
  };
}

std::vector<Benchmark> cnn_benchmarks() {
  return {
      {"VGG-19", ModelKind::kVgg19, 0, 192, 288},
      {"ResNet200", ModelKind::kResNet200, 0, 192, 288},
      {"Inception_v3", ModelKind::kInceptionV3, 0, 192, 288},
      {"MobileNet_v2", ModelKind::kMobileNetV2, 0, 192, 288},
      {"NasNet", ModelKind::kNasNet, 0, 192, 288},
  };
}

}  // namespace heterog::models
