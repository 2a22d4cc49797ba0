// Model zoo factory.
//
// Scaled-down re-implementations of the four backbones the paper assigns to
// heterogeneous clients (ResNet-18, ShuffleNetV2, GoogLeNet, AlexNet) plus
// the CNN2 family used for the FedProto comparison. Every model is a
// SplitModel whose extractor ends in a fully connected layer of width
// `feature_dim` and whose classifier is a single FC layer, exactly as §3.2.1
// prescribes.
#pragma once

#include <compare>
#include <memory>
#include <string>

#include "models/split_model.hpp"
#include "utils/rng.hpp"

namespace fca::models {

enum class Arch {
  kMiniResNet,
  kMiniShuffleNet,
  kMiniGoogLeNet,
  kMiniAlexNet,
  kCnn2,  // FedProto-style two-conv CNN
};

std::string arch_name(Arch arch);

struct ModelConfig {
  Arch arch = Arch::kMiniResNet;
  int64_t in_channels = 1;
  int64_t image_size = 16;    // square inputs
  int64_t feature_dim = 64;   // paper uses 512; scaled for CPU budget
  int num_classes = 10;
  int64_t width = 8;          // base channel width of the backbone
  /// Per-arch variation knob: CNN2 output channels / ResNet stride scheme,
  /// mirroring the FedProto heterogeneity setup.
  int variant = 0;

  auto operator<=>(const ModelConfig&) const = default;
};

/// Builds a randomly initialized model; all parameters draw from `rng`.
std::unique_ptr<SplitModel> build_model(const ModelConfig& config, Rng& rng);

/// Multiply-adds of one sample's forward pass (the Conv2d and Linear
/// layers), from the model's structure: builds the model and runs one eval
/// forward of a zero image. A static per-sample cost, not a timing.
int64_t forward_macs(const ModelConfig& config);

/// The paper's client->architecture assignment: the four backbones are
/// distributed round-robin over client ids.
Arch heterogeneous_arch_for_client(int client_id);

// Individual extractor builders (exposed for tests).
nn::ModulePtr make_resnet_extractor(const ModelConfig& config, Rng& rng);
nn::ModulePtr make_shufflenet_extractor(const ModelConfig& config, Rng& rng);
nn::ModulePtr make_googlenet_extractor(const ModelConfig& config, Rng& rng);
nn::ModulePtr make_alexnet_extractor(const ModelConfig& config, Rng& rng);
nn::ModulePtr make_cnn2_extractor(const ModelConfig& config, Rng& rng);

}  // namespace fca::models
