#include "models/factory.hpp"

#include "utils/error.hpp"

namespace fca::models {

std::unique_ptr<SplitModel> build_model(const ModelConfig& config, Rng& rng) {
  FCA_CHECK(config.in_channels >= 1 && config.image_size >= 4 &&
            config.feature_dim >= 1 && config.num_classes >= 2 &&
            config.width >= 4);
  nn::ModulePtr extractor;
  switch (config.arch) {
    case Arch::kMiniResNet:
      extractor = make_resnet_extractor(config, rng);
      break;
    case Arch::kMiniShuffleNet:
      extractor = make_shufflenet_extractor(config, rng);
      break;
    case Arch::kMiniGoogLeNet:
      extractor = make_googlenet_extractor(config, rng);
      break;
    case Arch::kMiniAlexNet:
      extractor = make_alexnet_extractor(config, rng);
      break;
    case Arch::kCnn2:
      extractor = make_cnn2_extractor(config, rng);
      break;
  }
  auto classifier = std::make_unique<nn::Linear>(config.feature_dim,
                                                 config.num_classes, rng);
  return std::make_unique<SplitModel>(arch_name(config.arch),
                                      std::move(extractor),
                                      std::move(classifier));
}

int64_t forward_macs(const ModelConfig& config) {
  Rng rng(0);
  const std::unique_ptr<SplitModel> model = build_model(config, rng);
  nn::MacCounter macs;
  model->forward(
      Tensor({1, config.in_channels, config.image_size, config.image_size}),
      /*train=*/false);
  return macs.count();
}

Arch heterogeneous_arch_for_client(int client_id) {
  // Matches the paper's assignment: clients 0,4,8,... ResNet; 1,5,9,...
  // ShuffleNetV2; 2,6,10,... GoogLeNet; 3,7,11,... AlexNet.
  switch (((client_id % 4) + 4) % 4) {
    case 0: return Arch::kMiniResNet;
    case 1: return Arch::kMiniShuffleNet;
    case 2: return Arch::kMiniGoogLeNet;
    default: return Arch::kMiniAlexNet;
  }
}

}  // namespace fca::models
