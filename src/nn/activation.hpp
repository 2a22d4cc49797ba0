// Activation layers.
#pragma once

#include "nn/module.hpp"

namespace fca::nn {

class ReLU : public Module {
 public:
  Tensor forward(const Tensor& x, bool train) override;
  Tensor backward(const Tensor& grad_out) override;
  std::string name() const override { return "ReLU"; }

 private:
  Tensor cached_input_;
};

}  // namespace fca::nn
