// Weight initialization.
#pragma once

#include "tensor/tensor.hpp"

namespace fca {
class Rng;
}

namespace fca::nn {

/// He/Kaiming uniform: U[-b, b] with b = sqrt(6 / fan_in) (gain for ReLU
/// folded into the constant, matching PyTorch's default for conv/linear).
Tensor kaiming_uniform(Shape shape, int64_t fan_in, Rng& rng);

}  // namespace fca::nn
