#include "nn/init.hpp"

#include <cmath>

#include "utils/error.hpp"
#include "utils/rng.hpp"

namespace fca::nn {

Tensor kaiming_uniform(Shape shape, int64_t fan_in, Rng& rng) {
  FCA_CHECK(fan_in > 0);
  const float bound = std::sqrt(6.0f / static_cast<float>(fan_in));
  return Tensor::rand(std::move(shape), rng, -bound, bound);
}

}  // namespace fca::nn
