#include "fl/sampling.hpp"

#include <algorithm>
#include <cmath>

#include "utils/error.hpp"

namespace fca::fl {

std::vector<int> sample_clients(int total, double rate, Rng& rng) {
  FCA_CHECK(total > 0 && rate > 0.0 && rate <= 1.0);
  // Clamp to [1, total]: a tiny rate must still produce one participant
  // (an empty cohort would deadlock the round), and lround(rate * total)
  // can land on total + 1 for rates within rounding error of 1.
  const int count = std::clamp(
      static_cast<int>(std::lround(rate * static_cast<double>(total))), 1,
      total);
  std::vector<int> ids = rng.sample_without_replacement(total, count);
  std::sort(ids.begin(), ids.end());
  return ids;
}

}  // namespace fca::fl
