// Client sampling for partial participation.
#pragma once

#include <vector>

#include "utils/rng.hpp"

namespace fca::fl {

/// Samples round participants: max(1, round(rate * total)) distinct client
/// ids, uniformly without replacement, returned in ascending order. The
/// participant count is fixed across rounds, as §3.2 specifies.
std::vector<int> sample_clients(int total, double rate, Rng& rng);

}  // namespace fca::fl
