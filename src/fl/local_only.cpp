#include "fl/local_only.hpp"

namespace fca::fl {

ClientUpdate LocalOnly::update(FederatedRun& run, int round, Client& client,
                               std::span<const std::byte> down) {
  (void)round;
  (void)down;
  return {run.local_train([&] { return client.train_epoch_supervised(); }),
          {}};
}

}  // namespace fca::fl
