#include "comm/endpoint.hpp"

#include <limits>
#include <utility>

#include "utils/error.hpp"

namespace fca::comm {

Endpoint::Endpoint(Network& net, int rank) : net_(&net), rank_(rank) {
  FCA_CHECK(rank >= 0 && rank < net.size());
}

void Endpoint::send(int dst, int tag, std::span<const std::byte> payload) {
  net_->send(rank_, dst, tag, payload);
}

Bytes Endpoint::recv(int src, int tag) { return net_->recv(rank_, src, tag); }

std::optional<Bytes> Endpoint::try_recv(int src, int tag, Bytes storage) {
  return recv_with_deadline(src, tag, std::numeric_limits<double>::infinity(),
                            std::move(storage));
}

std::optional<Bytes> Endpoint::recv_with_deadline(int src, int tag,
                                                  double deadline_s,
                                                  Bytes storage) {
  // Validate before the reliable-fabric shortcut: a zero/negative (or NaN)
  // deadline used to be silently ignored when no fault plan was active and
  // only blow up once faults were enabled — fail loudly in both modes.
  FCA_CHECK_MSG(deadline_s > 0.0,
                "recv_with_deadline needs a positive deadline, got "
                    << deadline_s << " (src=" << src << ", tag=" << tag
                    << "); use +infinity for 'no deadline'");
  // A gather of one source makes the reliable-fabric shortcut and the
  // infinite-deadline choice.
  return std::move(net_->gather(rank_, std::span<const int>(&src, 1), tag,
                                deadline_s, std::span<Bytes>(&storage, 1))[0]);
}

void Endpoint::bcast_send(const std::vector<int>& dsts, int tag,
                          std::span<const std::byte> payload) {
  net_->broadcast(rank_, dsts, tag, payload);
}

}  // namespace fca::comm
