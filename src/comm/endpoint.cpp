#include "comm/endpoint.hpp"

#include <cmath>

#include "utils/error.hpp"

namespace fca::comm {

Endpoint::Endpoint(Network& net, int rank) : net_(&net), rank_(rank) {
  FCA_CHECK(rank >= 0 && rank < net.size());
}

void Endpoint::send(int dst, int tag, std::span<const std::byte> payload) {
  net_->send(rank_, dst, tag, payload);
}

Bytes Endpoint::recv(int src, int tag) { return net_->recv(rank_, src, tag); }

std::optional<Bytes> Endpoint::try_recv(int src, int tag) {
  if (!net_->lossy()) return net_->recv(rank_, src, tag);
  return net_->try_recv(rank_, src, tag);
}

std::optional<Bytes> Endpoint::recv_with_deadline(int src, int tag,
                                                  double deadline_s) {
  // Validate before the reliable-fabric shortcut: a zero/negative (or NaN)
  // deadline used to be silently ignored when no fault plan was active and
  // only blow up once faults were enabled — fail loudly in both modes.
  FCA_CHECK_MSG(deadline_s > 0.0,
                "recv_with_deadline needs a positive deadline, got "
                    << deadline_s << " (src=" << src << ", tag=" << tag
                    << "); use +infinity for 'no deadline'");
  if (!net_->lossy()) return net_->recv(rank_, src, tag);
  if (!std::isfinite(deadline_s)) return net_->try_recv(rank_, src, tag);
  return net_->recv_within(rank_, src, tag, deadline_s);
}

void Endpoint::bcast_send(const std::vector<int>& dsts, int tag,
                          std::span<const std::byte> payload) {
  for (int dst : dsts) send(dst, tag, payload);
}

}  // namespace fca::comm
