#include "core/fedclassavg_proto.hpp"

#include "autograd/ops.hpp"
#include "models/serialize.hpp"
#include "tensor/ops.hpp"
#include "utils/error.hpp"

namespace fca::core {

FedClassAvgProto::FedClassAvgProto(FedClassAvgProtoConfig config)
    : FedClassAvg(config.base), proto_config_(config) {
  FCA_CHECK(proto_config_.lambda >= 0.0f);
  FCA_CHECK_MSG(!config.base.share_all_weights,
                "FedClassAvg+Proto is a heterogeneous-model strategy; use "
                "plain FedClassAvg for the +weight variant");
}

void FedClassAvgProto::reset_prototypes() {
  protos_.reset(global_[0].dim(0), global_[0].dim(1));
}

void FedClassAvgProto::initialize(fl::FederatedRun& run) {
  FedClassAvg::initialize(run);
  reset_prototypes();
}

comm::Bytes FedClassAvgProto::initialize_lazy(fl::FederatedRun& run) {
  comm::Bytes payload = FedClassAvg::initialize_lazy(run);
  reset_prototypes();
  return payload;
}

comm::Bytes FedClassAvgProto::save_state() const {
  // [classifier W, classifier b, prototypes, seen-class mask].
  FCA_CHECK_MSG(global_.size() == 2, "global classifier not initialized");
  return models::serialize_tensors(
      {global_[0], global_[1], protos_.protos, protos_.mask()});
}

void FedClassAvgProto::load_state(std::span<const std::byte> state) {
  std::vector<Tensor> t = models::deserialize_tensors(state);
  FCA_CHECK_MSG(t.size() == 4,
                "FedClassAvg+Proto state must hold [W, b, protos, mask]");
  protos_.restore(std::move(t[2]), t[3]);
  global_ = {std::move(t[0]), std::move(t[1])};
}

comm::Bytes FedClassAvgProto::downlink(fl::FederatedRun& run) {
  (void)run;
  FCA_CHECK_MSG(!global_.empty(), "initialize() was not called");
  return models::serialize_tensors(
      {global_[0], global_[1], protos_.protos, protos_.mask()});
}

fl::ClientUpdate FedClassAvgProto::update(fl::FederatedRun& run, int round,
                                          fl::Client& client,
                                          std::span<const std::byte> down) {
  const std::vector<Tensor> msg = models::deserialize_tensors(down);
  models::SplitModel& model = client.model();
  const int64_t num_classes = model.num_classes();
  const int64_t d = model.feature_dim();
  const Shape protos_shape{num_classes, d};
  FCA_CHECK_MSG(msg.size() == 4 && msg[2].shape() == protos_shape,
                "FedClassAvg+Proto downlink must hold [W, b, protos "
                    << shape_to_string(protos_shape) << ", mask]");
  models::restore_values({msg[0], msg[1]}, model.classifier_parameters());
  const std::vector<bool> valid = fl::decode_mask(msg[3], num_classes);

  // Prototype-distance extension, in *cosine space*: pull the first view's
  // normalized features toward the normalized global prototype of their
  // class. Operating on the unit sphere keeps the pull compatible with the
  // SupCon geometry (a raw-space pull fights the contrastive term's
  // normalization and destabilizes training).
  ExtraTerm pull;
  Tensor protos_n;
  if (round > proto_config_.warmup_rounds && proto_config_.lambda > 0.0f) {
    protos_n = l2_normalize_rows(msg[2]);
    pull = [&](const ag::Variable& f, const std::vector<int>& labels) {
      const auto b = static_cast<int64_t>(labels.size());
      Tensor proto_rows({b, d});
      Tensor row_mask({b, d});
      for (int64_t i = 0; i < b; ++i) {
        const int y = labels[static_cast<size_t>(i)];
        if (!valid[static_cast<size_t>(y)]) continue;
        proto_rows.copy_row_from(i, protos_n, y);
        for (int64_t j = 0; j < d; ++j) row_mask[i * d + j] = 1.0f;
      }
      ag::Variable fn = ag::l2_normalize_rows(ag::slice_rows(f, 0, b));
      ag::Variable diff = ag::sub(fn, ag::Variable::constant(proto_rows));
      return ag::mul_scalar(ag::sum_squares(ag::mul_const(diff, row_mask)),
                            proto_config_.lambda / static_cast<float>(b));
    };
  }
  const double loss = run.local_train(
      [&] { return train_epoch(client, msg[0], msg[1], pull); });
  auto [protos, counts] = fl::local_prototypes(client);
  return {loss, models::serialize_tensors({model.classifier().weight().value,
                                           model.classifier().bias().value,
                                           protos, counts})};
}

void FedClassAvgProto::reduce(
    fl::FederatedRun& run, const fl::FederatedRun::SurvivorGather& gathered) {
  // Classifier averaging (eq. 3) over the leading [W, b] of each upload,
  // then the count-weighted merge of the trailing [protos, counts].
  const std::vector<double> weights = run.data_weights(gathered.survivors);
  std::vector<std::vector<models::TensorView>> uploads;
  std::vector<std::span<const models::TensorView>> classifiers;
  std::vector<float> w;
  uploads.reserve(gathered.payloads.size());
  for (size_t i = 0; i < gathered.payloads.size(); ++i) {
    uploads.push_back(models::view_tensors(gathered.payloads[i]));
    FCA_CHECK_MSG(uploads[i].size() == 4,
                  "FedClassAvg+Proto upload must hold [W, b, protos, counts]");
    classifiers.push_back(std::span(uploads[i]).first(2));
    w.push_back(static_cast<float>(weights[i]));
  }
  // Summed aside (global_'s shapes, not its values), so an upload whose
  // prototype tail merge() rejects leaves global_ as it was.
  std::vector<Tensor> clf_agg{Tensor::uninit(global_[0].shape()),
                              Tensor::uninit(global_[1].shape())};
  models::weighted_sum_into(classifiers, w, clf_agg);
  protos_.merge(uploads, 2);
  global_ = std::move(clf_agg);
}

}  // namespace fca::core
