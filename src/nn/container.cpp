#include "nn/container.hpp"

#include <algorithm>

#include "tensor/ops.hpp"
#include "utils/error.hpp"

namespace fca::nn {

Sequential& Sequential::add(ModulePtr m) {
  FCA_CHECK(m != nullptr);
  children_.push_back(std::move(m));
  return *this;
}

Tensor Sequential::forward(const Tensor& x, bool train) {
  Tensor cur = x;
  for (auto& c : children_) cur = c->forward(cur, train);
  return cur;
}

Tensor Sequential::backward(const Tensor& grad_out) {
  Tensor g = grad_out;
  for (auto it = children_.rbegin(); it != children_.rend(); ++it) {
    g = (*it)->backward(g);
  }
  return g;
}

void Sequential::collect_params(std::vector<Param*>& out) {
  for (auto& c : children_) c->collect_params(out);
}

void Sequential::collect_buffers(std::vector<BufferRef>& out,
                                 const std::string& prefix) {
  for (size_t i = 0; i < children_.size(); ++i) {
    children_[i]->collect_buffers(out, prefix + std::to_string(i) + ".");
  }
}

Residual::Residual(ModulePtr body, ModulePtr shortcut)
    : body_(std::move(body)), shortcut_(std::move(shortcut)) {
  FCA_CHECK(body_ != nullptr);
}

Tensor Residual::forward(const Tensor& x, bool train) {
  Tensor y = body_->forward(x, train);
  Tensor s = shortcut_ ? shortcut_->forward(x, train) : x;
  FCA_CHECK_MSG(y.same_shape(s), "Residual branch shapes differ: "
                                     << shape_to_string(y.shape()) << " vs "
                                     << shape_to_string(s.shape()));
  add_(y, s);
  return y;
}

Tensor Residual::backward(const Tensor& grad_out) {
  Tensor gx = body_->backward(grad_out);
  if (shortcut_) {
    add_(gx, shortcut_->backward(grad_out));
  } else {
    add_(gx, grad_out);
  }
  return gx;
}

void Residual::collect_params(std::vector<Param*>& out) {
  body_->collect_params(out);
  if (shortcut_) shortcut_->collect_params(out);
}

void Residual::collect_buffers(std::vector<BufferRef>& out,
                               const std::string& prefix) {
  body_->collect_buffers(out, prefix + "body.");
  if (shortcut_) shortcut_->collect_buffers(out, prefix + "shortcut.");
}

BranchConcat::BranchConcat(std::vector<ModulePtr> branches)
    : branches_(std::move(branches)) {
  FCA_CHECK(!branches_.empty());
  for (const auto& b : branches_) FCA_CHECK(b != nullptr);
}

Tensor BranchConcat::forward(const Tensor& x, bool train) {
  std::vector<Tensor> outs;
  outs.reserve(branches_.size());
  branch_channels_.clear();
  for (auto& b : branches_) {
    outs.push_back(b->forward(x, train));
    branch_channels_.push_back(outs.back().dim(1));
  }
  return concat_channels(outs);
}

Tensor BranchConcat::backward(const Tensor& grad_out) {
  FCA_CHECK_MSG(!branch_channels_.empty(),
                "BranchConcat::backward without a forward");
  Tensor gx;
  int64_t c_off = 0;
  for (size_t i = 0; i < branches_.size(); ++i) {
    const int64_t c = branch_channels_[i];
    Tensor slice = slice_channels(grad_out, c_off, c_off + c);
    Tensor g = branches_[i]->backward(slice);
    if (i == 0) {
      gx = g;
    } else {
      add_(gx, g);
    }
    c_off += c;
  }
  return gx;
}

void BranchConcat::collect_params(std::vector<Param*>& out) {
  for (auto& b : branches_) b->collect_params(out);
}

void BranchConcat::collect_buffers(std::vector<BufferRef>& out,
                                   const std::string& prefix) {
  for (size_t i = 0; i < branches_.size(); ++i) {
    branches_[i]->collect_buffers(out, prefix + "b" + std::to_string(i) + ".");
  }
}

ChannelShuffle::ChannelShuffle(int64_t groups) : groups_(groups) {
  FCA_CHECK(groups > 0);
}

Tensor ChannelShuffle::forward(const Tensor& x, bool train) {
  FCA_CHECK(x.ndim() == 4);
  const int64_t b = x.dim(0), c = x.dim(1), hw = x.dim(2) * x.dim(3);
  FCA_CHECK_MSG(c % groups_ == 0, "channels " << c << " not divisible by "
                                              << groups_ << " groups");
  if (train) cached_shape_ = x.shape();
  const int64_t per = c / groups_;
  Tensor out = Tensor::uninit(x.shape());
  for (int64_t i = 0; i < b; ++i) {
    for (int64_t g = 0; g < groups_; ++g) {
      for (int64_t j = 0; j < per; ++j) {
        const float* src = x.data() + (i * c + g * per + j) * hw;
        float* dst = out.data() + (i * c + j * groups_ + g) * hw;
        std::copy_n(src, hw, dst);
      }
    }
  }
  return out;
}

Tensor ChannelShuffle::backward(const Tensor& grad_out) {
  FCA_CHECK_MSG(!cached_shape_.empty(),
                "ChannelShuffle::backward without a training forward");
  FCA_CHECK_MSG(grad_out.shape() == cached_shape_,
                "ChannelShuffle::backward expects grad_out "
                    << shape_to_string(cached_shape_) << ", got "
                    << shape_to_string(grad_out.shape()));
  const int64_t b = grad_out.dim(0), c = grad_out.dim(1),
                hw = grad_out.dim(2) * grad_out.dim(3);
  const int64_t per = c / groups_;
  Tensor grad_in = Tensor::uninit(grad_out.shape());
  // Inverse of the forward permutation.
  for (int64_t i = 0; i < b; ++i) {
    for (int64_t g = 0; g < groups_; ++g) {
      for (int64_t j = 0; j < per; ++j) {
        const float* src = grad_out.data() + (i * c + j * groups_ + g) * hw;
        float* dst = grad_in.data() + (i * c + g * per + j) * hw;
        std::copy_n(src, hw, dst);
      }
    }
  }
  return grad_in;
}

}  // namespace fca::nn
