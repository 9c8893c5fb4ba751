#include "dvfs/equivalent_queue.h"

#include <stdexcept>

namespace eprons {

EquivalentQueue::EquivalentQueue(const ServiceModel* model,
                                 std::size_t queue_len, Work in_service_done)
    : model_(model), size_(queue_len), fresh_(in_service_done <= 0.0) {
  if (queue_len == 0) throw std::invalid_argument("empty queue");
  if (fresh_) return;  // serve everything from the shared cache lazily

  owned_.reserve(queue_len);
  owned_.push_back(model_->work().conditional_remaining(in_service_done));
  for (std::size_t i = 1; i < queue_len; ++i) {
    // R_ie = residual * work^(*i); build incrementally with one convolution
    // per queued request (n convolutions total, as in section III-C).
    owned_.push_back(model_->convolve_work(owned_.back()));
  }
}

const DiscreteDistribution& EquivalentQueue::at(std::size_t i) const {
  if (i >= size_) throw std::out_of_range("equivalent queue index");
  if (fresh_) return model_->fresh_convolution(i + 1);
  return owned_[i];
}

}  // namespace eprons
