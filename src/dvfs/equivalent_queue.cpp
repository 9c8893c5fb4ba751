#include "dvfs/equivalent_queue.h"

namespace eprons {

EquivalentQueue::EquivalentQueue(const ServiceModel* model,
                                 std::size_t queue_len, Work in_service_done)
    : model_(model),
      size_(queue_len),
      fresh_(in_service_done <= 0.0),
      done_(in_service_done) {
  if (queue_len == 0) throw std::invalid_argument("empty queue");
  if (fresh_) return;  // serve everything from the shared cache lazily

  const DiscreteDistribution& work = model_->work();
  const DiscreteDistribution::RemainingStart head =
      work.remaining_start(in_service_done);
  const auto chain = model_->residual_chain(head.bin, queue_len);
  CdfView* links = inline_links_.data();
  if (queue_len > kInlineLinks) {
    spilled_links_.resize(queue_len);
    links = spilled_links_.data();
  }
  // The reference chain's offsets: the head's from remaining_start, then
  // convolve_work's (offset + work offset), then truncated's + trim * step.
  double offset = head.offset;
  for (std::size_t i = 0; i < queue_len; ++i) {
    const ServiceModel::ResidualLink& link = *chain[i];
    if (i > 0) {
      offset = (offset + work.offset()) +
               static_cast<double>(link.trim) * work.step();
    }
    links[i] = CdfView{link.cdf, offset, work.step()};
  }
}

const DiscreteDistribution& EquivalentQueue::at(std::size_t i) const {
  check_index(i);
  if (fresh_) return model_->fresh_convolution(i + 1);
  if (reference_.empty()) {
    // R_ie = residual * work^(*i); build incrementally with one convolution
    // per queued request (n convolutions total, as in section III-C). All
    // at once, so that no returned reference moves.
    reference_.reserve(size_);
    reference_.push_back(model_->work().conditional_remaining(done_));
    while (reference_.size() < size_) {
      reference_.push_back(model_->convolve_work(reference_.back()));
    }
  }
  return reference_[i];
}

}  // namespace eprons
