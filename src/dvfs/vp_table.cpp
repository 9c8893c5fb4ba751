#include "dvfs/vp_table.h"

#include <stdexcept>

namespace eprons {

VpTable::VpTable(const ServiceModel* model, std::size_t max_depth)
    : model_(model) {
  if (max_depth == 0) {
    throw std::invalid_argument("VpTable max_depth must be >= 1");
  }
  equivalents_.reserve(max_depth);
  for (std::size_t depth = 1; depth <= max_depth; ++depth) {
    // Copies (not pointers into the model's cache): the cache vector may
    // reallocate if someone later asks the model for a deeper convolution.
    equivalents_.push_back(model_->fresh_convolution(depth));
  }
}

}  // namespace eprons
