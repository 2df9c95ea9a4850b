#include "ml/dataset_view.h"

#include "common/check.h"

namespace xfa {

DatasetView::DatasetView(const Dataset& data)
    : rows_(data.rows.size()),
      cols_(data.cardinality.size()),
      cardinality_(data.cardinality) {
  for (const int card : cardinality_)
    max_cardinality_ = card > max_cardinality_ ? card : max_cardinality_;
  values_.resize(rows_ * cols_);
  for (std::size_t r = 0; r < rows_; ++r) {
    const std::vector<int>& row = data.rows[r];
    XFA_CHECK_EQ(row.size(), cols_) << "row width mismatch at row " << r;
    for (std::size_t c = 0; c < cols_; ++c) {
      XFA_DCHECK(row[c] >= 0 && row[c] < cardinality_[c])
          << "value out of cardinality range";
      values_[c * rows_ + r] = static_cast<std::int32_t>(row[c]);
    }
  }
}

}  // namespace xfa
