#include "ml/dataset.h"

#include "common/check.h"

namespace xfa {

bool Dataset::valid() const {
  for (const auto& row : rows) {
    if (row.size() != cardinality.size()) {
      // valid() is a query: trap in debug builds, report in release.
      XFA_DCHECK(false) << "row width mismatch";
      return false;
    }
    for (std::size_t c = 0; c < row.size(); ++c) {
      if (row[c] < 0 || row[c] >= cardinality[c]) {
        XFA_DCHECK(false) << "value out of cardinality range";
        return false;
      }
    }
  }
  return true;
}

std::vector<double> Classifier::predict_dist(
    const std::vector<int>& row) const {
  // One allocation: the result doubles as the scratch, so a classifier that
  // writes into it needs no copy and one that returns cached state gets one.
  std::vector<double> dist(label_cardinality());
  const std::span<const double> view = predict_dist_span(row, dist);
  if (view.data() == dist.data())
    dist.resize(view.size());
  else
    dist.assign(view.begin(), view.end());
  return dist;
}

int Classifier::predict(const std::vector<int>& row) const {
  const std::vector<double> dist = predict_dist(row);
  int best = 0;
  for (std::size_t v = 1; v < dist.size(); ++v)
    if (dist[v] > dist[best]) best = static_cast<int>(v);
  return best;
}

std::vector<double> laplace_distribution(const std::vector<double>& counts) {
  std::vector<double> dist(counts.size());
  double total = 0;
  for (const double c : counts) total += c;
  const double denominator = total + static_cast<double>(counts.size());
  for (std::size_t v = 0; v < counts.size(); ++v)
    dist[v] = (counts[v] + 1.0) / denominator;
  return dist;
}

}  // namespace xfa
