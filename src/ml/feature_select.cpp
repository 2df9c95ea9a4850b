#include "ml/feature_select.h"

#include <algorithm>
#include <cmath>
#include <cstdio>

#include "common/check.h"
#include "exec/parallel_for.h"
#include "ml/dataset_view.h"
#include "ml/log2_cache.h"

namespace xfa {
namespace {

/// Shared arithmetic for the oracle and the fused pass: given the joint and
/// marginal counts of one column pair, sum the MI terms in row-major value
/// order. Templated on the log2 implementation so the memoized pass produces
/// the exact doubles plain std::log2 would (LogMemo stores the first libm
/// result per distinct ratio; every operation and its order is identical).
template <class Log2>
double mi_from_counts(std::span<const std::int32_t> joint,
                      std::span<const std::int32_t> marginal_x,
                      std::span<const std::int32_t> marginal_y,
                      std::size_t rows, Log2&& log2_of) {
  const auto n = static_cast<double>(rows);
  double mi = 0;
  for (std::size_t x = 0; x < marginal_x.size(); ++x) {
    if (marginal_x[x] == 0) continue;
    const double cx = marginal_x[x];
    for (std::size_t y = 0; y < marginal_y.size(); ++y) {
      const std::int32_t cxy = joint[x * marginal_y.size() + y];
      if (cxy == 0) continue;
      const double cy = marginal_y[y];
      // p(x,y) * log2(p(x,y) / (p(x) p(y))), with the three probabilities
      // expanded to counts so the ratio is exact small-integer arithmetic.
      const double ratio =
          (static_cast<double>(cxy) * n) / (cx * cy);
      mi += (static_cast<double>(cxy) / n) * log2_of(ratio);
    }
  }
  return mi;
}

/// Evenly-strided row subsample: indices t * rows / limit for t in
/// [0, limit). limit == 0 or >= rows keeps every row. Deterministic, order-
/// preserving, and independent of thread count.
std::vector<std::size_t> sampled_rows(std::size_t rows, std::size_t limit) {
  std::vector<std::size_t> sample;
  if (limit == 0 || limit >= rows) {
    sample.resize(rows);
    for (std::size_t r = 0; r < rows; ++r) sample[r] = r;
    return sample;
  }
  sample.resize(limit);
  for (std::size_t t = 0; t < limit; ++t) sample[t] = t * rows / limit;
  return sample;
}

/// Sorts ranked entries by descending score, ties by ascending column — the
/// deterministic presentation order every consumer (top-k cut, reports,
/// persistence) relies on.
void sort_ranking(std::vector<RankedFeature>& ranked) {
  std::sort(ranked.begin(), ranked.end(),
            [](const RankedFeature& a, const RankedFeature& b) {
              if (a.score != b.score) return a.score > b.score;
              return a.column < b.column;
            });
}

/// One fused pass per candidate: every pairwise joint histogram against the
/// other candidates is counted from the column-major spans, then folded into
/// MI terms through one memoized log2 table owned by the task. Writes only
/// scores[slot], so parallel execution is bit-identical to serial.
void rank_mutual_information(const DatasetView& view,
                             const std::vector<std::size_t>& candidates,
                             const std::vector<std::size_t>& sample,
                             std::vector<double>& scores,
                             std::size_t threads) {
  // Marginals over the sampled rows, shared read-only by every task.
  std::vector<std::vector<std::int32_t>> marginals(candidates.size());
  for (std::size_t i = 0; i < candidates.size(); ++i) {
    const std::size_t col = candidates[i];
    marginals[i].assign(static_cast<std::size_t>(view.cardinality(col)), 0);
    const std::span<const std::int32_t> values = view.column(col);
    for (const std::size_t r : sample) ++marginals[i][values[r]];
  }

  const auto rank_one = [&](std::size_t i) {
    Log2Memo log2_memo;
    const std::span<const std::int32_t> xs = view.column(candidates[i]);
    const std::size_t card_x = marginals[i].size();
    std::vector<std::int32_t> joint;
    double total = 0;
    for (std::size_t j = 0; j < candidates.size(); ++j) {
      if (j == i) continue;
      const std::span<const std::int32_t> ys = view.column(candidates[j]);
      const std::size_t card_y = marginals[j].size();
      joint.assign(card_x * card_y, 0);
      for (const std::size_t r : sample) ++joint[xs[r] * card_y + ys[r]];
      total += mi_from_counts(joint, marginals[i], marginals[j],
                              sample.size(),
                              [&log2_memo](double v) { return log2_memo(v); });
    }
    scores[i] =
        candidates.size() > 1
            ? total / static_cast<double>(candidates.size() - 1)
            : 0.0;
  };
  if (threads == 1) {
    for (std::size_t i = 0; i < candidates.size(); ++i) rank_one(i);
  } else {
    parallel_for(shared_pool(), candidates.size(), rank_one);
  }
}

/// Trains one sub-model per candidate on the leading rows and scores its
/// match accuracy (the Algorithm-2 quantity) on the held-out tail. The head
/// dataset and the tail rows are materialized once from the view and shared
/// read-only by every task; each task scores through one reused scratch.
void rank_submodel_accuracy(const DatasetView& view,
                            const std::vector<std::size_t>& candidates,
                            const ClassifierFactory& factory,
                            double holdout_fraction,
                            std::vector<double>& scores,
                            std::size_t threads) {
  const std::size_t rows = view.rows();
  if (rows < 2) {
    std::fill(scores.begin(), scores.end(), 0.0);
    return;
  }
  const double fraction = std::clamp(holdout_fraction, 0.0, 1.0);
  const std::size_t holdout = std::clamp<std::size_t>(
      static_cast<std::size_t>(static_cast<double>(rows) * fraction), 1,
      rows - 1);
  const std::size_t head_rows = rows - holdout;

  // Row-major copies: fit() takes a view of the head rows, and
  // predict_dist_span() takes full-width tail rows.
  const auto row_at = [&view](std::size_t r) {
    std::vector<int> row(view.columns());
    for (std::size_t c = 0; c < row.size(); ++c) row[c] = view.column(c)[r];
    return row;
  };
  Dataset head;
  for (std::size_t c = 0; c < view.columns(); ++c)
    head.cardinality.push_back(view.cardinality(c));
  head.rows.reserve(head_rows);
  for (std::size_t r = 0; r < head_rows; ++r) head.rows.push_back(row_at(r));
  const DatasetView head_view(head);
  std::vector<std::vector<int>> tail;
  tail.reserve(holdout);
  for (std::size_t r = head_rows; r < rows; ++r) tail.push_back(row_at(r));

  const auto rank_one = [&](std::size_t i) {
    std::vector<std::size_t> features;
    features.reserve(candidates.size() - 1);
    for (const std::size_t col : candidates)
      if (col != candidates[i]) features.push_back(col);
    const auto classifier = factory();
    classifier->fit(head_view, features, candidates[i]);
    std::vector<double> scratch(classifier->label_cardinality());
    std::size_t matched = 0;
    for (const std::vector<int>& row : tail) {
      const std::span<const double> dist =
          classifier->predict_dist_span(row, scratch);
      // First maximum wins, as in Classifier::predict().
      std::size_t best = 0;
      for (std::size_t v = 1; v < dist.size(); ++v)
        if (dist[v] > dist[best]) best = v;
      if (static_cast<int>(best) == row[candidates[i]]) ++matched;
    }
    scores[i] = static_cast<double>(matched) / static_cast<double>(holdout);
  };
  if (threads == 1) {
    for (std::size_t i = 0; i < candidates.size(); ++i) rank_one(i);
  } else {
    parallel_for(shared_pool(), candidates.size(), rank_one);
  }
}

}  // namespace

const char* to_string(FeatureRanker ranker) {
  switch (ranker) {
    case FeatureRanker::None: return "none";
    case FeatureRanker::MutualInformation: return "mutual-info";
    case FeatureRanker::SubmodelAccuracy: return "submodel-accuracy";
  }
  return "?";
}

double mutual_information(std::span<const std::int32_t> x, int cardinality_x,
                          std::span<const std::int32_t> y, int cardinality_y) {
  XFA_CHECK_EQ(x.size(), y.size());
  XFA_CHECK_GT(cardinality_x, 0);
  XFA_CHECK_GT(cardinality_y, 0);
  if (x.empty()) return 0;
  const auto card_x = static_cast<std::size_t>(cardinality_x);
  const auto card_y = static_cast<std::size_t>(cardinality_y);
  std::vector<std::int32_t> joint(card_x * card_y, 0);
  std::vector<std::int32_t> marginal_x(card_x, 0);
  std::vector<std::int32_t> marginal_y(card_y, 0);
  for (std::size_t r = 0; r < x.size(); ++r) {
    const auto vx = static_cast<std::size_t>(x[r]);
    const auto vy = static_cast<std::size_t>(y[r]);
    XFA_CHECK_LT(vx, card_x);
    XFA_CHECK_LT(vy, card_y);
    ++joint[vx * card_y + vy];
    ++marginal_x[vx];
    ++marginal_y[vy];
  }
  return mi_from_counts(joint, marginal_x, marginal_y, x.size(),
                        [](double v) { return std::log2(v); });
}

FeatureRanking rank_features(const DatasetView& view,
                             const std::vector<std::size_t>& candidates,
                             const FeatureSelectionConfig& config,
                             const ClassifierFactory& factory,
                             std::size_t threads) {
  for (const std::size_t col : candidates)
    XFA_CHECK_LT(col, view.columns()) << "ranking column out of range";

  FeatureRanking ranking;
  ranking.ranker = config.ranker;
  ranking.ranked.resize(candidates.size());
  std::vector<double> scores(candidates.size(), 0.0);

  switch (config.ranker) {
    case FeatureRanker::None:
      break;  // every candidate keeps score 0, input order preserved below
    case FeatureRanker::MutualInformation: {
      const std::vector<std::size_t> sample =
          sampled_rows(view.rows(), config.max_rank_rows);
      rank_mutual_information(view, candidates, sample, scores, threads);
      break;
    }
    case FeatureRanker::SubmodelAccuracy:
      rank_submodel_accuracy(view, candidates, factory,
                             config.holdout_fraction, scores, threads);
      break;
  }

  for (std::size_t i = 0; i < candidates.size(); ++i)
    ranking.ranked[i] = {candidates[i], scores[i]};
  if (config.ranker != FeatureRanker::None) sort_ranking(ranking.ranked);
  return ranking;
}

std::vector<std::size_t> select_columns(const FeatureRanking& ranking,
                                        std::size_t top_k, double min_score) {
  std::vector<std::size_t> survivors;
  survivors.reserve(ranking.ranked.size());
  for (const RankedFeature& feature : ranking.ranked) {
    if (top_k != 0 && survivors.size() == top_k) break;
    if (feature.score < min_score) break;  // ranked descending: all below
    survivors.push_back(feature.column);
  }
  std::sort(survivors.begin(), survivors.end());
  return survivors;
}

std::string describe_ranking(const FeatureRanking& ranking,
                             const std::vector<std::string>& names,
                             std::size_t top_n) {
  std::string out = "feature ranking (";
  out += to_string(ranking.ranker);
  out += "):\n";
  const std::size_t shown = std::min(top_n, ranking.ranked.size());
  for (std::size_t i = 0; i < shown; ++i) {
    const RankedFeature& feature = ranking.ranked[i];
    char line[160];
    const std::string name = feature.column < names.size()
                                 ? names[feature.column]
                                 : "col" + std::to_string(feature.column);
    std::snprintf(line, sizeof(line), "  %3zu. [%3zu] %-40s %.6f\n", i + 1,
                  feature.column, name.c_str(), feature.score);
    out += line;
  }
  if (shown < ranking.ranked.size()) {
    out += "  ... " + std::to_string(ranking.ranked.size() - shown) +
           " more\n";
  }
  return out;
}

}  // namespace xfa
