// Equivalence tests for the detection-pipeline hot paths: the column-major
// DatasetView, the allocation-free predict_dist_span scoring path (checked
// against a brute-force naive Bayes oracle that shares no code with the
// classifier), and the block-parallel score_all, which must be bit-identical
// to serial per-row scoring.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "cfa/model.h"
#include "exec/thread_pool.h"
#include "ml/c45.h"
#include "ml/dataset_view.h"
#include "ml/naive_bayes.h"
#include "ml/ripper.h"
#include "sim/rng.h"

namespace xfa {
namespace {

/// Correlated discrete dataset (blocks of 4 columns sharing a base value),
/// the same shape the bench kernels use.
Dataset correlated_dataset(std::size_t rows, std::size_t columns,
                           std::uint64_t seed) {
  Dataset data;
  data.cardinality.assign(columns, 5);
  Rng rng(seed);
  for (std::size_t r = 0; r < rows; ++r) {
    std::vector<int> row(columns);
    for (std::size_t c = 0; c < columns; c += 4) {
      const int base = static_cast<int>(rng.uniform_int(5));
      for (std::size_t k = c; k < std::min(c + 4, columns); ++k)
        row[k] =
            rng.chance(0.8) ? base : static_cast<int>(rng.uniform_int(5));
    }
    data.rows.push_back(std::move(row));
  }
  return data;
}

std::vector<std::size_t> iota_columns(std::size_t n) {
  std::vector<std::size_t> columns(n);
  for (std::size_t i = 0; i < n; ++i) columns[i] = i;
  return columns;
}

ClassifierFactory factory_for(int kind) {
  switch (kind) {
    case 0:
      return [] { return std::make_unique<C45>(); };
    case 1:
      return [] { return std::make_unique<Ripper>(); };
    default:
      return [] { return std::make_unique<NaiveBayes>(); };
  }
}

std::unique_ptr<Classifier> classifier_for(int kind) {
  return factory_for(kind)();
}

/// Restores the default shared-pool size even when an assertion fails.
struct PoolGuard {
  ~PoolGuard() { resize_shared_pool(0); }
};

// -- DatasetView invariants ------------------------------------------------

TEST(DatasetViewTest, ColumnsMirrorRowMajorSource) {
  const Dataset data = correlated_dataset(64, 12, 17);
  const DatasetView view(data);
  ASSERT_EQ(view.rows(), data.rows.size());
  ASSERT_EQ(view.columns(), data.columns());
  int max_card = 0;
  for (std::size_t c = 0; c < view.columns(); ++c) {
    EXPECT_EQ(view.cardinality(c), data.cardinality[c]);
    max_card = std::max(max_card, data.cardinality[c]);
    const auto column = view.column(c);
    ASSERT_EQ(column.size(), data.rows.size());
    for (std::size_t r = 0; r < data.rows.size(); ++r)
      EXPECT_EQ(column[r], data.rows[r][c]) << "(" << r << "," << c << ")";
  }
  EXPECT_EQ(view.max_cardinality(), max_card);
}

// -- Per-family scoring paths ------------------------------------------------

class FamilyParamTest : public ::testing::TestWithParam<int> {};

TEST_P(FamilyParamTest, PredictDistSpanMatchesPredictDist) {
  const Dataset data = correlated_dataset(300, 16, 29);
  std::vector<std::size_t> features = iota_columns(16);
  features.pop_back();
  const auto classifier = classifier_for(GetParam());
  classifier->fit(DatasetView(data), features, 15);

  // predict_dist() copies the span, which aliases either the scratch (NBC)
  // or fit-time cached state (C4.5, RIPPER); both branches must carry
  // exactly the doubles the span does.
  std::vector<double> scratch(32, -1.0);
  for (const auto& row : data.rows) {
    const std::vector<double> dist = classifier->predict_dist(row);
    const std::span<const double> view =
        classifier->predict_dist_span(row, scratch);
    ASSERT_EQ(view.size(), dist.size());
    ASSERT_EQ(view.size(), classifier->label_cardinality());
    for (std::size_t v = 0; v < view.size(); ++v) EXPECT_EQ(view[v], dist[v]);
  }
}

TEST_P(FamilyParamTest, ScoreAllBitIdenticalAcrossThreadCounts) {
  const Dataset data = correlated_dataset(200, 12, 31);
  CrossFeatureModel model;
  ASSERT_TRUE(
      model.train(data, iota_columns(12), factory_for(GetParam()), 1).ok());

  PoolGuard guard;
  resize_shared_pool(1);
  const std::vector<EventScore> serial = model.score_all(data.rows);
  resize_shared_pool(8);
  const std::vector<EventScore> parallel = model.score_all(data.rows);

  ASSERT_EQ(serial.size(), data.rows.size());
  ASSERT_EQ(parallel.size(), data.rows.size());
  for (std::size_t r = 0; r < data.rows.size(); ++r) {
    // Bitwise equality, not EXPECT_DOUBLE_EQ: the batched path promises the
    // identical summation order, so the doubles must match exactly.
    EXPECT_EQ(serial[r].avg_match_count, parallel[r].avg_match_count);
    EXPECT_EQ(serial[r].avg_probability, parallel[r].avg_probability);
    const EventScore one = model.score(data.rows[r]);
    EXPECT_EQ(serial[r].avg_match_count, one.avg_match_count);
    EXPECT_EQ(serial[r].avg_probability, one.avg_probability);
  }
}

INSTANTIATE_TEST_SUITE_P(AllFamilies, FamilyParamTest,
                         ::testing::Values(0, 1, 2));

// -- Brute-force naive Bayes oracle ------------------------------------------

/// The paper's NBC posterior recomputed from the row-major training rows:
/// for each class, the log prior plus one Laplace-smoothed log conditional
/// per feature (std::log, class-then-feature order), then normalized through
/// exp. Every count is a fresh scan of the rows, so the oracle shares no
/// tables, memo or column layout with NaiveBayes; it follows the same
/// arithmetic order, so the doubles must match bit for bit. A value outside
/// a feature's range matches no training row and gets the zero-count term.
std::vector<double> nbc_oracle(const Dataset& train,
                               const std::vector<std::size_t>& features,
                               std::size_t label, const std::vector<int>& row) {
  const auto classes = static_cast<std::size_t>(train.cardinality[label]);
  const auto total = static_cast<double>(train.rows.size());
  std::vector<double> log_score(classes);
  for (std::size_t c = 0; c < classes; ++c) {
    double in_class = 0;
    for (const std::vector<int>& r : train.rows)
      if (r[label] == static_cast<int>(c)) in_class += 1.0;
    log_score[c] =
        std::log((in_class + 1.0) / (total + static_cast<double>(classes)));
    for (const std::size_t f : features) {
      double matches = 0;
      for (const std::vector<int>& r : train.rows)
        if (r[label] == static_cast<int>(c) && r[f] == row[f]) matches += 1.0;
      log_score[c] += std::log(
          (matches + 1.0) /
          (in_class + static_cast<double>(train.cardinality[f])));
    }
  }
  const double max_log = *std::max_element(log_score.begin(), log_score.end());
  std::vector<double> dist(classes);
  double sum = 0;
  for (std::size_t c = 0; c < classes; ++c) {
    dist[c] = std::exp(log_score[c] - max_log);
    sum += dist[c];
  }
  for (std::size_t c = 0; c < classes; ++c) dist[c] /= sum;
  return dist;
}

/// Uncorrelated random table: `columns` columns of cardinality 1..6, values
/// drawn from a prefix of each range so some classes and values never occur.
Dataset random_dataset(Rng& rng, std::size_t rows, std::size_t columns) {
  Dataset data;
  std::vector<int> used(columns);
  for (std::size_t c = 0; c < columns; ++c) {
    data.cardinality.push_back(1 + static_cast<int>(rng.uniform_int(6)));
    used[c] = 1 + static_cast<int>(rng.uniform_int(
                      static_cast<std::uint64_t>(data.cardinality[c])));
  }
  for (std::size_t r = 0; r < rows; ++r) {
    std::vector<int> row(columns);
    for (std::size_t c = 0; c < columns; ++c)
      row[c] = static_cast<int>(
          rng.uniform_int(static_cast<std::uint64_t>(used[c])));
    data.rows.push_back(std::move(row));
  }
  return data;
}

/// A row over the same columns whose values reach two past each end of the
/// range, so negative and too-large values are scored as unseen.
std::vector<int> probe_row(Rng& rng, const Dataset& data) {
  std::vector<int> row(data.columns());
  for (std::size_t c = 0; c < data.columns(); ++c)
    row[c] = static_cast<int>(rng.uniform_int(
                 static_cast<std::uint64_t>(data.cardinality[c]) + 4)) -
             2;
  return row;
}

TEST(NaiveBayesOracleTest, PredictDistSpanMatchesBruteForce) {
  Rng rng(41);
  std::size_t out_of_range = 0;
  for (int trial = 0; trial < 40; ++trial) {
    const std::size_t columns = 2 + rng.uniform_int(9);
    const Dataset data = random_dataset(rng, 1 + rng.uniform_int(120), columns);
    const auto label = static_cast<std::size_t>(rng.uniform_int(columns));
    // A shuffled, possibly partial feature subset: the classifier must read
    // exactly these columns, in this order.
    std::vector<std::size_t> features;
    for (std::size_t c = 0; c < columns; ++c)
      if (c != label && rng.chance(0.8)) features.push_back(c);
    for (std::size_t i = features.size(); i > 1; --i)
      std::swap(features[i - 1], features[rng.uniform_int(i)]);

    NaiveBayes nbc;
    nbc.fit(DatasetView(data), features, label);
    ASSERT_EQ(nbc.label_cardinality(),
              static_cast<std::size_t>(data.cardinality[label]));
    std::vector<double> scratch(nbc.label_cardinality() + 3, -1.0);
    for (int probe = 0; probe < 25; ++probe) {
      const std::vector<int> row =
          probe < 5 ? data.rows[rng.uniform_int(data.size())]
                    : probe_row(rng, data);
      for (const std::size_t f : features)
        if (row[f] < 0 || row[f] >= data.cardinality[f]) ++out_of_range;
      const std::vector<double> want = nbc_oracle(data, features, label, row);
      const std::span<const double> got = nbc.predict_dist_span(row, scratch);
      ASSERT_EQ(got.size(), want.size()) << "trial " << trial;
      EXPECT_EQ(got.data(), scratch.data()) << "NBC writes into the scratch";
      for (std::size_t c = 0; c < want.size(); ++c)
        EXPECT_EQ(got[c], want[c])  // bitwise, not approximate
            << "trial " << trial << " probe " << probe << " class " << c;
    }
  }
  EXPECT_GT(out_of_range, 0u) << "no probe exercised the unseen-value term";
}

TEST(NaiveBayesOracleTest, CrossFeatureScoreMatchesBruteForce) {
  // Algorithm 3 over NBC sub-models, every one recomputed by the oracle:
  // sub-model i labels column i and reads every other label column.
  Rng rng(43);
  const Dataset data = random_dataset(rng, 80, 7);
  CrossFeatureModel model;
  ASSERT_TRUE(model
                  .train(data, iota_columns(7),
                         [] { return std::make_unique<NaiveBayes>(); }, 1)
                  .ok());
  ASSERT_GT(model.submodel_count(), 0u);
  std::vector<std::size_t> labels;
  for (std::size_t i = 0; i < model.submodel_count(); ++i)
    labels.push_back(model.label_column_of(i));

  for (int probe = 0; probe < 50; ++probe) {
    const std::vector<int> row = probe_row(rng, data);
    double match = 0;
    double probability = 0;
    for (const std::size_t label : labels) {
      std::vector<std::size_t> features;
      for (const std::size_t col : labels)
        if (col != label) features.push_back(col);
      const std::vector<double> dist = nbc_oracle(data, features, label, row);
      const auto argmax = static_cast<std::size_t>(
          std::max_element(dist.begin(), dist.end()) - dist.begin());
      const int truth = row[label];
      if (truth >= 0 && argmax == static_cast<std::size_t>(truth)) match += 1.0;
      if (truth >= 0 && static_cast<std::size_t>(truth) < dist.size())
        probability += dist[static_cast<std::size_t>(truth)];
    }
    const auto count = static_cast<double>(labels.size());
    const EventScore score = model.score(row);
    EXPECT_EQ(score.avg_match_count, match / count) << "probe " << probe;
    EXPECT_EQ(score.avg_probability, probability / count) << "probe " << probe;
  }
}

// -- Golden tree -----------------------------------------------------------

// Pins the exact C4.5 tree grown from a fixed seed through the DatasetView
// fit path: any accidental change to candidate evaluation order, the
// stable partition, or the pruning arithmetic shows up as a diff here
// before it can silently shift every figure downstream.
TEST(C45GoldenTest, FixedSeedTreeIsStable) {
  Dataset data;
  data.cardinality = {3, 2, 3};  // f0, noise, label
  Rng rng(5);
  for (int i = 0; i < 120; ++i) {
    const int f0 = static_cast<int>(rng.uniform_int(3));
    const int label =
        rng.chance(0.9) ? f0 : static_cast<int>(rng.uniform_int(3));
    data.rows.push_back({f0, static_cast<int>(rng.uniform_int(2)), label});
  }
  C45 tree;
  tree.fit(DatasetView(data), {0, 1}, 2);
  EXPECT_EQ(tree.describe({"f0", "noise"}),
            "split on f0\n"
            "  = 0: -> class 0  (40/42)\n"
            "  = 1: -> class 1  (34/37)\n"
            "  = 2: -> class 2  (38/41)\n");
}

}  // namespace
}  // namespace xfa
