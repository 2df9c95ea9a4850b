#include "checks.h"

#include <cmath>
#include <cstring>
#include <set>
#include <sstream>

#include "features/schema.h"

namespace perfbench {
namespace {

bool same_bits(double a, double b) {
  return std::memcmp(&a, &b, sizeof(double)) == 0;
}

template <typename... Parts>
std::string message(const Parts&... parts) {
  std::ostringstream out;
  out.precision(17);
  (out << ... << parts);
  return out.str();
}

std::size_t count_in(const std::vector<xfa::SimTime>& times, xfa::SimTime lo,
                     xfa::SimTime hi) {
  std::size_t count = 0;
  for (const xfa::SimTime t : times)
    if (t > lo && t <= hi) ++count;
  return count;
}

}  // namespace

std::string same_trace(const xfa::RawTrace& a, const xfa::RawTrace& b) {
  if (a.rows.size() != b.rows.size() || a.times.size() != b.times.size())
    return message("row counts differ: ", a.rows.size(), " vs ",
                   b.rows.size());
  if (a.labels != b.labels) return "labels differ";
  for (std::size_t i = 0; i < a.times.size(); ++i)
    if (!same_bits(a.times[i], b.times[i]))
      return message("time of row ", i, " differs");
  for (std::size_t i = 0; i < a.rows.size(); ++i) {
    if (a.rows[i].size() != b.rows[i].size())
      return message("width of row ", i, " differs");
    for (std::size_t c = 0; c < a.rows[i].size(); ++c)
      if (!same_bits(a.rows[i][c], b.rows[i][c]))
        return message("row ", i, " column ", c, " differs: ", a.rows[i][c],
                       " vs ", b.rows[i][c]);
  }
  return {};
}

std::string trace_shape(const xfa::RawTrace& trace, xfa::SimTime duration,
                        xfa::SimTime interval, std::size_t width) {
  const auto expected =
      static_cast<std::size_t>(std::floor(duration / interval + 1e-9));
  if (trace.rows.size() != expected || trace.times.size() != expected)
    return message(trace.rows.size(), " rows, expected ", expected);
  for (std::size_t i = 0; i < expected; ++i) {
    if (trace.times[i] != interval * static_cast<double>(i + 1))
      return message("row ", i, " sampled at ", trace.times[i]);
    if (trace.rows[i].size() != width)
      return message("row ", i, " is ", trace.rows[i].size(),
                     " wide, expected ", width);
    for (const double value : trace.rows[i])
      if (!std::isfinite(value)) return message("row ", i, " not finite");
  }
  return {};
}

std::string labels_from_onset(const xfa::RawTrace& trace, xfa::SimTime onset) {
  if (trace.labels.size() != trace.times.size())
    return message(trace.labels.size(), " labels for ", trace.times.size(),
                   " rows");
  for (std::size_t i = 0; i < trace.times.size(); ++i) {
    const int expected = trace.times[i] > onset ? 1 : 0;
    if (trace.labels[i] != expected)
      return message("label of row ", i, " (t=", trace.times[i], ") is ",
                     trace.labels[i], ", onset ", onset);
  }
  return {};
}

std::string delivery(const xfa::ScenarioSummary& summary, bool normal) {
  if (summary.data_delivered > summary.data_originated)
    return message(summary.data_delivered, " delivered > ",
                   summary.data_originated, " originated");
  if (normal && summary.data_delivered == 0)
    return "normal trace delivered no data";
  return {};
}

std::string audit_recount(const xfa::RawTrace& trace,
                          const AuditStreams& audit, xfa::SimTime interval,
                          std::size_t stride) {
  const xfa::FeatureSchema schema = xfa::FeatureSchema::standard();
  const auto& specs = schema.traffic_specs();
  std::size_t compared = 0;
  for (std::size_t i = 0; i < trace.rows.size(); i += stride) {
    const xfa::SimTime t = trace.times[i];
    const std::vector<double>& row = trace.rows[i];
    for (std::size_t k = 0; k < xfa::kRouteEventKindCount; ++k) {
      const auto kind = static_cast<xfa::RouteEventKind>(k);
      const double expected =
          static_cast<double>(count_in(audit.routes[k], t - interval, t));
      if (row[schema.route_event_column(kind)] != expected)
        return message("row ", i, ": ", xfa::to_string(kind), " count ",
                       row[schema.route_event_column(kind)], ", recount ",
                       expected);
      ++compared;
    }
    for (std::size_t s = 0; s < specs.size(); ++s) {
      if (specs[s].stat != xfa::TrafficStat::Count) continue;
      const auto& times = audit.packets[static_cast<std::size_t>(
          specs[s].type)][static_cast<std::size_t>(specs[s].dir)];
      const double expected =
          static_cast<double>(count_in(times, t - specs[s].period, t));
      const double actual = row[schema.traffic_base_column() + s];
      if (actual != expected)
        return message("row ", i, ": ", specs[s].name(), " is ", actual,
                       ", recount ", expected);
      ++compared;
    }
  }
  if (compared == 0) return "no cells recounted";
  return {};
}

std::string same_artifact(const xfa::ScenarioResult& stored,
                          const xfa::ScenarioResult& loaded) {
  xfa::RawTrace a = stored.trace;
  xfa::RawTrace b = loaded.trace;
  a.labels.clear();
  b.labels.clear();
  if (std::string diff = same_trace(a, b); !diff.empty()) return diff;
  const xfa::ScenarioSummary& x = stored.summary;
  const xfa::ScenarioSummary& y = loaded.summary;
  if (x.data_originated != y.data_originated ||
      x.data_delivered != y.data_delivered ||
      x.scheduler_events != y.scheduler_events ||
      x.monitor_audit_packets != y.monitor_audit_packets ||
      x.monitor_audit_route_events != y.monitor_audit_route_events ||
      !same_bits(x.packet_delivery_ratio, y.packet_delivery_ratio))
    return "summary counters differ";
  return {};
}

std::string same_scores(const std::vector<xfa::EventScore>& a,
                        const std::vector<xfa::EventScore>& b) {
  if (a.size() != b.size())
    return message(a.size(), " scores vs ", b.size());
  for (std::size_t i = 0; i < a.size(); ++i)
    if (!same_bits(a[i].avg_match_count, b[i].avg_match_count) ||
        !same_bits(a[i].avg_probability, b[i].avg_probability))
      return message("score of row ", i, " differs: (", a[i].avg_match_count,
                     ", ", a[i].avg_probability, ") vs (",
                     b[i].avg_match_count, ", ", b[i].avg_probability, ")");
  return {};
}

std::string naive_scores(const xfa::CrossFeatureModel& model,
                         const std::vector<std::vector<int>>& rows,
                         const std::vector<xfa::EventScore>& scores,
                         std::size_t stride) {
  if (rows.size() != scores.size())
    return message(scores.size(), " scores for ", rows.size(), " rows");
  const std::size_t count = model.submodel_count();
  if (count == 0) return "model has no sub-models";
  for (std::size_t r = 0; r < rows.size(); r += stride) {
    const std::vector<int>& row = rows[r];
    double matches = 0;
    double probability = 0;
    for (std::size_t i = 0; i < count; ++i) {
      const int truth = row[model.label_column_of(i)];
      const std::vector<double> dist = model.submodel(i).predict_dist(row);
      std::size_t best = 0;
      for (std::size_t v = 1; v < dist.size(); ++v)
        if (dist[v] > dist[best]) best = v;
      if (truth >= 0 && best == static_cast<std::size_t>(truth)) matches += 1;
      if (truth >= 0 && static_cast<std::size_t>(truth) < dist.size())
        probability += dist[static_cast<std::size_t>(truth)];
    }
    matches /= static_cast<double>(count);
    probability /= static_cast<double>(count);
    if (!same_bits(matches, scores[r].avg_match_count) ||
        !same_bits(probability, scores[r].avg_probability))
      return message("row ", r, ": recomputed (", matches, ", ", probability,
                     "), scored (", scores[r].avg_match_count, ", ",
                     scores[r].avg_probability, ")");
  }
  return {};
}

std::string score_range(const std::vector<xfa::EventScore>& scores,
                        std::size_t submodels) {
  if (submodels == 0) return "no sub-models";
  const auto width = static_cast<double>(submodels);
  for (std::size_t i = 0; i < scores.size(); ++i) {
    const double match = scores[i].avg_match_count;
    const double probability = scores[i].avg_probability;
    if (!(match >= 0 && match <= 1 && probability >= 0 && probability <= 1))
      return message("score of row ", i, " outside [0, 1]: (", match, ", ",
                     probability, ")");
    const double hits = match * width;
    if (std::fabs(hits - std::round(hits)) > 1e-9)
      return message("match count of row ", i, " is ", hits, "/", submodels);
  }
  return {};
}

std::string false_alarm_rate(const std::vector<double>& normal_scores,
                             double threshold, double rate) {
  if (normal_scores.empty()) return "no normal scores";
  std::size_t alarms = 0;
  for (const double score : normal_scores)
    if (score < threshold) ++alarms;
  const auto rows = static_cast<double>(normal_scores.size());
  if (static_cast<double>(alarms) / rows > rate + 1.0 / rows)
    return message(alarms, " of ", normal_scores.size(),
                   " normal rows alarm at threshold ", threshold);
  return {};
}

std::string auc_above_diagonal(const std::vector<double>& scores,
                               const std::vector<int>& labels,
                               double reported) {
  if (scores.size() != labels.size()) return "scores and labels differ in size";
  double intrusions = 0;
  for (const int label : labels) intrusions += label != 0 ? 1 : 0;
  if (intrusions == 0) return "no intrusion rows";
  // Alarm when score < threshold; one operating point per distinct score,
  // swept upward from "no alarm at all" (recall 0, precision 1).
  const std::set<double> distinct(scores.begin(), scores.end());
  double area = 0;
  double last_recall = 0;
  double last_precision = 1;
  for (const double value : distinct) {
    double tp = 0;
    double fp = 0;
    for (std::size_t i = 0; i < scores.size(); ++i) {
      if (scores[i] > value) continue;
      (labels[i] != 0 ? tp : fp) += 1;
    }
    const double recall = tp / intrusions;
    const double precision = tp / (tp + fp);
    area += (recall - last_recall) * (precision + last_precision) / 2;
    last_recall = recall;
    last_precision = precision;
  }
  const double above = area - 0.5;
  if (std::fabs(above - reported) > 1e-9)
    return message("recomputed AUC above diagonal ", above, ", reported ",
                   reported);
  if (!(above > 0))
    return message("AUC above diagonal is ", above, ", not above 0");
  return {};
}

std::string same_bytes(const std::string& a, const std::string& b) {
  if (a.size() != b.size())
    return message(a.size(), " bytes vs ", b.size());
  for (std::size_t i = 0; i < a.size(); ++i)
    if (a[i] != b[i]) return message("byte ", i, " differs");
  return {};
}

}  // namespace perfbench
