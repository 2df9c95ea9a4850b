// Output checks of the perfbench workloads. Each check is a plain function
// of plain data that recomputes what it verifies in its own, deliberately
// naive way (linear scans, no shared helpers from the program), and returns
// an empty string when the check holds or a message saying what differed.
// The self-test feeds each of them deliberately wrong inputs.
#pragma once

#include <array>
#include <cstddef>
#include <string>
#include <vector>

#include "cfa/model.h"
#include "features/extract.h"
#include "scenario/runner.h"

namespace perfbench {

/// Copies of the monitor node's audit streams, taken before the simulated
/// world is torn down.
struct AuditStreams {
  std::array<std::array<std::vector<xfa::SimTime>, xfa::kFlowDirectionCount>,
             xfa::kAuditPacketTypeCount>
      packets;
  std::array<std::vector<xfa::SimTime>, xfa::kRouteEventKindCount> routes;
};

// --- simulation outputs -----------------------------------------------------

/// Times, rows (bit for bit) and labels are identical.
std::string same_trace(const xfa::RawTrace& a, const xfa::RawTrace& b);

/// duration / interval rows at instants interval, 2 interval, ..., each
/// `width` wide and finite.
std::string trace_shape(const xfa::RawTrace& trace, xfa::SimTime duration,
                        xfa::SimTime interval, std::size_t width);

/// Labels are 0 up to `onset` and 1 after it (all 0 when onset is kNever).
std::string labels_from_onset(const xfa::RawTrace& trace, xfa::SimTime onset);

/// delivered <= originated, and a normal trace delivers something.
std::string delivery(const xfa::ScenarioSummary& summary, bool normal);

/// Every `stride`-th row's route-event counts (window = `interval`) and
/// traffic-count columns equal a linear recount over the audit records.
std::string audit_recount(const xfa::RawTrace& trace,
                          const AuditStreams& audit, xfa::SimTime interval,
                          std::size_t stride);

/// A trace loaded back from the cache equals the in-memory one: times and
/// rows bit for bit (labels are not stored) and the summary counters.
std::string same_artifact(const xfa::ScenarioResult& stored,
                          const xfa::ScenarioResult& loaded);

// --- detection outputs ------------------------------------------------------

/// Both scores of every row are identical bit for bit.
std::string same_scores(const std::vector<xfa::EventScore>& a,
                        const std::vector<xfa::EventScore>& b);

/// Algorithms 2 and 3 recomputed for every `stride`-th row: each surviving
/// sub-model's predict_dist(), argmax against the true bucket and the
/// probability of the true bucket, averaged over the survivors.
std::string naive_scores(const xfa::CrossFeatureModel& model,
                         const std::vector<std::vector<int>>& rows,
                         const std::vector<xfa::EventScore>& scores,
                         std::size_t stride);

/// Scores lie in [0, 1] and every match count is a multiple of 1/L.
std::string score_range(const std::vector<xfa::EventScore>& scores,
                        std::size_t submodels);

/// The share of normal scores strictly below `threshold`, found by
/// counting, is at most `rate` plus one row's share.
std::string false_alarm_rate(const std::vector<double>& normal_scores,
                             double threshold, double rate);

/// Area above the diagonal of the recall-precision curve, recomputed by a
/// quadratic sweep over the distinct scores; it must equal `reported` and be
/// greater than 0.
std::string auc_above_diagonal(const std::vector<double>& scores,
                               const std::vector<int>& labels,
                               double reported);

/// Byte strings are equal (serialized detectors).
std::string same_bytes(const std::string& a, const std::string& b);

}  // namespace perfbench
