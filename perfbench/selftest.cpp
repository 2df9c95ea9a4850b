// Self-test of the harness: runs each workload at reduced size, requires
// every output check to hold on the real outputs, and requires each check to
// fail when handed a deliberately wrong input.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <string>
#include <vector>

#include "checks.h"
#include "common.h"
#include "detect_workload.h"
#include "eval/pr.h"
#include "inventory.h"
#include "scenario/cache.h"
#include "scenario/model_store.h"
#include "sim_workload.h"

namespace perfbench {
namespace {

class Tally {
 public:
  /// The workload's own checks on its real outputs: none may fail.
  void holds(const std::string& what, const std::vector<std::string>& failures) {
    for (const std::string& failure : failures)
      std::printf("  %s: %s\n", what.c_str(), failure.c_str());
    report(what + ": every check holds", failures.empty());
  }
  /// One check on a correct input (must hold) and on a wrong one (must fail).
  void catches(const std::string& what, const std::string& on_true,
               const std::string& on_wrong) {
    if (!on_true.empty()) std::printf("  on true input: %s\n", on_true.c_str());
    report(what, on_true.empty() && !on_wrong.empty());
  }
  int exit_code() const { return failed_ == 0 ? 0 : 1; }

 private:
  void report(const std::string& what, bool ok) {
    std::printf("%s %s\n", ok ? "ok  " : "FAIL", what.c_str());
    if (!ok) ++failed_;
  }
  int failed_ = 0;
};

double bumped(double value) { return std::nextafter(value, 2.0); }

void sim_selftest(Tally& tally, const std::string& label,
                  xfa::RoutingKind routing, xfa::TransportKind transport,
                  const std::string& cache_dir) {
  SimWorkload workload(sim_inventory(routing, transport, 100, 4, 7), cache_dir,
                       /*wired_serial=*/true);
  workload.setup();
  workload.pass(usable_cpus(), nullptr);
  workload.pass(1, nullptr);
  LayerSample layer;
  workload.pass(1, &layer);
  workload.pass(usable_cpus(), &layer);
  tally.holds(label, workload.check());

  const Unit& attacked = workload.units()[2];
  const xfa::ScenarioResult& result = workload.last()[2];
  const xfa::RawTrace& trace = result.trace;

  xfa::RawTrace flipped = trace;
  flipped.rows[3][20] = bumped(flipped.rows[3][20]);
  tally.catches(label + " identity: one value one ulp off",
                same_trace(trace, workload.first()[2].trace),
                same_trace(trace, flipped));

  const xfa::SimTime duration = attacked.config.duration;
  const xfa::SimTime interval = attacked.config.sample_interval;
  const std::size_t width = trace.rows.front().size();
  xfa::RawTrace truncated = trace;
  truncated.rows.pop_back();
  truncated.times.pop_back();
  tally.catches(label + " shape: truncated trace",
                trace_shape(trace, duration, interval, width),
                trace_shape(truncated, duration, interval, width));
  xfa::RawTrace poisoned = trace;
  poisoned.rows[5][30] = std::nan("");
  tally.catches(label + " shape: NaN value",
                trace_shape(trace, duration, interval, width),
                trace_shape(poisoned, duration, interval, width));

  xfa::RawTrace shifted = trace;
  shifted.labels.erase(shifted.labels.begin());
  shifted.labels.push_back(1);
  tally.catches(label + " labels: shifted by one row",
                labels_from_onset(trace, attacked.onset),
                labels_from_onset(shifted, attacked.onset));

  xfa::ScenarioSummary inflated = result.summary;
  inflated.data_delivered = inflated.data_originated + 1;
  tally.catches(label + " delivery: more delivered than originated",
                delivery(result.summary, false), delivery(inflated, false));
  xfa::ScenarioSummary silent = workload.last()[0].summary;
  silent.data_delivered = 0;
  tally.catches(label + " delivery: normal trace delivers nothing",
                delivery(workload.last()[0].summary, true),
                delivery(silent, true));

  AuditStreams audit;
  const xfa::ScenarioResult wired = run_wired(attacked, nullptr, &audit);
  xfa::RawTrace miscounted = wired.trace;
  miscounted.rows[9][9] += 1;  // first traffic-count column
  tally.catches(label + " audit recount: one count off by one",
                audit_recount(wired.trace, audit, interval, 1),
                audit_recount(miscounted, audit, interval, 1));

  const xfa::Result<xfa::ScenarioResult> loaded =
      xfa::TraceCache(cache_dir).load(attacked.config.cache_key());
  if (!loaded.ok()) {
    tally.catches(label + " cache round trip: artifact missing", "missing", "");
    return;
  }
  xfa::ScenarioResult corrupted = *loaded;
  corrupted.trace.rows[1][12] = bumped(corrupted.trace.rows[1][12]);
  tally.catches(label + " cache round trip: one value one ulp off",
                same_artifact(result, *loaded),
                same_artifact(result, corrupted));
}

void detect_selftest(Tally& tally, const std::string& cache_dir,
                     const std::string& model_dir) {
  std::vector<Unit> inputs = detect_inventory(1000, 7);
  const xfa::Status generated = generate_inputs(inputs);
  if (!generated.ok()) {
    tally.catches("detect-warm inputs: " + generated.to_string(), "failed", "");
    return;
  }
  DetectWorkload workload(inputs, cache_dir, model_dir);
  workload.setup();
  workload.pass(usable_cpus(), nullptr);
  LayerSample layer;
  workload.pass(1, &layer);
  workload.pass(usable_cpus(), &layer);
  tally.holds("detect-warm", workload.check());

  if (workload.parallel().empty()) return;
  const DetectorRun& run = workload.parallel().back();
  const std::vector<xfa::EventScore>& scores = run.attack_scores;
  const xfa::Result<std::vector<xfa::RawTrace>> raw =
      load_inputs(inputs, cache_dir);
  const xfa::Result<xfa::Detector> loaded = xfa::load_detector(run.model_path);
  if (!raw.ok() || !loaded.ok()) {
    tally.catches("detect-warm reload: inputs or detector", "failed", "");
    return;
  }
  const xfa::DiscreteTrace attack = loaded->discretizer.transform((*raw)[3]);

  std::vector<xfa::EventScore> nudged = scores;
  nudged[0].avg_probability = bumped(nudged[0].avg_probability);
  tally.catches("detect identity: one score one ulp off",
                same_scores(workload.serial().back().attack_scores,
                            scores),
                same_scores(scores, nudged));
  tally.catches("detect naive Algorithm 2/3: one score one ulp off",
                naive_scores(loaded->model, attack.rows, scores, 1),
                naive_scores(loaded->model, attack.rows, nudged, 1));

  const std::size_t submodels = run.submodels;
  std::vector<xfa::EventScore> outside = scores;
  outside[4].avg_probability = 1.5;
  tally.catches("detect score range: probability 1.5",
                score_range(scores, submodels), score_range(outside, submodels));
  std::vector<xfa::EventScore> fractional = scores;
  fractional[4].avg_match_count =
      std::min(1.0, fractional[4].avg_match_count + 0.4 / double(submodels));
  if (fractional[4].avg_match_count == 1.0)
    fractional[4].avg_match_count -= 0.4 / double(submodels);
  tally.catches("detect score range: match count off the 1/L grid",
                score_range(scores, submodels),
                score_range(fractional, submodels));

  const std::vector<double> normal =
      xfa::project(run.threshold_scores, xfa::ScoreKind::Probability);
  std::vector<double> sorted = normal;
  std::sort(sorted.begin(), sorted.end());
  tally.catches("detect false-alarm rate: threshold at the median",
                false_alarm_rate(normal, run.threshold_probability,
                                 kFalseAlarmRate),
                false_alarm_rate(normal, sorted[sorted.size() / 2],
                                 kFalseAlarmRate));

  tally.catches("detect AUC: reported area off by 0.01",
                auc_above_diagonal(run.curve_scores, run.curve_labels,
                                   run.auc_above_diagonal),
                auc_above_diagonal(run.curve_scores, run.curve_labels,
                                   run.auc_above_diagonal + 0.01));
  std::vector<double> inverted = run.curve_scores;
  for (double& score : inverted) score = 1.0 - score;
  tally.catches(
      "detect AUC: inverted scores",
      auc_above_diagonal(run.curve_scores, run.curve_labels,
                         run.auc_above_diagonal),
      auc_above_diagonal(
          inverted, run.curve_labels,
          xfa::recall_precision_curve(inverted, run.curve_labels)
              .area_above_diagonal()));

  xfa::RawTrace shifted = (*raw)[3];
  shifted.labels.insert(shifted.labels.begin(), 0);
  shifted.labels.pop_back();
  tally.catches("detect labels: shifted by one row",
                labels_from_onset((*raw)[3], inputs[3].onset),
                labels_from_onset(shifted, inputs[3].onset));

  const std::string bytes = read_file(run.model_path);
  if (bytes.empty()) {
    tally.catches("detect staged detector: file unreadable", "failed", "");
    return;
  }
  std::string flipped = bytes;
  flipped[flipped.size() / 2] ^= 0x01;
  tally.catches("detect staged detector: one byte flipped",
                same_bytes(bytes, bytes), same_bytes(bytes, flipped));
}

}  // namespace

int run_selftest(const std::string& work_dir) {
  Tally tally;
  const std::string cache_dir = work_dir + "/trace-cache";
  sim_selftest(tally, "sim-aodv-udp", xfa::RoutingKind::Aodv,
               xfa::TransportKind::Udp, cache_dir);
  sim_selftest(tally, "sim-dsr-tcp", xfa::RoutingKind::Dsr,
               xfa::TransportKind::Tcp, cache_dir);
  detect_selftest(tally, cache_dir, work_dir + "/models");
  return tally.exit_code();
}

}  // namespace perfbench
