// The warm detection workload (detect-warm): every pass loads a paper-scale
// trace inventory from the trace cache and trains, calibrates, persists,
// reloads and evaluates one cross-feature detector per paper classifier.
#pragma once

#include <string>
#include <vector>

#include "cfa/model.h"
#include "common.h"
#include "features/discretize.h"
#include "inventory.h"
#include "scenario/pipeline.h"

namespace perfbench {

/// Rate the thresholds are selected at (the pipeline's default).
inline constexpr double kFalseAlarmRate = 0.02;

/// What the checks need of one classifier's detector from one pass: its
/// scores, thresholds and curve, and where it was saved. The detectors
/// themselves are dropped with the pass, so the harness's own copies stay
/// out of the run's peak memory.
struct DetectorRun {
  std::string name;        // "c45", "ripper", "nbc"
  std::string model_path;  // the pass's XFAMDL1 file
  std::size_t submodels = 0;
  double threshold_match = 0;
  double threshold_probability = 0;
  std::vector<xfa::EventScore> threshold_scores;  // by the trained detector
  std::vector<xfa::EventScore> eval_scores;       // by the reloaded detector
  std::vector<xfa::EventScore> attack_scores;     // by the reloaded detector
  std::vector<double> curve_scores;  // probability, eval then attack rows
  std::vector<int> curve_labels;
  double auc_above_diagonal = 0;

  double threshold(xfa::ScoreKind kind) const {
    return kind == xfa::ScoreKind::MatchCount ? threshold_match
                                              : threshold_probability;
  }
};

class DetectWorkload final : public Workload {
 public:
  /// `inputs` from detect_inventory(), already stored in the trace cache at
  /// `input_dir`; detectors are saved under `model_dir`.
  DetectWorkload(std::vector<Unit> inputs, std::string input_dir,
                 std::string model_dir);

  /// Shared pool at full size, then every input loaded and CRC-checked
  /// through TraceCache; aborts with a message when one is missing.
  void setup() override;

  /// One pass. At one worker it runs on that worker alone and the
  /// sub-models are fitted on the calling thread; at more, fitting and
  /// scoring use the shared pool. Traced at one worker: spans around the
  /// loads, discretizer fit and transform, per-classifier training and
  /// scoring, threshold selection, model save and load, and the
  /// recall-precision curve. Traced at more workers: only the cfa.*_par_s
  /// training and scoring spans and the pool's ExecStats.
  PassStats pass(std::size_t threads, LayerSample* layer) override;

  /// Reloads the inputs and the saved detectors and checks the retained
  /// scores against them.
  std::vector<std::string> check() override;

  const std::vector<Unit>& inputs() const { return inputs_; }
  /// Latest detectors at one worker and at more workers.
  const std::vector<DetectorRun>& serial() const { return serial_; }
  const std::vector<DetectorRun>& parallel() const { return parallel_; }

 private:
  std::vector<Unit> inputs_;
  std::string input_dir_;
  std::string model_dir_;
  /// The body of pass(), run on whichever thread pass() chooses.
  void run_pass(std::size_t threads, LayerSample* layer, PassStats& stats);

  std::vector<DetectorRun> serial_;
  std::vector<DetectorRun> parallel_;
  std::vector<std::string> pass_failures_;
};

/// Simulates the units on the shared pool through run_scenario_checked(),
/// which stores them in the program's trace cache (XFA_CACHE_DIR); units
/// already there are only loaded.
xfa::Status generate_inputs(const std::vector<Unit>& units);

/// The whole file at `path` (empty when it cannot be read).
std::string read_file(const std::string& path);

/// Loads and labels the inputs from the trace cache at `input_dir`.
xfa::Result<std::vector<xfa::RawTrace>> load_inputs(
    const std::vector<Unit>& inputs, const std::string& input_dir);

}  // namespace perfbench
