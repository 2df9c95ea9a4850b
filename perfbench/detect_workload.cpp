#include "detect_workload.h"

#include <filesystem>
#include <fstream>
#include <iterator>
#include <utility>

#include "cfa/threshold.h"
#include "checks.h"
#include "eval/pr.h"
#include "exec/task_group.h"
#include "exec/thread_pool.h"
#include "features/schema.h"
#include "scenario/cache.h"
#include "scenario/model_store.h"

namespace perfbench {
namespace {

struct NamedClassifier {
  const char* name;
  xfa::ClassifierFactory factory;
};

std::vector<NamedClassifier> classifiers() {
  return {{"c45", xfa::make_c45_factory()},
          {"ripper", xfa::make_ripper_factory()},
          {"nbc", xfa::make_nbc_factory()}};
}

}  // namespace

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::string(std::istreambuf_iterator<char>(in),
                     std::istreambuf_iterator<char>());
}

xfa::Result<std::vector<xfa::RawTrace>> load_inputs(
    const std::vector<Unit>& inputs, const std::string& input_dir) {
  const xfa::TraceCache cache(input_dir);
  std::vector<xfa::RawTrace> traces;
  for (const Unit& unit : inputs) {
    xfa::Result<xfa::ScenarioResult> loaded =
        cache.load(unit.config.cache_key());
    if (!loaded.ok()) return loaded.status();
    xfa::apply_labels(loaded->trace, unit.config,
                      xfa::LabelPolicy::OnsetOnwards);
    traces.push_back(std::move(loaded->trace));
  }
  return traces;
}

xfa::Status generate_inputs(const std::vector<Unit>& units) {
  xfa::resize_shared_pool(usable_cpus());
  std::vector<xfa::Status> statuses(units.size());
  {
    xfa::TaskGroup group(xfa::shared_pool());
    for (std::size_t i = 0; i < units.size(); ++i)
      group.submit([&units, &statuses, i] {
        statuses[i] = xfa::run_scenario_checked(units[i].config).status();
        return xfa::Status::Ok();
      });
    group.wait();
  }
  for (const xfa::Status& status : statuses)
    if (!status.ok()) return status;
  return xfa::Status::Ok();
}

DetectWorkload::DetectWorkload(std::vector<Unit> inputs, std::string input_dir,
                               std::string model_dir)
    : inputs_(std::move(inputs)),
      input_dir_(std::move(input_dir)),
      model_dir_(std::move(model_dir)) {
  std::filesystem::create_directories(model_dir_);
}

void DetectWorkload::setup() {
  xfa::resize_shared_pool(usable_cpus());
  const auto loaded = load_inputs(inputs_, input_dir_);
  XFA_CHECK(loaded.ok()) << "detect-warm inputs missing from " << input_dir_
                         << " (generate them first): "
                         << loaded.status().to_string();
}

PassStats DetectWorkload::pass(std::size_t threads, LayerSample* layer) {
  xfa::resize_shared_pool(threads);
  PassStats stats;
  const xfa::ExecStats exec_before = xfa::shared_pool().stats();
  const double cpu_start = process_cpu_now();
  const double start = wall_now();
  if (threads == 1)
    run_alone([this, layer, &stats] { run_pass(1, layer, stats); });
  else
    run_pass(threads, layer, stats);
  stats.wall_s = wall_now() - start;
  stats.cpu_s = process_cpu_now() - cpu_start;
  if (layer != nullptr && threads > 1)
    record_exec_stats(*layer, exec_before, stats.wall_s, threads);
  return stats;
}

void DetectWorkload::run_pass(std::size_t threads, LayerSample* layer,
                              PassStats& stats) {
  const std::size_t fit_threads = threads == 1 ? 1 : 0;
  const std::string suffix = threads == 1 ? "_s." : "_par_s.";
  // Stages outside training and scoring are reported from the serial pass
  // only; the parallel pass adds its cfa.*_par_s spans and pool counters.
  LayerSample* const serial_layer = threads == 1 ? layer : nullptr;
  const std::vector<NamedClassifier> named = classifiers();
  const xfa::FeatureSchema schema = xfa::FeatureSchema::standard();
  std::vector<DetectorRun> runs;

  xfa::Result<std::vector<xfa::RawTrace>> raw =
      xfa::Status{xfa::StatusCode::kRetryable, "not loaded"};
  {
    Span span(serial_layer, "scenario.cache_load_s");
    raw = load_inputs(inputs_, input_dir_);
  }
  if (!raw.ok()) {
    stats.attempted = stats.failed = named.size();
    pass_failures_.push_back("loading inputs: " + raw.status().to_string());
    return;
  }

  xfa::EqualFrequencyDiscretizer discretizer;
  {
    Span span(serial_layer, "features.discretize_fit_s");
    discretizer.fit((*raw)[0].rows, /*max_fit_rows=*/500);
  }
  xfa::DiscreteTrace train, threshold, eval, attack;
  {
    Span span(serial_layer, "features.discretize_transform_s");
    train = discretizer.transform((*raw)[0]);
    threshold = discretizer.transform((*raw)[1]);
    eval = discretizer.transform((*raw)[2]);
    attack = discretizer.transform((*raw)[3]);
  }
  const xfa::Dataset dataset = xfa::to_dataset(train, &schema);
  const std::vector<std::size_t> label_columns = schema.classifiable_columns();

  for (const NamedClassifier& classifier : named) {
    ++stats.attempted;
    const std::string name = classifier.name;
    DetectorRun run;
    run.name = name;
    run.model_path = model_dir_ + "/" + name +
                     (threads == 1 ? "-serial" : "-parallel") + ".xfamdl";
    xfa::Detector trained;
    trained.discretizer = discretizer;
    xfa::Status status;
    {
      Span span(layer, "cfa.train" + suffix + name);
      status = trained.model.train(dataset, label_columns, classifier.factory,
                                   fit_threads);
    }
    if (status.ok()) {
      Span span(serial_layer, "cfa.threshold_s");
      run.threshold_scores = trained.model.score_all(threshold.rows);
      trained.threshold_match = xfa::select_threshold(
          xfa::project(run.threshold_scores, xfa::ScoreKind::MatchCount),
          kFalseAlarmRate);
      trained.threshold_probability = xfa::select_threshold(
          xfa::project(run.threshold_scores, xfa::ScoreKind::Probability),
          kFalseAlarmRate);
      run.threshold_match = trained.threshold_match;
      run.threshold_probability = trained.threshold_probability;
    }
    if (status.ok()) {
      Span span(serial_layer, "scenario.model_save_s");
      status = xfa::save_detector(trained, run.model_path);
    }
    xfa::Result<xfa::Detector> loaded =
        xfa::Status{xfa::StatusCode::kRetryable, "not loaded"};
    if (status.ok()) {
      if (serial_layer != nullptr)
        serial_layer->add("scenario.model_bytes",
                          static_cast<double>(
                              std::filesystem::file_size(run.model_path)));
      {
        Span span(serial_layer, "scenario.model_load_s");
        loaded = xfa::load_detector(run.model_path);
      }
      status = loaded.status();
    }
    if (!status.ok()) {
      ++stats.failed;
      pass_failures_.push_back(name + ": " + status.to_string());
      continue;
    }
    {
      Span span(layer, "cfa.score" + suffix + name);
      run.eval_scores = loaded->model.score_all(eval.rows);
      run.attack_scores = loaded->model.score_all(attack.rows);
    }
    {
      Span span(serial_layer, "eval.pr_curve_s");
      run.curve_scores =
          xfa::project(run.eval_scores, xfa::ScoreKind::Probability);
      const std::vector<double> attack_probability =
          xfa::project(run.attack_scores, xfa::ScoreKind::Probability);
      run.curve_scores.insert(run.curve_scores.end(),
                              attack_probability.begin(),
                              attack_probability.end());
      run.curve_labels.assign(eval.size(), 0);
      run.curve_labels.insert(run.curve_labels.end(), attack.labels.begin(),
                              attack.labels.end());
      run.auc_above_diagonal =
          xfa::recall_precision_curve(run.curve_scores, run.curve_labels)
              .area_above_diagonal();
    }
    run.submodels = loaded->model.submodel_count();
    if (serial_layer != nullptr) {
      serial_layer->set("cfa.submodels." + name,
                        static_cast<double>(run.submodels));
      serial_layer->add("cfa.rows_scored",
                        static_cast<double>(eval.size() + attack.size()));
    }
    runs.push_back(std::move(run));
  }
  (threads == 1 ? serial_ : parallel_) = std::move(runs);
}

std::vector<std::string> DetectWorkload::check() {
  std::vector<std::string> failures = pass_failures_;
  const auto expect = [&failures](const std::string& what,
                                  const std::string& diff) {
    if (!diff.empty()) failures.push_back(what + ": " + diff);
  };
  const std::vector<NamedClassifier> named = classifiers();
  if (parallel_.size() != named.size() || serial_.size() != named.size()) {
    failures.push_back("a pass is missing detectors");
    return failures;
  }
  const xfa::Result<std::vector<xfa::RawTrace>> raw =
      load_inputs(inputs_, input_dir_);
  if (!raw.ok()) {
    failures.push_back("reloading inputs: " + raw.status().to_string());
    return failures;
  }
  const std::size_t width = xfa::FeatureSchema::standard().size();
  for (std::size_t i = 0; i < inputs_.size(); ++i) {
    const Unit& unit = inputs_[i];
    const std::string name = "input " + std::to_string(i);
    expect(name + " shape", trace_shape((*raw)[i], unit.config.duration,
                                        unit.config.sample_interval, width));
    expect(name + " labels", labels_from_onset((*raw)[i], unit.onset));
  }

  for (std::size_t k = 0; k < parallel_.size(); ++k) {
    const DetectorRun& run = parallel_[k];
    const DetectorRun& serial = serial_[k];
    const std::string& name = run.name;

    expect(name + " serial vs parallel (threshold)",
           same_scores(serial.threshold_scores, run.threshold_scores));
    expect(name + " serial vs parallel (eval)",
           same_scores(serial.eval_scores, run.eval_scores));
    expect(name + " serial vs parallel (attack)",
           same_scores(serial.attack_scores, run.attack_scores));

    const xfa::Result<xfa::Detector> loaded = xfa::load_detector(run.model_path);
    if (!loaded.ok()) {
      failures.push_back(name + " reload: " + loaded.status().to_string());
      continue;
    }
    const xfa::DiscreteTrace threshold = loaded->discretizer.transform((*raw)[1]);
    const xfa::DiscreteTrace eval = loaded->discretizer.transform((*raw)[2]);
    const xfa::DiscreteTrace attack = loaded->discretizer.transform((*raw)[3]);
    expect(name + " naive scores (eval)",
           naive_scores(loaded->model, eval.rows, run.eval_scores, 13));
    expect(name + " naive scores (attack)",
           naive_scores(loaded->model, attack.rows, run.attack_scores, 13));
    for (const auto* scores :
         {&run.threshold_scores, &run.eval_scores, &run.attack_scores})
      expect(name + " score range", score_range(*scores, run.submodels));

    // The threshold scores came from the detector before it was saved.
    expect(name + " reloaded vs saved (threshold)",
           same_scores(loaded->model.score_all(threshold.rows),
                       run.threshold_scores));

    for (const xfa::ScoreKind kind :
         {xfa::ScoreKind::MatchCount, xfa::ScoreKind::Probability})
      expect(name + " false-alarm rate",
             false_alarm_rate(xfa::project(run.threshold_scores, kind),
                              run.threshold(kind), kFalseAlarmRate));
    expect(name + " AUC", auc_above_diagonal(run.curve_scores,
                                             run.curve_labels,
                                             run.auc_above_diagonal));

    // The pass's staged pipeline must save the detector the library's own
    // train_detector() builds from the same traces.
    xfa::DetectorOptions options;
    options.false_alarm_rate = kFalseAlarmRate;
    const xfa::Result<xfa::Detector> reference = xfa::train_detector_checked(
        (*raw)[0], named[k].factory, options, &(*raw)[1]);
    const std::string reference_path =
        model_dir_ + "/" + name + "-reference.xfamdl";
    if (!reference.ok() ||
        !xfa::save_detector(*reference, reference_path).ok()) {
      failures.push_back(name + " staging: train or save failed");
      continue;
    }
    expect(name + " staged vs train_detector",
           same_bytes(read_file(run.model_path), read_file(reference_path)));
  }
  return failures;
}

}  // namespace perfbench
