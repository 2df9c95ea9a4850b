// perfbench_harness: times the pipeline's workloads through the program's
// public API and prints one JSON result line (see perfbench/README.md).
//
//   perfbench_harness --workload W --seed N --seconds S --trace 0|1
//                     --work-dir DIR --input-dir DIR
//   perfbench_harness --generate --seed N --input-dir DIR
//   perfbench_harness --selftest --work-dir DIR
#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "common.h"
#include "detect_workload.h"
#include "exec/thread_pool.h"
#include "inventory.h"
#include "sim_workload.h"

namespace perfbench {

int run_selftest(const std::string& work_dir);

namespace {

// Workload sizes. A simulation pass covers four traces of the length and
// attack schedule of the program's smoke scenarios (800 s, sessions of
// 100 s); detection runs on the paper's 10^4-second traces.
constexpr std::size_t kSimUnits = 4;
constexpr xfa::SimTime kSimSeconds = 800;
constexpr xfa::SimTime kDetectSeconds = 10000;
// Set-ups per run, whose median is setup_s: one sim set-up takes about a
// millisecond, one detect-warm set-up about 40 ms.
constexpr int kSimSetups = 300;
constexpr int kDetectSetups = 30;

struct Metric {
  const char* name;
  const char* unit;
};

constexpr Metric kEndToEnd[] = {
    {"setup_s", "s"},         {"serial_pass_s", "s"},
    {"parallel_pass_s", "s"}, {"parallel_cpu_s", "s"},
    {"peak_rss_mb", "MB"},
};

constexpr Metric kPerLayer[] = {
    {"scenario.build_s", "s"},
    {"sim.run_s", "s"},
    {"sim.events", "count"},
    {"sim.cancelled", "count"},
    {"sim.compactions", "count"},
    {"sim.ns_per_event", "ns"},
    {"net.transmissions", "count"},
    {"net.deliveries", "count"},
    {"net.taps", "count"},
    {"net.unicast_failures", "count"},
    {"net.grid_rebuilds", "count"},
    {"net.grid_queries", "count"},
    {"net.grid_candidates", "count"},
    {"net.grid_confirmed", "count"},
    {"net.grid_confirm_ratio", "ratio"},
    {"routing.discoveries_started", "count"},
    {"routing.discovery_success_ratio", "ratio"},
    {"routing.control_originated", "count"},
    {"routing.control_forwarded", "count"},
    {"routing.data_forwarded", "count"},
    {"routing.rerr_sent", "count"},
    {"transport.data_originated", "count"},
    {"transport.data_delivered", "count"},
    {"audit.packet_records", "count"},
    {"audit.route_events", "count"},
    {"features.extract_s", "s"},
    {"scenario.cache_store_s", "s"},
    {"scenario.cache_bytes", "bytes"},
    {"scenario.cache_load_s", "s"},
    {"features.discretize_fit_s", "s"},
    {"features.discretize_transform_s", "s"},
    {"cfa.threshold_s", "s"},
    {"eval.pr_curve_s", "s"},
    {"scenario.model_save_s", "s"},
    {"scenario.model_load_s", "s"},
    {"scenario.model_bytes", "bytes"},
    {"cfa.train_s.c45", "s"},
    {"cfa.train_s.ripper", "s"},
    {"cfa.train_s.nbc", "s"},
    {"cfa.score_s.c45", "s"},
    {"cfa.score_s.ripper", "s"},
    {"cfa.score_s.nbc", "s"},
    {"cfa.train_par_s.c45", "s"},
    {"cfa.train_par_s.ripper", "s"},
    {"cfa.train_par_s.nbc", "s"},
    {"cfa.score_par_s.c45", "s"},
    {"cfa.score_par_s.ripper", "s"},
    {"cfa.score_par_s.nbc", "s"},
    {"cfa.submodels.c45", "count"},
    {"cfa.submodels.ripper", "count"},
    {"cfa.submodels.nbc", "count"},
    {"cfa.rows_scored", "count"},
    {"exec.tasks", "count"},
    {"exec.task_wall_s", "s"},
    {"exec.task_cpu_s", "s"},
    {"exec.busy_ratio", "ratio"},
    {"trace.overhead_pct", "%"},
};

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  bool generate = false;
  bool selftest = false;
  std::string work_dir;
  std::string input_dir;
};

bool parse_args(int argc, char** argv, Args& args) {
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--generate") {
      args.generate = true;
      continue;
    }
    if (flag == "--selftest") {
      args.selftest = true;
      continue;
    }
    if (i + 1 >= argc) return false;
    const std::string value = argv[++i];
    if (flag == "--workload") {
      args.workload = value;
    } else if (flag == "--seed") {
      args.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      args.seconds = std::strtod(value.c_str(), nullptr);
    } else if (flag == "--trace") {
      args.trace = value == "1";
    } else if (flag == "--work-dir") {
      args.work_dir = value;
    } else if (flag == "--input-dir") {
      args.input_dir = value;
    } else {
      return false;
    }
  }
  return true;
}

/// Points the program's trace cache at `dir` and clears every other XFA_*
/// setting, before anything reads the environment snapshot.
void set_program_env(const std::string& dir) {
  for (const char* name :
       {"XFA_FAST", "XFA_NO_CACHE", "XFA_SCENARIO_RETRIES", "XFA_THREADS",
        "XFA_TRACE_DEADLINE_MS", "XFA_CRASH_AFTER_UNITS", "XFA_CLAIM_WAIT_MS"})
    unsetenv(name);
  setenv("XFA_CACHE_DIR", dir.c_str(), 1);
}

void print_metric(std::string& json, const char* name, double value,
                  const char* unit) {
  char buffer[256];
  std::snprintf(buffer, sizeof(buffer),
                "%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                json.size() > 1 ? ", " : "", name, value, unit);
  json += buffer;
}

int measure(Workload& workload, int setup_count, const Args& args) {
  const std::size_t cpus = usable_cpus();
  std::vector<double> setups;
  for (int i = 0; i < setup_count; ++i) {
    xfa::resize_shared_pool(1);  // so every set-up creates the full pool
    const double start = wall_now();
    workload.setup();
    setups.push_back(wall_now() - start);
  }
  workload.pass(cpus, nullptr);  // warm-up

  std::vector<double> serial, parallel, parallel_cpu, untraced, traced;
  std::vector<std::map<std::string, double>> layers;
  std::size_t attempted = 0;
  std::size_t failed = 0;
  const auto count = [&](const PassStats& stats) {
    attempted += stats.attempted;
    failed += stats.failed;
    return stats;
  };
  const double start = wall_now();
  do {
    if (!args.trace) {
      serial.push_back(count(workload.pass(1, nullptr)).wall_s);
      const PassStats wide = count(workload.pass(cpus, nullptr));
      parallel.push_back(wide.wall_s);
      parallel_cpu.push_back(wide.cpu_s);
    } else {
      untraced.push_back(count(workload.pass(1, nullptr)).wall_s);
      LayerSample layer;
      traced.push_back(count(workload.pass(1, &layer)).wall_s);
      count(workload.pass(cpus, &layer));
      layers.push_back(layer.values());
    }
  } while (wall_now() - start < args.seconds);

  // Read before the checks, whose reference computations are not part of
  // the workload.
  const double peak_rss = peak_rss_mb();
  const std::vector<std::string> failures = workload.check();
  for (const std::string& failure : failures)
    std::fprintf(stderr, "check failed: %s\n", failure.c_str());
  const auto list = [](const std::vector<double>& values) {
    std::string text;
    char buffer[32];
    for (const double value : values) {
      std::snprintf(buffer, sizeof(buffer), " %.6g", value);
      text += buffer;
    }
    return text;
  };
  std::fprintf(stderr, "set-ups: median %.6g of %zu\n", median(setups),
               setups.size());
  if (!args.trace)
    std::fprintf(stderr, "serial:%s\nparallel:%s\nparallel cpu:%s\n",
                 list(serial).c_str(), list(parallel).c_str(),
                 list(parallel_cpu).c_str());
  else
    std::fprintf(stderr, "untraced:%s\ntraced:%s\n", list(untraced).c_str(),
                 list(traced).c_str());
  const std::size_t passes = args.trace ? traced.size() : serial.size();
  std::fprintf(stderr,
               "%s seed %" PRIu64 ": %zu pass pairs, %zu operations, %zu failed, "
               "%zu check failures\n",
               args.workload.c_str(), args.seed, passes, attempted, failed,
               failures.size());

  std::string metrics = "{";
  if (!args.trace) {
    const double values[] = {median(setups), median(serial), median(parallel),
                             median(parallel_cpu), peak_rss};
    for (std::size_t i = 0; i < std::size(kEndToEnd); ++i)
      print_metric(metrics, kEndToEnd[i].name, values[i], kEndToEnd[i].unit);
  } else {
    for (const Metric& metric : kPerLayer) {
      double value = 0;
      if (std::strcmp(metric.name, "trace.overhead_pct") == 0) {
        value = 100.0 * (median(traced) / median(untraced) - 1.0);
      } else {
        std::vector<double> samples;
        for (const auto& layer : layers) {
          const auto it = layer.find(metric.name);
          samples.push_back(it == layer.end() ? 0.0 : it->second);
        }
        value = median(samples);
      }
      print_metric(metrics, metric.name, value, metric.unit);
    }
  }
  metrics += "}";
  std::printf("{\"correct\": %s, \"attempted\": %zu, \"failed\": %zu, "
              "\"metrics\": %s}\n",
              failures.empty() ? "true" : "false", attempted, failed,
              metrics.c_str());
  return 0;
}

int usage() {
  std::fprintf(stderr,
               "usage: perfbench_harness --workload sim-aodv-udp|sim-dsr-tcp|"
               "detect-warm --seed N --seconds S --trace 0|1 --work-dir DIR "
               "--input-dir DIR\n"
               "       perfbench_harness --generate --seed N --input-dir DIR\n"
               "       perfbench_harness --selftest --work-dir DIR\n");
  return 64;
}

}  // namespace

int run(int argc, char** argv) {
  Args args;
  if (!parse_args(argc, argv, args)) return usage();

  if (args.selftest) {
    if (args.work_dir.empty()) return usage();
    set_program_env(args.work_dir + "/trace-cache");
    return run_selftest(args.work_dir);
  }
  if (args.generate) {
    if (args.input_dir.empty()) return usage();
    set_program_env(args.input_dir);
    const xfa::Status status =
        generate_inputs(detect_inventory(kDetectSeconds, args.seed));
    if (!status.ok()) {
      std::fprintf(stderr, "generating inputs: %s\n",
                   status.to_string().c_str());
      return 1;
    }
    return 0;
  }
  if (args.work_dir.empty() || args.seconds <= 0) return usage();

  const std::string cache_dir = args.work_dir + "/trace-cache";
  set_program_env(cache_dir);
  std::unique_ptr<Workload> workload;
  int setups = kSimSetups;
  if (args.workload == "sim-aodv-udp") {
    workload = std::make_unique<SimWorkload>(
        sim_inventory(xfa::RoutingKind::Aodv, xfa::TransportKind::Udp,
                      kSimSeconds, kSimUnits, args.seed),
        cache_dir, args.trace);
  } else if (args.workload == "sim-dsr-tcp") {
    workload = std::make_unique<SimWorkload>(
        sim_inventory(xfa::RoutingKind::Dsr, xfa::TransportKind::Tcp,
                      kSimSeconds, kSimUnits, args.seed),
        cache_dir, args.trace);
  } else if (args.workload == "detect-warm" && !args.input_dir.empty()) {
    workload = std::make_unique<DetectWorkload>(
        detect_inventory(kDetectSeconds, args.seed), args.input_dir,
        args.work_dir + "/models");
    setups = kDetectSetups;
  } else {
    return usage();
  }
  return measure(*workload, setups, args);
}

}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::run(argc, argv); }
