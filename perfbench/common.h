// Shared pieces of the perfbench harness: clocks, medians, the span and
// counter recorder of a traced pass, and the interface every workload
// implements.
#pragma once

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <map>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "exec/thread_pool.h"

namespace perfbench {

/// Wall-clock seconds on the steady clock.
inline double wall_now() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// User + system CPU seconds of the whole process (all threads).
double process_cpu_now();

/// Peak resident set size of the process so far, in MB.
double peak_rss_mb();

/// Online CPUs this process may run on (the shared pool's parallel size).
std::size_t usable_cpus();

double median(std::vector<double> values);

/// SplitMix64 finaliser: derives independent 64-bit seeds from (seed, salt).
std::uint64_t mix_seed(std::uint64_t seed, std::uint64_t salt);

/// Per-layer figures of one traced pass. Spans are timed around calls into
/// the program's public functions and summed per name; counters are summed
/// per name. Thread-safe, because the spans of one pass can come from
/// several pool workers.
class LayerSample {
 public:
  void add(const std::string& name, double value) {
    std::lock_guard<std::mutex> lock(mutex_);
    values_[name] += value;
  }
  void set(const std::string& name, double value) {
    std::lock_guard<std::mutex> lock(mutex_);
    values_[name] = value;
  }
  double get(const std::string& name) const {
    std::lock_guard<std::mutex> lock(mutex_);
    const auto it = values_.find(name);
    return it == values_.end() ? 0.0 : it->second;
  }
  std::map<std::string, double> values() const {
    std::lock_guard<std::mutex> lock(mutex_);
    return values_;
  }

 private:
  mutable std::mutex mutex_;
  std::map<std::string, double> values_;
};

/// Times one call into the program and adds it to `sample` under `name`;
/// does nothing when `sample` is null (untraced passes).
class Span {
 public:
  Span(LayerSample* sample, std::string name)
      : sample_(sample), name_(std::move(name)),
        start_(sample != nullptr ? wall_now() : 0.0) {}
  ~Span() {
    if (sample_ != nullptr) sample_->add(name_, wall_now() - start_);
  }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  LayerSample* sample_;
  std::string name_;
  double start_;
};

/// Runs `fn` on the calling thread while every worker of the shared pool is
/// parked on a blocking task, so the whole call, nested parallel_for and
/// TaskGroup work included, runs on exactly one thread: the caller runs the
/// queued tasks itself as it waits. Without parking, a caller waiting on a
/// TaskGroup works beside the pool's workers, so "one worker" would mean up
/// to two threads.
void run_alone(const std::function<void()>& fn);

/// Adds the shared pool's ExecStats since `before` to `layer`: tasks, their
/// summed wall and CPU seconds, and the share of the pool's `threads`
/// workers kept busy over a pass of `pass_wall_s`.
void record_exec_stats(LayerSample& layer, const xfa::ExecStats& before,
                       double pass_wall_s, std::size_t threads);

/// Work and failures of one timed pass.
struct PassStats {
  double wall_s = 0;
  double cpu_s = 0;
  std::size_t attempted = 0;
  std::size_t failed = 0;
};

class Workload {
 public:
  virtual ~Workload() = default;

  /// One set-up: shared pool at full size, configs, world set-up. The
  /// harness times it and calls it several times.
  virtual void setup() = 0;

  /// One pass of the workload with the shared pool at `threads` workers.
  /// At one worker the pass runs on exactly one thread (run_alone). With
  /// `layer` set, spans and counters of the pass go there.
  virtual PassStats pass(std::size_t threads, LayerSample* layer) = 0;

  /// Checks the outputs retained from the passes run so far against
  /// computations made apart from the program. Returns one message per
  /// failed check; empty when every check holds.
  virtual std::vector<std::string> check() = 0;
};

}  // namespace perfbench
