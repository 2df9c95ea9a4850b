// The cold simulation workloads (sim-aodv-udp, sim-dsr-tcp): every pass
// simulates and extracts a whole trace inventory into an empty trace cache.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "checks.h"
#include "common.h"
#include "inventory.h"
#include "scenario/runner.h"

namespace perfbench {

/// Simulates one unit by wiring the program's units by hand, the way
/// run_scenario() wires them: Simulator, RandomWaypointMobility, Channel,
/// build_scenario(), the sampling events, run_until() and
/// FeatureExtractor::extract(). Labels are applied as run_scenario() does.
/// With `layer`, the three stages are timed as spans and the world's
/// counters are added; with `audit`, the monitor's audit streams are copied
/// out before the world is torn down.
xfa::ScenarioResult run_wired(const Unit& unit, LayerSample* layer,
                              AuditStreams* audit);

class SimWorkload final : public Workload {
 public:
  /// `cache_dir` must be the directory the program's trace cache uses
  /// (XFA_CACHE_DIR); every pass empties it first. With `wired_serial`, the
  /// passes at one worker go through run_wired() plus TraceCache::store()
  /// instead of run_scenario_checked(), traced or not, so that a traced run
  /// compares its traced and untraced serial passes on the same path.
  SimWorkload(std::vector<Unit> units, std::string cache_dir,
              bool wired_serial);

  /// Shared pool at full size, then every unit's world built and dropped.
  void setup() override;

  /// At one worker the units run one after another on the pool's single
  /// worker. At more, each unit is a task on the shared pool, as
  /// gather_experiment() runs them, and a traced pass records the pool's
  /// ExecStats. Spans and counters come from the wired serial passes.
  PassStats pass(std::size_t threads, LayerSample* layer) override;

  std::vector<std::string> check() override;

  const std::vector<Unit>& units() const { return units_; }
  /// Outputs of the first pass and of the latest one (whose artifacts are
  /// still in the cache directory).
  const std::vector<xfa::ScenarioResult>& first() const { return first_; }
  const std::vector<xfa::ScenarioResult>& last() const { return last_; }

 private:
  /// run_wired() of unit `i`, stored into the trace cache.
  xfa::Result<xfa::ScenarioResult> run_and_store(std::size_t i,
                                                 LayerSample* layer) const;

  std::vector<Unit> units_;
  std::string cache_dir_;
  bool wired_serial_;
  std::vector<xfa::ScenarioResult> first_;
  std::vector<xfa::ScenarioResult> last_;
  std::vector<std::string> pass_failures_;
};

}  // namespace perfbench
