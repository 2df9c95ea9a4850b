#include "sim_workload.h"

#include <filesystem>
#include <memory>
#include <utility>

#include "exec/task_group.h"
#include "exec/thread_pool.h"
#include "features/schema.h"
#include "mobility/waypoint.h"
#include "net/channel.h"
#include "net/node.h"
#include "scenario/cache.h"
#include "scenario/graph/builder.h"
#include "scenario/graph/registry.h"

namespace perfbench {
namespace {

/// The live pieces of one simulated world, in construction order.
struct World {
  explicit World(const xfa::ScenarioConfig& config)
      : sim(config.seed),
        mobility(config.node_count, config.mobility,
                 xfa::Rng(config.mobility_seed)),
        channel(sim, mobility, channel_config(config)),
        built(xfa::build_scenario(config, sim, channel)) {}

  static xfa::ChannelConfig channel_config(const xfa::ScenarioConfig& config) {
    xfa::ChannelConfig channel = config.channel;
    channel.promiscuous_taps = xfa::element_for(config.routing).promiscuous;
    channel.max_node_speed = config.mobility.max_speed;
    return channel;
  }

  xfa::Simulator sim;
  xfa::RandomWaypointMobility mobility;
  xfa::Channel channel;
  std::unique_ptr<xfa::BuiltScenario> built;
};

void add_world_counters(World& world, LayerSample& layer) {
  const xfa::Scheduler& scheduler = world.sim.scheduler();
  layer.add("sim.events", static_cast<double>(scheduler.dispatched()));
  layer.add("sim.cancelled", static_cast<double>(scheduler.cancelled()));
  layer.add("sim.compactions", static_cast<double>(scheduler.compactions()));

  const xfa::ChannelStats& channel = world.channel.stats();
  layer.add("net.transmissions", static_cast<double>(channel.transmissions));
  layer.add("net.deliveries", static_cast<double>(channel.deliveries));
  layer.add("net.taps", static_cast<double>(channel.taps));
  layer.add("net.unicast_failures",
            static_cast<double>(channel.unicast_failures));
  const xfa::NeighborIndex::Stats& grid =
      world.channel.neighbor_index().stats();
  layer.add("net.grid_rebuilds", static_cast<double>(grid.rebuilds));
  layer.add("net.grid_queries", static_cast<double>(grid.queries));
  layer.add("net.grid_candidates", static_cast<double>(grid.candidates));
  layer.add("net.grid_confirmed", static_cast<double>(grid.confirmed));

  for (const auto& node : world.built->nodes) {
    const xfa::RoutingStats& routing = node->routing().stats();
    layer.add("routing.discoveries_started",
              static_cast<double>(routing.discoveries_started));
    layer.add("routing.discoveries_succeeded",
              static_cast<double>(routing.discoveries_succeeded));
    layer.add("routing.control_originated",
              static_cast<double>(routing.control_originated));
    layer.add("routing.control_forwarded",
              static_cast<double>(routing.control_forwarded));
    layer.add("routing.data_forwarded",
              static_cast<double>(routing.data_forwarded));
    layer.add("routing.rerr_sent", static_cast<double>(routing.rerr_sent));
    layer.add("transport.data_originated",
              static_cast<double>(node->data_originated()));
    layer.add("transport.data_delivered",
              static_cast<double>(node->data_delivered()));
  }
  layer.add("audit.packet_records",
            static_cast<double>(world.built->monitor_audit.total_packet_records()));
  layer.add("audit.route_events",
            static_cast<double>(world.built->monitor_audit.total_route_events()));
}

double ratio(double part, double whole) { return whole > 0 ? part / whole : 0; }

void reset_directory(const std::string& dir) {
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
}

}  // namespace

xfa::ScenarioResult run_wired(const Unit& unit, LayerSample* layer,
                              AuditStreams* audit) {
  const xfa::ScenarioConfig& config = unit.config;
  auto build = std::make_unique<Span>(layer, "scenario.build_s");
  World world(config);
  xfa::Node& monitor = world.built->monitor(config);
  xfa::SampledNodeState state;
  const auto samples = static_cast<std::size_t>(
      config.duration / config.sample_interval + 1e-9);
  for (std::size_t i = 0; i < samples; ++i) {
    const xfa::SimTime t = config.sample_interval * static_cast<double>(i + 1);
    world.sim.at(t, [&state, &world, &monitor, &config, t] {
      state.velocity.push_back(world.mobility.speed(config.monitor_node, t));
      state.average_route_len.push_back(
          monitor.routing().average_route_length());
    });
  }
  build.reset();

  {
    Span span(layer, "sim.run_s");
    world.sim.run_until(config.duration);
  }

  xfa::ScenarioResult result;
  {
    Span span(layer, "features.extract_s");
    const xfa::FeatureSchema schema = xfa::FeatureSchema::standard();
    const xfa::FeatureExtractor extractor(schema, config.sample_interval);
    result.trace = extractor.extract(world.built->monitor_audit, state,
                                     config.duration);
  }
  xfa::ScenarioSummary& summary = result.summary;
  for (const auto& node : world.built->nodes) {
    summary.data_originated += node->data_originated();
    summary.data_delivered += node->data_delivered();
  }
  summary.packet_delivery_ratio =
      summary.data_originated == 0
          ? 0.0
          : static_cast<double>(summary.data_delivered) /
                static_cast<double>(summary.data_originated);
  summary.scheduler_events = world.sim.scheduler().dispatched();
  summary.channel = world.channel.stats();
  summary.monitor_routing = monitor.routing().stats();
  summary.monitor_audit_packets =
      world.built->monitor_audit.total_packet_records();
  summary.monitor_audit_route_events =
      world.built->monitor_audit.total_route_events();
  xfa::apply_labels(result.trace, config, xfa::LabelPolicy::OnsetOnwards);

  if (layer != nullptr) add_world_counters(world, *layer);
  if (audit != nullptr) {
    const xfa::AuditLog& log = world.built->monitor_audit;
    for (std::size_t type = 0; type < xfa::kAuditPacketTypeCount; ++type)
      for (std::size_t dir = 0; dir < xfa::kFlowDirectionCount; ++dir)
        audit->packets[type][dir] =
            log.packet_times(static_cast<xfa::AuditPacketType>(type),
                             static_cast<xfa::FlowDirection>(dir));
    for (std::size_t kind = 0; kind < xfa::kRouteEventKindCount; ++kind)
      audit->routes[kind] =
          log.route_event_times(static_cast<xfa::RouteEventKind>(kind));
  }
  return result;
}

SimWorkload::SimWorkload(std::vector<Unit> units, std::string cache_dir,
                         bool wired_serial)
    : units_(std::move(units)),
      cache_dir_(std::move(cache_dir)),
      wired_serial_(wired_serial) {}

void SimWorkload::setup() {
  xfa::resize_shared_pool(usable_cpus());
  for (const Unit& unit : units_) World world(unit.config);
}

xfa::Result<xfa::ScenarioResult> SimWorkload::run_and_store(
    std::size_t i, LayerSample* layer) const {
  const xfa::ScenarioConfig& config = units_[i].config;
  xfa::ScenarioResult result = run_wired(units_[i], layer, nullptr);
  const xfa::TraceCache cache(cache_dir_);
  const std::string key = config.cache_key();
  xfa::Status stored;
  {
    Span span(layer, "scenario.cache_store_s");
    stored = cache.store(key, result);
  }
  if (!stored.ok()) return stored;
  if (layer != nullptr)
    layer->add("scenario.cache_bytes",
               static_cast<double>(
                   std::filesystem::file_size(cache.artifact_path(key))));
  return result;
}

PassStats SimWorkload::pass(std::size_t threads, LayerSample* layer) {
  xfa::resize_shared_pool(threads);
  reset_directory(cache_dir_);
  const bool wired = wired_serial_ && threads == 1;
  std::vector<xfa::Result<xfa::ScenarioResult>> out(
      units_.size(), xfa::Status{xfa::StatusCode::kRetryable, "not run"});
  const auto run_unit = [this, &out, layer, wired](std::size_t i) {
    out[i] = wired ? run_and_store(i, layer)
                   : xfa::run_scenario_checked(units_[i].config);
  };

  PassStats stats;
  const xfa::ExecStats exec_before = xfa::shared_pool().stats();
  const double cpu_start = process_cpu_now();
  const double start = wall_now();
  if (threads == 1) {
    run_alone([this, &run_unit] {
      for (std::size_t i = 0; i < units_.size(); ++i) run_unit(i);
    });
  } else {
    // As gather_experiment() runs units: one task each, the caller waiting
    // on the group.
    xfa::TaskGroup group(xfa::shared_pool());
    for (std::size_t i = 0; i < units_.size(); ++i)
      group.submit([&run_unit, i] {
        run_unit(i);
        return xfa::Status::Ok();
      });
    group.wait();
  }
  stats.wall_s = wall_now() - start;
  stats.cpu_s = process_cpu_now() - cpu_start;

  if (layer != nullptr && threads > 1)
    record_exec_stats(*layer, exec_before, stats.wall_s, threads);
  if (wired && layer != nullptr) {
    layer->set("sim.ns_per_event",
               1e9 * ratio(layer->get("sim.run_s"), layer->get("sim.events")));
    layer->set("net.grid_confirm_ratio",
               ratio(layer->get("net.grid_confirmed"),
                     layer->get("net.grid_candidates")));
    layer->set("routing.discovery_success_ratio",
               ratio(layer->get("routing.discoveries_succeeded"),
                     layer->get("routing.discoveries_started")));
  }

  std::vector<xfa::ScenarioResult> results;
  for (std::size_t i = 0; i < out.size(); ++i) {
    ++stats.attempted;
    if (!out[i].ok()) {
      ++stats.failed;
      pass_failures_.push_back(units_[i].kind + " unit " + std::to_string(i) +
                               ": " + out[i].status().to_string());
      results.emplace_back();
      continue;
    }
    results.push_back(std::move(*out[i]));
  }
  if (first_.empty()) {
    first_ = results;
  } else {
    for (std::size_t i = 0; i < results.size(); ++i) {
      const std::string diff = same_trace(first_[i].trace, results[i].trace);
      if (!diff.empty())
        pass_failures_.push_back("unit " + std::to_string(i) + " differs from " +
                                 "the first pass (" +
                                 (wired ? "wired" : "run_scenario") + ", " +
                                 std::to_string(threads) + " threads): " + diff);
    }
  }
  last_ = std::move(results);
  return stats;
}

std::vector<std::string> SimWorkload::check() {
  std::vector<std::string> failures = pass_failures_;
  const auto expect = [&failures](const std::string& what,
                                  const std::string& diff) {
    if (!diff.empty()) failures.push_back(what + ": " + diff);
  };
  const std::size_t width = xfa::FeatureSchema::standard().size();
  const xfa::TraceCache cache(cache_dir_);
  for (std::size_t i = 0; i < units_.size() && i < last_.size(); ++i) {
    const Unit& unit = units_[i];
    const xfa::ScenarioResult& result = last_[i];
    const std::string name = unit.kind + " unit " + std::to_string(i);
    expect(name + " shape", trace_shape(result.trace, unit.config.duration,
                                        unit.config.sample_interval, width));
    expect(name + " labels", labels_from_onset(result.trace, unit.onset));
    expect(name + " delivery", delivery(result.summary, unit.kind == "normal"));
    xfa::Result<xfa::ScenarioResult> loaded =
        cache.load(unit.config.cache_key());
    if (!loaded.ok())
      failures.push_back(name + " cache load: " + loaded.status().to_string());
    else
      expect(name + " cache round trip", same_artifact(result, *loaded));
  }
  // One normal and one attacked unit rewired by hand: the same trace as the
  // passes, and traffic counts equal to a recount of their audit records.
  std::vector<std::size_t> rewired;
  for (const std::size_t i : {0, 2})
    if (i < last_.size()) rewired.push_back(i);
  std::vector<xfa::ScenarioResult> wired(rewired.size());
  std::vector<AuditStreams> audit(rewired.size());
  xfa::resize_shared_pool(usable_cpus());
  {
    xfa::TaskGroup group(xfa::shared_pool());
    for (std::size_t k = 0; k < rewired.size(); ++k)
      group.submit([this, &rewired, &wired, &audit, k] {
        wired[k] = run_wired(units_[rewired[k]], nullptr, &audit[k]);
        return xfa::Status::Ok();
      });
    group.wait();
  }
  for (std::size_t k = 0; k < rewired.size(); ++k) {
    const std::size_t i = rewired[k];
    const std::string name = units_[i].kind + " unit " + std::to_string(i);
    expect(name + " wired vs run_scenario",
           same_trace(wired[k].trace, last_[i].trace));
    expect(name + " audit recount",
           audit_recount(wired[k].trace, audit[k],
                         units_[i].config.sample_interval, 7));
  }
  return failures;
}

}  // namespace perfbench
