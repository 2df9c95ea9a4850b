// Seeded trace inventories of the benchmark workloads. The program only
// ever sees the ScenarioConfigs made here; every seed inside them is derived
// from the benchmark's --seed.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "scenario/config.h"

namespace perfbench {

/// One trace of an inventory and the first attack onset it was built with
/// (kNever for a normal trace), kept apart from the config so label checks
/// do not read the schedule back through the program.
struct Unit {
  xfa::ScenarioConfig config;
  xfa::SimTime onset = xfa::kNever;
  std::string kind;  // "normal", "blackhole" or "selective-drop"
};

/// The simulation workloads' inventory: `count` traces of `duration`
/// seconds on 50 nodes, cycling normal, normal, black hole, selective drop.
/// Attacks follow the paper's periodic on-off model scaled to the trace
/// length as the program's smoke scenarios scale it: onset at 1/4 (black
/// hole) and 1/2 (selective drop) of it, sessions of 1/8 of it, so 800-s
/// traces attack from 200 s and 400 s in 100-s sessions, as
/// examples/scenarios/smoke-*.scn do. Only the run seeds come from `seed`:
/// the traces share the program's default mobility and traffic pattern, as
/// the traces of one smoke or figure plan of the program do.
std::vector<Unit> sim_inventory(xfa::RoutingKind routing,
                                xfa::TransportKind transport,
                                xfa::SimTime duration, std::size_t count,
                                std::uint64_t seed);

/// The detect-warm inputs, in order: normal training trace, normal
/// threshold trace, normal evaluation trace, and a mixed-intrusion trace
/// (black hole at 1/4, selective drop at 1/2 of `duration`, the paper's
/// 2500 s / 5000 s at 10^4 s). AODV/UDP, 50 nodes. Only the run seeds come
/// from `seed`: the traces share the program's default mobility and traffic
/// pattern, as the traces of one experiment share their setdest and cbrgen
/// files in the paper and in every plan of the program.
std::vector<Unit> detect_inventory(xfa::SimTime duration, std::uint64_t seed);

}  // namespace perfbench
