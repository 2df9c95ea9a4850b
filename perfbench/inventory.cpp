#include "inventory.h"

#include "common.h"

namespace perfbench {
namespace {

xfa::AttackSpec attack(xfa::AttackKind kind, xfa::NodeId attacker,
                       xfa::SimTime start, xfa::SimTime session) {
  xfa::AttackSpec spec;
  spec.kind = kind;
  spec.attacker = attacker;
  spec.schedule = xfa::ScheduleSpec::periodic_from(start, session);
  return spec;
}

}  // namespace

std::vector<Unit> sim_inventory(xfa::RoutingKind routing,
                                xfa::TransportKind transport,
                                xfa::SimTime duration, std::size_t count,
                                std::uint64_t seed) {
  const xfa::SimTime session = duration / 8;
  std::vector<Unit> units(count);
  for (std::size_t i = 0; i < count; ++i) {
    Unit& unit = units[i];
    xfa::ScenarioConfig& config = unit.config;
    config.routing = routing;
    config.transport = transport;
    config.duration = duration;
    config.seed = mix_seed(seed, 1000 + i);
    switch (i % 4) {
      case 2:
        unit.kind = "blackhole";
        unit.onset = duration / 4;
        config.attacks = {
            attack(xfa::AttackKind::Blackhole, 1, unit.onset, session)};
        break;
      case 3:
        unit.kind = "selective-drop";
        unit.onset = duration / 2;
        config.attacks = {
            attack(xfa::AttackKind::SelectiveDrop, 2, unit.onset, session)};
        break;
      default:
        unit.kind = "normal";
        break;
    }
  }
  return units;
}

std::vector<Unit> detect_inventory(xfa::SimTime duration, std::uint64_t seed) {
  xfa::ScenarioConfig base;  // the program's default mobility and traffic
  base.duration = duration;
  std::vector<Unit> units(4);
  for (std::size_t i = 0; i < units.size(); ++i) {
    units[i].config = base;
    units[i].config.seed = mix_seed(seed, 1000 + i);
    units[i].kind = "normal";
  }
  Unit& mixed = units[3];
  mixed.kind = "mixed";
  mixed.onset = duration / 4;
  const xfa::SimTime session = duration / 50;
  mixed.config.attacks = {
      attack(xfa::AttackKind::Blackhole, 1, duration / 4, session),
      attack(xfa::AttackKind::SelectiveDrop, 2, duration / 2, session)};
  return units;
}

}  // namespace perfbench
