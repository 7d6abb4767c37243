// The built-in scenario catalogue: the compliance suite's case list.
//
// Families (tests/scenario asserts coverage of each):
//   static      — one person standing in each of the paper's three rooms
//   moving      — waypoint walks with per-segment speeds (§6.2 cadence)
//   fist        — fine-grained table tracking (§6.7/§6.8)
//   multi       — two concurrent targets, Hungarian-matched scoring
//   rss         — RSS-only degraded mode, forced and auto-triggered
//   adversarial — wall-hugging and array-collinear geometries
//   density     — sparse/dense tag sweeps
#pragma once

#include <string>
#include <string_view>
#include <vector>

#include "scenario/spec.hpp"

namespace dwatch::scenario {

/// Every built-in scenario, in a stable order.
[[nodiscard]] const std::vector<ScenarioSpec>& all_scenarios();

/// Every ScenarioSpec::name, in all_scenarios() order. A stable key for
/// a scenario, unlike the spec itself, which holds heap pointers.
[[nodiscard]] std::vector<std::string> scenario_names();

/// Lookup by ScenarioSpec::name; nullptr when absent.
[[nodiscard]] const ScenarioSpec* find_scenario(std::string_view name);

}  // namespace dwatch::scenario
