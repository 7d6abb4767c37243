#include "scenario/registry.hpp"

namespace dwatch::scenario {

namespace {

TargetSpec static_human(rf::Vec2 at, const char* label = "human") {
  TargetSpec t;
  t.kind = TargetKind::kHuman;
  t.trajectory = Trajectory::stationary(at);
  t.label = label;
  return t;
}

TargetSpec walking_human(std::vector<Waypoint> waypoints,
                         const char* label = "human") {
  TargetSpec t;
  t.kind = TargetKind::kHuman;
  t.trajectory = Trajectory(std::move(waypoints));
  t.label = label;
  return t;
}

std::vector<ScenarioSpec> build_catalogue() {
  std::vector<ScenarioSpec> specs;

  // ---- static: one person per room (paper §6.2-§6.4) -----------------
  {
    ScenarioSpec s;
    s.name = "library_static_human";
    s.description = "one person standing in the high-multipath library";
    s.room = RoomPreset::kLibrary;
    s.seed = 11;
    s.targets = {static_human({3.2, 4.8})};
    s.budget.rmse_m = 0.45;
    specs.push_back(std::move(s));
  }
  {
    ScenarioSpec s;
    s.name = "laboratory_static_human";
    s.description = "one person standing in the laboratory";
    s.room = RoomPreset::kLaboratory;
    s.seed = 12;
    s.targets = {static_human({4.2, 6.8})};
    s.budget.rmse_m = 0.45;
    specs.push_back(std::move(s));
  }
  {
    ScenarioSpec s;
    s.name = "hall_static_human";
    s.description = "one person standing in the low-multipath hall";
    s.room = RoomPreset::kHall;
    s.seed = 13;
    // Off the array axes: the on-axis spot is the adversarial case.
    s.targets = {static_human({2.4, 6.4})};
    s.budget.rmse_m = 0.45;
    specs.push_back(std::move(s));
  }

  // ---- moving: waypoint walks with per-segment speeds ----------------
  {
    ScenarioSpec s;
    s.name = "library_walk_line";
    s.description = "person walks a straight line across the library";
    s.room = RoomPreset::kLibrary;
    s.seed = 21;
    s.targets = {walking_human({{{2.0, 3.0}, 0.8}, {{5.0, 7.0}, 0.8}})};
    s.extra_time = 0.8;
    s.budget.rmse_m = 0.9;
    specs.push_back(std::move(s));
  }
  {
    ScenarioSpec s;
    s.name = "laboratory_walk_l";
    s.description = "person walks an L with a speed change at the corner";
    s.room = RoomPreset::kLaboratory;
    s.seed = 22;
    s.targets = {walking_human(
        {{{2.5, 3.0}, 1.0}, {{2.5, 8.5}, 0.7}, {{6.0, 8.5}, 0.7}})};
    s.extra_time = 0.8;
    s.budget.rmse_m = 0.9;
    specs.push_back(std::move(s));
  }

  // ---- fist on the table (paper §6.8 letter tracing) -----------------
  {
    ScenarioSpec s;
    s.name = "table_fist_letter";
    s.description = "fist traces an N-stroke over the 2 m table";
    s.room = RoomPreset::kTable;
    s.num_tags = 10;
    s.seed = 31;
    TargetSpec fist;
    fist.kind = TargetKind::kFist;
    fist.fist_z = sim::Environment::kTableHeight + 0.12;
    fist.trajectory = Trajectory(
        {{{0.6, 0.6}, 0.25}, {{0.6, 1.4}, 0.25}, {{1.3, 0.6}, 0.25},
         {{1.3, 1.4}, 0.25}});
    fist.label = "fist";
    s.targets = {std::move(fist)};
    s.extra_time = 0.4;
    s.budget.rmse_m = 0.45;
    s.budget.human_allowance = false;
    specs.push_back(std::move(s));
  }

  // ---- multi-target --------------------------------------------------
  {
    ScenarioSpec s;
    s.name = "library_two_humans";
    s.description = "two people standing in the same zone";
    s.room = RoomPreset::kLibrary;
    s.seed = 41;
    s.targets = {static_human({2.0, 3.0}, "alice"),
                 static_human({5.0, 7.0}, "bob")};
    s.budget.rmse_m = 0.9;
    s.budget.min_match_rate = 0.5;
    specs.push_back(std::move(s));
  }
  {
    ScenarioSpec s;
    s.name = "library_two_humans_walk";
    s.description = "two people walking opposite lanes";
    s.room = RoomPreset::kLibrary;
    s.seed = 43;
    // Two concurrent walkers is the hardest registry case: the Eq. 15
    // product favours whichever body casts the deeper drops, so the
    // dimmer walker is only intermittently covered. 30 tags and a 0.4
    // match-rate floor encode "dominant walker tracked throughout,
    // second walker at least half the time".
    s.num_tags = 30;
    s.targets = {
        walking_human({{{1.8, 2.5}, 0.7}, {{1.8, 7.5}, 0.7}}, "alice"),
        walking_human({{{5.2, 7.5}, 0.7}, {{5.2, 2.5}, 0.7}}, "bob")};
    s.extra_time = 0.8;
    s.budget.rmse_m = 1.0;
    s.budget.min_match_rate = 0.4;
    specs.push_back(std::move(s));
  }
  {
    ScenarioSpec s;
    s.name = "table_two_bottles";
    s.description = "two bottles placed on the table at once";
    s.room = RoomPreset::kTable;
    s.num_tags = 26;  // the paper's §6.7 tag count
    s.seed = 43;
    TargetSpec b1;
    b1.kind = TargetKind::kBottle;
    b1.trajectory = Trajectory::stationary({0.55, 0.75});
    b1.label = "left";
    TargetSpec b2;
    b2.kind = TargetKind::kBottle;
    b2.trajectory = Trajectory::stationary({1.45, 1.25});
    b2.label = "right";
    s.targets = {std::move(b1), std::move(b2)};
    s.budget.rmse_m = 0.5;
    s.budget.human_allowance = false;
    s.budget.min_match_rate = 0.5;
    specs.push_back(std::move(s));
  }

  // ---- RSS-only degraded mode ----------------------------------------
  {
    ScenarioSpec s;
    s.name = "library_rss_forced";
    s.description = "phase path disabled outright; RSS-only localization";
    s.room = RoomPreset::kLibrary;
    s.seed = 51;
    s.targets = {static_human({3.2, 4.8})};
    s.rss.force = true;
    s.survey_tags = true;
    s.budget.rmse_m = 1.6;
    specs.push_back(std::move(s));
  }
  {
    ScenarioSpec s;
    s.name = "hall_rss_auto_scramble";
    s.description =
        "scrambled phases trip the health gate; auto RSS fallback";
    s.room = RoomPreset::kHall;
    s.seed = 52;
    s.targets = {static_human({3.6, 5.2})};
    s.phase_fault = PhaseFault::kScramble;
    s.rss.auto_health_threshold = 0.6;
    s.survey_tags = true;
    s.budget.rmse_m = 1.6;
    specs.push_back(std::move(s));
  }

  // ---- adversarial geometries ----------------------------------------
  {
    ScenarioSpec s;
    s.name = "library_wall_hugger";
    s.description = "person standing 0.45 m off the left wall";
    s.room = RoomPreset::kLibrary;
    s.seed = 61;
    s.targets = {static_human({0.45, 5.0})};
    s.budget.rmse_m = 0.9;
    specs.push_back(std::move(s));
  }
  {
    ScenarioSpec s;
    s.name = "laboratory_collinear";
    s.description =
        "person on the bottom-top array axis (degenerate bearings)";
    s.room = RoomPreset::kLaboratory;
    s.seed = 62;
    s.targets = {static_human({4.5, 4.0})};
    s.budget.rmse_m = 0.9;
    specs.push_back(std::move(s));
  }

  // ---- tag-density sweep ---------------------------------------------
  {
    ScenarioSpec s;
    s.name = "hall_sparse_tags";
    s.description = "only 6 tags deployed; evidence is thin";
    s.room = RoomPreset::kHall;
    s.seed = 71;
    s.num_tags = 6;
    s.targets = {static_human({3.6, 5.2})};
    s.budget.rmse_m = 0.9;
    specs.push_back(std::move(s));
  }
  {
    ScenarioSpec s;
    s.name = "library_dense_tags";
    s.description = "30 tags deployed; evidence is rich";
    s.room = RoomPreset::kLibrary;
    s.seed = 72;
    s.num_tags = 30;
    s.targets = {static_human({3.2, 4.8})};
    s.budget.rmse_m = 0.45;
    specs.push_back(std::move(s));
  }

  return specs;
}

}  // namespace

const std::vector<ScenarioSpec>& all_scenarios() {
  static const std::vector<ScenarioSpec> catalogue = build_catalogue();
  return catalogue;
}

std::vector<std::string> scenario_names() {
  std::vector<std::string> names;
  for (const ScenarioSpec& spec : all_scenarios()) names.push_back(spec.name);
  return names;
}

const ScenarioSpec* find_scenario(std::string_view name) {
  for (const ScenarioSpec& spec : all_scenarios()) {
    if (spec.name == name) return &spec;
  }
  return nullptr;
}

}  // namespace dwatch::scenario
