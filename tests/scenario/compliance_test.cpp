// The generic compliance suite: every registered scenario must come
// back PASS from the ScenarioRunner, deterministically, through the
// full sim -> wire -> service -> tracker stack. One parameterized test
// per scenario keeps ctest granular (a failing room shows up by name)
// and lets the suite run in parallel.
#include <gtest/gtest.h>

#include <cstddef>
#include <string>

#include "scenario/registry.hpp"
#include "scenario/runner.hpp"
#include "scenario/spec.hpp"

namespace dwatch::scenario {
namespace {

std::string describe(const ScenarioResult& r) {
  return std::string(to_string(r.outcome)) + ": " + r.detail +
         " (rmse " + std::to_string(r.metrics.rmse) + " m, match " +
         std::to_string(r.metrics.match_rate) + ", scored " +
         std::to_string(r.metrics.scored_epochs) + "/" +
         std::to_string(r.metrics.epochs) + ")";
}

// The suite is parameterized by scenario name rather than by the spec
// itself: gtest prints the parameter into each listed test name, and a
// ScenarioSpec prints as a raw byte dump whose heap pointers change from
// one process to the next, so ctest's discovered names would too.
class ScenarioCompliance : public ::testing::TestWithParam<std::string> {};

TEST_P(ScenarioCompliance, PassesItsBudget) {
  const ScenarioSpec* spec = find_scenario(GetParam());
  ASSERT_NE(spec, nullptr);
  ScenarioRunner runner;
  const ScenarioResult result = runner.run(*spec);
  EXPECT_EQ(result.outcome, Outcome::kPass) << describe(result);
  EXPECT_GT(result.metrics.valid_fixes, 0u) << describe(result);
  EXPECT_EQ(result.metrics.epochs, result.records.size());
}

INSTANTIATE_TEST_SUITE_P(
    Registry, ScenarioCompliance, ::testing::ValuesIn(scenario_names()),
    [](const ::testing::TestParamInfo<std::string>& info) {
      return info.param;
    });

// Two runs of the same spec must produce byte-equal fix sequences:
// everything in the runner derives from ScenarioSpec::seed.
TEST(ComplianceRunner, DeterministicUnderAFixedSeed) {
  const ScenarioSpec* spec = find_scenario("hall_sparse_tags");
  ASSERT_NE(spec, nullptr);
  ScenarioRunner r1;
  ScenarioRunner r2;
  const ScenarioResult a = r1.run(*spec);
  const ScenarioResult b = r2.run(*spec);
  ASSERT_EQ(a.records.size(), b.records.size());
  for (std::size_t i = 0; i < a.records.size(); ++i) {
    const EpochRecord& ra = a.records[i];
    const EpochRecord& rb = b.records[i];
    EXPECT_EQ(ra.fix.watermark_us, rb.fix.watermark_us);
    EXPECT_EQ(ra.fix.result.estimate.valid, rb.fix.result.estimate.valid);
    EXPECT_EQ(ra.fix.result.estimate.position.x,
              rb.fix.result.estimate.position.x);
    EXPECT_EQ(ra.fix.result.estimate.position.y,
              rb.fix.result.estimate.position.y);
    EXPECT_EQ(ra.fix.result.estimate.likelihood,
              rb.fix.result.estimate.likelihood);
    ASSERT_EQ(ra.tracked.size(), rb.tracked.size());
    for (std::size_t t = 0; t < ra.tracked.size(); ++t) {
      EXPECT_EQ(ra.tracked[t].x, rb.tracked[t].x);
      EXPECT_EQ(ra.tracked[t].y, rb.tracked[t].y);
    }
  }
  EXPECT_EQ(a.metrics.rmse, b.metrics.rmse);
  EXPECT_EQ(a.metrics.match_rate, b.metrics.match_rate);
}

// The service worker pool must not change results: fixes are
// bit-identical whether the zone runs serially or on a pool.
TEST(ComplianceRunner, WorkerCountDoesNotChangeFixes) {
  const ScenarioSpec* spec = find_scenario("hall_sparse_tags");
  ASSERT_NE(spec, nullptr);
  RunnerConfig serial;
  serial.service_workers = 1;
  RunnerConfig pooled;
  pooled.service_workers = 4;
  const ScenarioResult a = ScenarioRunner(serial).run(*spec);
  const ScenarioResult b = ScenarioRunner(pooled).run(*spec);
  ASSERT_EQ(a.records.size(), b.records.size());
  for (std::size_t i = 0; i < a.records.size(); ++i) {
    EXPECT_EQ(a.records[i].fix.result.estimate.position.x,
              b.records[i].fix.result.estimate.position.x);
    EXPECT_EQ(a.records[i].fix.result.estimate.position.y,
              b.records[i].fix.result.estimate.position.y);
    EXPECT_EQ(a.records[i].fix.result.estimate.likelihood,
              b.records[i].fix.result.estimate.likelihood);
  }
}

// ----------------------------------------------------- outcome plumbing

TEST(ComplianceRunner, SkipsRssScenarioWithoutSurveyedTags) {
  const ScenarioSpec* base = find_scenario("library_rss_forced");
  ASSERT_NE(base, nullptr);
  ScenarioSpec spec = *base;
  spec.survey_tags = false;
  ScenarioRunner runner;
  const ScenarioResult result = runner.run(spec);
  EXPECT_EQ(result.outcome, Outcome::kSkip);
  EXPECT_NE(result.detail.find("survey"), std::string::npos);
  EXPECT_TRUE(result.records.empty());
}

TEST(ComplianceRunner, SkipsUncompilableSpec) {
  ScenarioSpec spec;
  spec.name = "no_targets";
  ScenarioRunner runner;
  const ScenarioResult result = runner.run(spec);
  EXPECT_EQ(result.outcome, Outcome::kSkip);
  EXPECT_FALSE(result.detail.empty());
}

TEST(ComplianceRunner, FailsAnImpossibleBudget) {
  const ScenarioSpec* base = find_scenario("library_static_human");
  ASSERT_NE(base, nullptr);
  ScenarioSpec spec = *base;
  spec.budget.rmse_m = 1e-9;
  spec.budget.human_allowance = false;
  ScenarioRunner runner;
  const ScenarioResult result = runner.run(spec);
  EXPECT_EQ(result.outcome, Outcome::kFail);
}

TEST(ComplianceRunner, PerfBudgetDemotesACorrectRun) {
  const ScenarioSpec* spec = find_scenario("hall_sparse_tags");
  ASSERT_NE(spec, nullptr);
  RunnerConfig config;
  config.perf_budget_us = 1e-3;  // nothing real finishes in a nanosecond
  ScenarioRunner runner(config);
  const ScenarioResult result = runner.run(*spec);
  EXPECT_EQ(result.outcome, Outcome::kPerf) << describe(result);
}

TEST(ComplianceRunner, KeepRecordsOffDropsTheRecords) {
  const ScenarioSpec* spec = find_scenario("hall_sparse_tags");
  ASSERT_NE(spec, nullptr);
  RunnerConfig config;
  config.keep_records = false;
  ScenarioRunner runner(config);
  const ScenarioResult result = runner.run(*spec);
  EXPECT_EQ(result.outcome, Outcome::kPass) << describe(result);
  EXPECT_TRUE(result.records.empty());
  EXPECT_GT(result.metrics.epochs, 0u);
}

}  // namespace
}  // namespace dwatch::scenario
