#include "msoc/plan/sweep.hpp"

#include <gtest/gtest.h>
#include <unistd.h>

#include <filesystem>
#include <limits>
#include <regex>
#include <string>
#include <vector>

#include "msoc/common/error.hpp"
#include "msoc/common/format.hpp"
#include "msoc/plan/result_cache.hpp"
#include "msoc/soc/benchmarks.hpp"
#include "msoc/soc/digest.hpp"
#include "powered_fixtures.hpp"

namespace msoc::plan {
namespace {

/// A small, fast config: one SOC, two widths, one weight.
SweepConfig small_config() {
  SweepConfig config;
  config.socs.push_back(soc::make_d695m());
  config.tam_widths = {24, 32};
  config.time_weights = {0.5};
  return config;
}

TEST(Sweep, CaseCountIsCrossProduct) {
  SweepConfig config = small_config();
  EXPECT_EQ(config.case_count(), 2u);
  config.socs.push_back(soc::make_p93791m());
  config.time_weights = {0.25, 0.75};
  EXPECT_EQ(config.case_count(), 8u);
}

TEST(Sweep, RowsInCrossProductOrder) {
  const SweepResult result = run_sweep(small_config());
  ASSERT_EQ(result.rows.size(), 2u);
  EXPECT_EQ(result.rows[0].soc_name, "d695m");
  EXPECT_EQ(result.rows[0].tam_width, 24);
  EXPECT_EQ(result.rows[1].tam_width, 32);
  for (const SweepRow& row : result.rows) {
    EXPECT_TRUE(row.ok()) << row.error;
    EXPECT_GT(row.best_total, 0.0);
    EXPECT_GT(row.t_max, 0u);
    EXPECT_LE(row.c_time, 100.0 + 1e-9);
    EXPECT_EQ(row.algorithm, "cost_optimizer");
  }
}

TEST(Sweep, JobsDoNotChangeResults) {
  SweepConfig config = small_config();
  config.jobs = 1;
  const SweepResult serial = run_sweep(config);
  config.jobs = 4;
  const SweepResult parallel = run_sweep(config);
  ASSERT_EQ(serial.rows.size(), parallel.rows.size());
  for (std::size_t i = 0; i < serial.rows.size(); ++i) {
    EXPECT_EQ(serial.rows[i].best_label, parallel.rows[i].best_label);
    EXPECT_EQ(serial.rows[i].best_total, parallel.rows[i].best_total);
    EXPECT_EQ(serial.rows[i].test_time, parallel.rows[i].test_time);
    EXPECT_EQ(serial.rows[i].evaluations, parallel.rows[i].evaluations);
  }
}

TEST(Sweep, InfeasibleCaseRecordedNotFatal) {
  SweepConfig config = small_config();
  config.tam_widths = {8, 32};  // analog core D needs 10 wires
  const SweepResult result = run_sweep(config);
  ASSERT_EQ(result.rows.size(), 2u);
  EXPECT_FALSE(result.rows[0].ok());
  EXPECT_FALSE(result.rows[0].error.empty());
  EXPECT_TRUE(result.rows[1].ok());
}

TEST(Sweep, ExhaustiveMatchesHeuristicOrBetter) {
  SweepConfig config = small_config();
  config.tam_widths = {32};
  config.exhaustive = true;
  const SweepResult exhaustive = run_sweep(config);
  config.exhaustive = false;
  const SweepResult heuristic = run_sweep(config);
  ASSERT_EQ(exhaustive.rows.size(), 1u);
  ASSERT_EQ(heuristic.rows.size(), 1u);
  EXPECT_EQ(exhaustive.rows[0].algorithm, "exhaustive");
  EXPECT_LE(exhaustive.rows[0].best_total,
            heuristic.rows[0].best_total + 1e-9);
  EXPECT_LE(heuristic.rows[0].evaluations, exhaustive.rows[0].evaluations);
}

TEST(Sweep, EmptyConfigRejected) {
  SweepConfig config;
  EXPECT_THROW((void)run_sweep(config), InfeasibleError);
  config = small_config();
  config.tam_widths.clear();
  EXPECT_THROW((void)run_sweep(config), InfeasibleError);
}

TEST(Sweep, CsvHasHeaderAndOneLinePerCase) {
  const SweepResult result = run_sweep(small_config());
  const std::string csv = result.to_csv();
  std::size_t lines = 0;
  for (const char c : csv) lines += c == '\n';
  EXPECT_EQ(lines, 1u + result.rows.size());
  EXPECT_NE(csv.find("soc,tam_width,max_power,window_cycles,window_limit,"
                     "w_time,algorithm"),
            std::string::npos);
  EXPECT_NE(csv.find("d695m"), std::string::npos);
}

/// Every JSON key of a document, in document order.
std::vector<std::string> json_keys(const std::string& json) {
  static const std::regex key("\"([a-z_]+)\": ");
  std::vector<std::string> keys;
  for (auto it = std::sregex_iterator(json.begin(), json.end(), key);
       it != std::sregex_iterator(); ++it) {
    keys.push_back((*it)[1]);
  }
  return keys;
}

std::string first_line(const std::string& text) {
  return text.substr(0, text.find('\n'));
}

TEST(Sweep, JsonCarriesSchemaAndCases) {
  const SweepResult result = run_sweep(small_config());
  const std::string json = result.to_json();
  EXPECT_NE(json.find("\"schema\": \"msoc-sweep-v5\""), std::string::npos);
  EXPECT_NE(json.find("\"soc\": \"d695m\""), std::string::npos);
  EXPECT_NE(json.find("\"tam_width\": 24"), std::string::npos);
  EXPECT_NE(json.find("\"best\""), std::string::npos);
  // Balanced braces/brackets — cheap structural sanity without a parser.
  long braces = 0, brackets = 0;
  bool in_string = false;
  for (std::size_t i = 0; i < json.size(); ++i) {
    const char c = json[i];
    if (c == '"' && (i == 0 || json[i - 1] != '\\')) in_string = !in_string;
    if (in_string) continue;
    braces += (c == '{') - (c == '}');
    brackets += (c == '[') - (c == ']');
  }
  EXPECT_FALSE(in_string);
  EXPECT_EQ(braces, 0);
  EXPECT_EQ(brackets, 0);

  // One schema whatever the sweep used: a powered, a windowed and a
  // cached replan sweep serialize with the plain one's key sequence and
  // CSV header.
  SweepConfig config = small_config();
  config.socs = {soc::powered_d695m(1.5)};
  const SweepResult constrained = run_sweep(config);
  ASSERT_GT(constrained.rows[0].max_power, 0.0);
  config.max_powers = {0.0};
  config.window_cycles = 4096;
  config.window_limit = config.socs[0].peak_test_power();
  const SweepResult windowed = run_sweep(config);
  ASSERT_GT(windowed.rows[0].window_cycles, 0u);
  ResultCache cache;
  config = small_config();
  config.cache = &cache;
  (void)run_sweep(config);
  config.replan_from = soc::digest_hex(config.socs[0]);
  const SweepResult replanned = run_sweep(config);
  ASSERT_EQ(replanned.replanned_from, config.replan_from);
  for (const SweepResult* other : {&constrained, &windowed, &replanned}) {
    EXPECT_EQ(json_keys(other->to_json()), json_keys(json));
    EXPECT_EQ(first_line(other->to_csv()), first_line(result.to_csv()));
  }
}

TEST(Sweep, CacheDirMakesSecondSweepEvaluationFree) {
  // Per-process dir: gtest's TempDir is plain /tmp on Linux, and
  // concurrent suite runs (e.g. two build trees) must not share it.
  const std::filesystem::path dir =
      std::filesystem::path(::testing::TempDir()) /
      ("msoc_sweep_cache_" + std::to_string(::getpid()));
  std::filesystem::remove_all(dir);

  SweepConfig config = small_config();
  // One cache instance per sweep, as one msoc_plan run opens it.
  const auto sweep_with_cache = [&] {
    ResultCache cache(dir.string());
    config.cache = &cache;
    return run_sweep(config);
  };
  const SweepResult cold = sweep_with_cache();
  const SweepResult warm = sweep_with_cache();
  ASSERT_EQ(cold.rows.size(), warm.rows.size());
  int cold_evaluations = 0;
  for (std::size_t i = 0; i < cold.rows.size(); ++i) {
    cold_evaluations += cold.rows[i].evaluations;
    EXPECT_EQ(warm.rows[i].evaluations, 0);  // every cell was cached
    EXPECT_EQ(warm.rows[i].best_label, cold.rows[i].best_label);
    EXPECT_EQ(warm.rows[i].best_total, cold.rows[i].best_total);
    EXPECT_EQ(warm.rows[i].test_time, cold.rows[i].test_time);
    EXPECT_EQ(warm.rows[i].t_max, cold.rows[i].t_max);
  }
  EXPECT_GT(cold_evaluations, 0);
  // The msoc-cache-v4 store shards by digest prefix: flush() appends
  // to one journal.wal per shard directory, no legacy top-level files.
  std::size_t shard_dirs = 0;
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    ASSERT_TRUE(entry.is_directory()) << entry.path();
    EXPECT_EQ(entry.path().filename().string().size(), 2u);
    EXPECT_TRUE(std::filesystem::is_regular_file(entry.path() /
                                                 "journal.wal"));
    ++shard_dirs;
  }
  EXPECT_EQ(shard_dirs, 1u);  // small_config sweeps one SOC
}

TEST(Sweep, DefaultBenchmarkSweepShape) {
  const SweepConfig config = default_benchmark_sweep();
  ASSERT_EQ(config.socs.size(), 2u);
  EXPECT_EQ(config.socs[0].name(), "p93791m");
  EXPECT_EQ(config.socs[1].name(), "d695m");
  EXPECT_FALSE(config.tam_widths.empty());
  EXPECT_FALSE(config.time_weights.empty());
}

// --- Power ladder through the sweep. ---

/// small_config with its SOC swapped for the shared powered fixture.
SweepConfig powered_config() {
  SweepConfig config = small_config();
  config.socs[0] = soc::powered_d695m(1.5);
  return config;
}

TEST(SweepPower, PowerLadderMultipliesCasesInOrder) {
  SweepConfig config = powered_config();
  config.max_powers = {0.0, -1.0};
  EXPECT_EQ(config.case_count(), 4u);  // 2 widths x 2 powers x 1 weight
  const SweepResult result = run_sweep(config);
  ASSERT_EQ(result.rows.size(), 4u);
  // socs x widths x powers x weights order.
  EXPECT_EQ(result.rows[0].tam_width, 24);
  EXPECT_EQ(result.rows[0].max_power, 0.0);
  EXPECT_EQ(result.rows[1].tam_width, 24);
  EXPECT_EQ(result.rows[1].max_power, config.socs[0].max_power());
  EXPECT_EQ(result.rows[2].tam_width, 32);
  EXPECT_EQ(result.rows[2].max_power, 0.0);
  for (const SweepRow& row : result.rows) {
    ASSERT_TRUE(row.ok()) << row.error;
    // The constrained rows can only be as fast as the unconstrained
    // baseline normalizes them to.
    EXPECT_LE(row.c_time, 100.0 + 1e-9);
  }
  // Constrained cases carry their budget; unconstrained ones write 0.
  EXPECT_NE(result.to_json().find("\"max_power\": " +
                                  round_trip_double(result.rows[1].max_power)),
            std::string::npos);
  EXPECT_NE(result.to_csv().find("soc,tam_width,max_power"),
            std::string::npos);
  const SweepResult plain = run_sweep(small_config());
  EXPECT_NE(plain.to_json().find("\"max_power\": 0,"), std::string::npos);
}

TEST(SweepPower, NonFiniteBudgetsRejectedUpFront) {
  // NaN passes every sign test (NaN < 0.0 is false), so without an
  // explicit isfinite gate it would flow into the cache's EntryKey and
  // break its strict weak ordering.
  SweepConfig config = powered_config();
  config.max_powers = {std::numeric_limits<double>::quiet_NaN()};
  EXPECT_THROW((void)run_sweep(config), Error);
  config.max_powers = {std::numeric_limits<double>::infinity()};
  EXPECT_THROW((void)run_sweep(config), Error);
  config.max_powers = {-1.0};  // negative = inherit stays legal
  EXPECT_NO_THROW((void)run_sweep(config));
}

TEST(SweepPower, InfeasibleBudgetIsSoftPerRow) {
  SweepConfig config = powered_config();
  config.max_powers = {1.0};  // below every test's power
  const SweepResult result = run_sweep(config);
  ASSERT_EQ(result.rows.size(), 2u);
  for (const SweepRow& row : result.rows) {
    EXPECT_FALSE(row.ok());
    EXPECT_NE(row.error.find("power"), std::string::npos);
  }
}

TEST(SweepPower, SeriesErrorRowsCarryTheResolvedWindow) {
  // A SOC without analog cores fails its whole series up front; its
  // rows must still report the window the series ran under, as the
  // per-point error rows of a feasible series do.
  SweepConfig config;
  config.socs.push_back(soc::make_p93791());
  config.tam_widths = {32};
  config.time_weights = {0.5};
  config.window_cycles = 4096;
  config.window_limit = 200.0;
  const SweepResult result = run_sweep(config);
  ASSERT_EQ(result.rows.size(), 1u);
  EXPECT_FALSE(result.rows[0].ok());
  EXPECT_EQ(result.rows[0].window_cycles, 4096u);
  EXPECT_EQ(result.rows[0].window_limit, 200.0);
  EXPECT_NE(result.to_json().find("\"window_cycles\": 4096"),
            std::string::npos);
}

}  // namespace
}  // namespace msoc::plan
