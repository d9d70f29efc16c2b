#include "msoc/plan/report.hpp"

#include <gtest/gtest.h>

#include <string>

#include "msoc/common/error.hpp"
#include "msoc/mswrap/partition.hpp"
#include "msoc/plan/frontier.hpp"
#include "msoc/soc/benchmarks.hpp"

namespace msoc::plan {
namespace {

TEST(Table1Report, TwentySixRowsInPaperOrder) {
  const Table1 t = make_table1(soc::table2_analog_cores());
  EXPECT_EQ(t.rows.size(), 26u);
  EXPECT_EQ(t.rows.front().wrapper_count, 4u);
  EXPECT_EQ(t.rows.back().wrapper_count, 1u);
  EXPECT_EQ(t.rows.back().label, "{A,B,C,D,E}");
  EXPECT_NEAR(t.rows.back().analog_lb_normalized, 100.0, 1e-9);
}

TEST(Table1Report, RendersAllCombinations) {
  const Table1 t = make_table1(soc::table2_analog_cores());
  const std::string text = t.render();
  EXPECT_NE(text.find("{A,C}"), std::string::npos);
  EXPECT_NE(text.find("{A,B,C,D,E}"), std::string::npos);
  EXPECT_NE(text.find("636,113"), std::string::npos);
}

TEST(Table2Report, RendersEveryTestRow) {
  const Table2 t = make_table2(soc::table2_analog_cores());
  const std::string text = t.render();
  EXPECT_NE(text.find("G_pb"), std::string::npos);
  EXPECT_NE(text.find("IIP3"), std::string::npos);
  EXPECT_NE(text.find("THD"), std::string::npos);
  EXPECT_NE(text.find("50,000"), std::string::npos);
  EXPECT_NE(text.find("136,533"), std::string::npos);
  EXPECT_NE(text.find("DC"), std::string::npos);  // DC offset band edges
  EXPECT_NE(text.find("78 MHz"), std::string::npos);
}

TEST(Table3Report, StructureAndNormalization) {
  const soc::Soc soc = soc::make_p93791m();
  const Table3 t = make_table3(soc, {32});
  EXPECT_EQ(t.rows.size(), 26u);
  for (const Table3Row& row : t.rows) {
    ASSERT_EQ(row.c_time.size(), 1u);
    EXPECT_GT(row.c_time[0], 0.0);
    EXPECT_LE(row.c_time[0], 100.0 + 1e-9);
    if (row.wrapper_count == 1) {
      EXPECT_NEAR(row.c_time[0], 100.0, 1e-9);
    }
  }
  EXPECT_EQ(t.spreads().size(), 1u);
  EXPECT_GT(t.spreads()[0], 0.0);
  const std::string text = t.render();
  EXPECT_NE(text.find("C_time W=32"), std::string::npos);
  EXPECT_NE(text.find("spread"), std::string::npos);
}

/// The InfeasibleError `make_table3` raises for these inputs, or "" when
/// it raises none.
std::string table3_error(const soc::Soc& soc, const std::vector<int>& widths,
                         const FrontierOptions& base = {}) {
  try {
    (void)make_table3(soc, widths, base);
  } catch (const InfeasibleError& e) {
    return e.what();
  }
  return "";
}

TEST(Table3Report, RejectsInvalidProblemsWithTypedErrors) {
  const soc::Soc mixed = soc::make_p93791m();
  // A digital-only SOC: make_table3 (which enumerates partitions first)
  // and FrontierEngine reject it with one and the same message.
  const std::string digital_only = table3_error(soc::make_p93791(), {32});
  EXPECT_EQ(digital_only, mswrap::kNoAnalogCoreMessage);
  FrontierOptions one_width;
  one_width.widths = {32};
  try {
    const FrontierEngine engine(soc::make_p93791(), one_width);
    ADD_FAILURE() << "FrontierEngine accepted a digital-only SOC";
  } catch (const InfeasibleError& e) {
    EXPECT_EQ(std::string(e.what()), digital_only);
  }
  EXPECT_EQ(table3_error(mixed, {0}), "TAM width must be >= 1");
  EXPECT_EQ(table3_error(mixed, {32, -4}), "TAM width must be >= 1");
  EXPECT_EQ(table3_error(mixed, {}), "table 3 needs at least one TAM width");
  FrontierOptions unbalanced;
  unbalanced.weights = {0.6, 0.6};
  EXPECT_EQ(table3_error(mixed, {32}, unbalanced),
            "cost weights must sum to 1");
}

TEST(Table3Report, CTimeIndependentOfWeights) {
  // C_time is Eq. 2's time term alone: the weights only blend it with
  // the area term, so every column is identical under any weights.
  const soc::Soc soc = soc::make_p93791m();
  std::vector<std::vector<double>> columns;
  for (const double w_time : {0.1, 0.5, 0.9}) {
    FrontierOptions base;
    base.weights = {w_time, 1.0 - w_time};
    std::vector<double> column;
    for (const Table3Row& row : make_table3(soc, {32}, base).rows) {
      column.push_back(row.c_time[0]);
    }
    columns.push_back(std::move(column));
  }
  EXPECT_EQ(columns[0], columns[1]);
  EXPECT_EQ(columns[1], columns[2]);
}

TEST(Table3Report, EveryCombinationAtOrBelowTheBaseline) {
  // No combination packs past the all-share baseline, and the all-share
  // row is the baseline itself: exactly 100.
  const soc::Soc soc = soc::make_p93791m();
  const Table3 t = make_table3(soc, {48});
  for (const Table3Row& row : t.rows) {
    EXPECT_LE(row.c_time[0], 100.0) << row.label;
    if (row.wrapper_count == 1) {
      EXPECT_EQ(row.c_time[0], 100.0);
    }
  }
}

TEST(Table4Report, ComparesHeuristicWithExhaustive) {
  const soc::Soc soc = soc::make_p93791m();
  CostWeights balanced;
  const Table4 t = make_table4(soc, {32}, {balanced});
  ASSERT_EQ(t.blocks.size(), 1u);
  ASSERT_EQ(t.blocks[0].rows.size(), 1u);
  const Table4Row& row = t.blocks[0].rows[0];
  EXPECT_EQ(row.exhaustive_evaluations, 25);
  EXPECT_LT(row.heuristic_evaluations, row.exhaustive_evaluations);
  EXPECT_GE(row.heuristic_cost, row.exhaustive_cost - 1e-9);
  EXPECT_GT(row.evaluation_reduction, 0.0);
  const std::string text = t.render();
  EXPECT_NE(text.find("w_T = 0.50"), std::string::npos);
  EXPECT_NE(text.find("%R"), std::string::npos);
}

TEST(Table4Report, RejectsEmptyInputs) {
  const soc::Soc soc = soc::make_p93791m();
  const std::vector<CostWeights> one_weight = {CostWeights{}};
  const std::vector<CostWeights> no_weights;
  const std::vector<int> no_widths;
  const std::vector<int> one_width = {32};
  EXPECT_THROW(make_table4(soc, no_widths, one_weight), InfeasibleError);
  EXPECT_THROW(make_table4(soc, one_width, no_weights), InfeasibleError);
}

}  // namespace
}  // namespace msoc::plan
