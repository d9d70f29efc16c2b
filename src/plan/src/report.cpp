#include "msoc/plan/report.hpp"

#include <algorithm>

#include "msoc/common/error.hpp"
#include "msoc/common/format.hpp"
#include "msoc/common/table.hpp"
#include "msoc/plan/frontier.hpp"

namespace msoc::plan {

// ---------------------------------------------------------------- Table 1
Table1 make_table1(const std::vector<soc::AnalogCore>& cores,
                   const mswrap::WrapperAreaModel& area_model,
                   const mswrap::SharingPolicy& policy,
                   const mswrap::EnumerationOptions& enumeration) {
  Table1 table;
  for (const mswrap::SharingEvaluation& e :
       mswrap::evaluate_combinations(cores, area_model, policy,
                                     enumeration)) {
    Table1Row row;
    row.wrapper_count = e.wrapper_count;
    row.label = e.label;
    row.area_cost = e.area_cost;
    row.analog_lb_cycles = e.analog_lb_cycles;
    row.analog_lb_normalized = e.analog_lb_normalized;
    row.feasible = e.feasible;
    table.rows.push_back(std::move(row));
  }
  return table;
}

std::string Table1::render() const {
  TextTable t({"N_w", "combination", "C_A", "LB_A (cycles)", "LB_A (%)"});
  t.set_alignment({Align::kRight, Align::kLeft, Align::kRight, Align::kRight,
                   Align::kRight});
  std::size_t last_count = 0;
  for (const Table1Row& row : rows) {
    if (last_count != 0 && row.wrapper_count != last_count) t.add_rule();
    last_count = row.wrapper_count;
    t.add_row({std::to_string(row.wrapper_count), row.label,
               fixed(row.area_cost, 1),
               with_thousands(row.analog_lb_cycles),
               fixed(row.analog_lb_normalized, 1)});
  }
  return t.to_string();
}

// ---------------------------------------------------------------- Table 2
Table2 make_table2(const std::vector<soc::AnalogCore>& cores) {
  return Table2{cores};
}

std::string Table2::render() const {
  TextTable t({"core", "test", "f_low", "f_high", "f_s", "cycles", "w"});
  t.set_alignment({Align::kLeft, Align::kLeft, Align::kRight, Align::kRight,
                   Align::kRight, Align::kRight, Align::kRight});
  bool first = true;
  for (const soc::AnalogCore& core : cores) {
    if (!first) t.add_rule();
    first = false;
    bool first_test = true;
    for (const soc::AnalogTestSpec& test : core.tests) {
      t.add_row({first_test ? core.name + ": " + core.description : "",
                 test.name,
                 test.f_low.hz() == 0.0 ? "DC" : test.f_low.to_string(),
                 test.f_high.hz() == 0.0 ? "DC" : test.f_high.to_string(),
                 test.f_sample.to_string(), with_thousands(test.cycles),
                 std::to_string(test.tam_width)});
      first_test = false;
    }
  }
  return t.to_string();
}

// ---------------------------------------------------------------- Table 3
Table3 make_table3(const soc::Soc& soc, const std::vector<int>& widths,
                   const FrontierOptions& base) {
  require(!widths.empty(), "table 3 needs at least one TAM width");
  Table3 table;
  table.widths = widths;

  const std::vector<mswrap::SharingEvaluation> combos =
      mswrap::evaluate_combinations(soc.analog_cores(), base.area_model,
                                    base.policy, base.enumeration);
  base.weights.validate();
  for (const mswrap::SharingEvaluation& e : combos) {
    Table3Row row;
    row.wrapper_count = e.wrapper_count;
    row.label = e.label;
    table.rows.push_back(std::move(row));
  }

  const tam::AnalogPartition all_share = tam::all_share_partition(soc);
  for (const int width : widths) {
    require(width >= 1, "TAM width must be >= 1");
    // The all-share schedule normalizes every C_time and is lent to each
    // combination's pack as its serialized fallback.
    const tam::Schedule baseline =
        tam::schedule_soc(soc, width, all_share, base.packing);
    const Cycles t_max = baseline.makespan();
    check_invariant(t_max > 0, "T_max must be positive");
    tam::PackingOptions hinted = base.packing;
    hinted.serialized_hint = &baseline;
    for (std::size_t i = 0; i < combos.size(); ++i) {
      // One wrapper over every core is the baseline itself.
      Cycles test_time = t_max;
      if (combos[i].partition.wrapper_count() != 1) {
        const tam::AnalogPartition analog = mswrap::to_analog_partition(
            soc.analog_cores(), combos[i].partition);
        test_time = tam::schedule_soc(soc, width, analog, hinted).makespan();
      }
      table.rows[i].c_time.push_back(
          combination_cost(base.weights, combos[i].partition,
                           combos[i].label, test_time, t_max,
                           combos[i].area_cost)
              .c_time);
    }
  }
  return table;
}

std::vector<double> Table3::spreads() const {
  std::vector<double> out;
  for (std::size_t w = 0; w < widths.size(); ++w) {
    double lo = 1e300;
    double hi = -1e300;
    for (const Table3Row& row : rows) {
      lo = std::min(lo, row.c_time[w]);
      hi = std::max(hi, row.c_time[w]);
    }
    out.push_back(hi - lo);
  }
  return out;
}

std::string Table3::render() const {
  std::vector<std::string> headers = {"N_w", "combination"};
  std::vector<Align> align = {Align::kRight, Align::kLeft};
  for (int w : widths) {
    headers.push_back("C_time W=" + std::to_string(w));
    align.push_back(Align::kRight);
  }
  TextTable t(headers);
  t.set_alignment(align);

  // Highlight the minimum per column as the paper does (marked with *).
  std::vector<double> col_min(widths.size(), 1e300);
  for (const Table3Row& row : rows) {
    for (std::size_t w = 0; w < widths.size(); ++w) {
      col_min[w] = std::min(col_min[w], row.c_time[w]);
    }
  }

  std::size_t last_count = 0;
  for (const Table3Row& row : rows) {
    if (last_count != 0 && row.wrapper_count != last_count) t.add_rule();
    last_count = row.wrapper_count;
    std::vector<std::string> cells = {std::to_string(row.wrapper_count),
                                      row.label};
    for (std::size_t w = 0; w < widths.size(); ++w) {
      std::string cell = fixed(row.c_time[w], 1);
      if (row.c_time[w] <= col_min[w] + 1e-9) cell += "*";
      cells.push_back(std::move(cell));
    }
    t.add_row(std::move(cells));
  }

  std::string out = t.to_string();
  out += "spread (max-min):";
  const std::vector<double> s = spreads();
  for (std::size_t w = 0; w < widths.size(); ++w) {
    out += " W=" + std::to_string(widths[w]) + ": " + fixed(s[w], 2);
  }
  out += "\n";
  return out;
}

// ---------------------------------------------------------------- Table 4
namespace {

/// The point a run solved for `width` (engines solve widths ascending,
/// Table 4 rows follow the caller's order).
const FrontierPoint& point_at(const FrontierResult& result, int width) {
  return *std::find_if(
      result.points.begin(), result.points.end(),
      [width](const FrontierPoint& p) { return p.tam_width == width; });
}

}  // namespace

Table4 make_table4(const soc::Soc& soc, const std::vector<int>& widths,
                   const std::vector<CostWeights>& weight_sets,
                   const FrontierOptions& base) {
  require(!widths.empty() && !weight_sets.empty(),
          "table 4 needs widths and weight sets");
  FrontierOptions options = base;
  options.widths = widths;
  options.cache = nullptr;
  const auto run = [&](bool exhaustive) {
    options.exhaustive = exhaustive;
    FrontierEngine engine(soc, options);
    FrontierResult result = engine.run();
    for (const FrontierPoint& point : result.points) {
      if (!point.ok()) throw InfeasibleError(point.error);
    }
    return result;
  };

  Table4 table;
  for (const CostWeights& weights : weight_sets) {
    options.weights = weights;
    const FrontierResult exhaustive = run(true);
    const FrontierResult heuristic = run(false);
    Table4Block block;
    block.weights = weights;
    for (const int width : widths) {
      const FrontierPoint& exh = point_at(exhaustive, width);
      const FrontierPoint& heur = point_at(heuristic, width);
      Table4Row row;
      row.tam_width = width;
      row.exhaustive_cost = exh.best.total;
      row.exhaustive_evaluations = exh.evaluations;
      row.exhaustive_label = exh.best.label;
      row.heuristic_cost = heur.best.total;
      row.heuristic_evaluations = heur.evaluations + heur.pruned;
      row.heuristic_label = heur.best.label;
      row.evaluation_reduction = evaluation_reduction_percent(
          row.heuristic_evaluations, heur.total_combinations);
      block.rows.push_back(std::move(row));
    }
    table.blocks.push_back(std::move(block));
  }
  return table;
}

std::string Table4::render() const {
  std::string out;
  for (const Table4Block& block : blocks) {
    out += "w_T = " + fixed(block.weights.time, 2) +
           ", w_A = " + fixed(block.weights.area, 2) + "\n";
    TextTable t({"W", "C (exh)", "N (exh)", "combination (exh)", "C (heur)",
                 "N (heur)", "combination (heur)", "%R", "optimal?"});
    t.set_alignment({Align::kRight, Align::kRight, Align::kRight,
                     Align::kLeft, Align::kRight, Align::kRight, Align::kLeft,
                     Align::kRight, Align::kLeft});
    for (const Table4Row& row : block.rows) {
      t.add_row({std::to_string(row.tam_width), fixed(row.exhaustive_cost, 1),
                 std::to_string(row.exhaustive_evaluations),
                 row.exhaustive_label, fixed(row.heuristic_cost, 1),
                 std::to_string(row.heuristic_evaluations),
                 row.heuristic_label, fixed(row.evaluation_reduction, 1),
                 row.heuristic_optimal() ? "yes" : "no"});
    }
    out += t.to_string();
    out += "\n";
  }
  return out;
}

}  // namespace msoc::plan
