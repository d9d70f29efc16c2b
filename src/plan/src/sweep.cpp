#include "msoc/plan/sweep.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <map>
#include <sstream>
#include <utility>

#include "msoc/common/csv.hpp"
#include "msoc/common/error.hpp"
#include "msoc/common/format.hpp"
#include "msoc/common/json.hpp"
#include "msoc/common/parallel.hpp"
#include "msoc/plan/frontier.hpp"
#include "msoc/soc/benchmarks.hpp"
#include "msoc/soc/digest.hpp"

namespace msoc::plan {

namespace {

using Clock = std::chrono::steady_clock;

double elapsed_ms(Clock::time_point since) {
  return std::chrono::duration<double, std::milli>(Clock::now() - since)
      .count();
}

/// One frontier-engine run: a (SOC, weight) pair across every width.
struct Series {
  std::size_t soc_index = 0;
  std::size_t weight_index = 0;
};

/// What one series' engine reported about its replan; `replanned` is
/// false when it found no usable baseline and planned cold.
struct SeriesReplan {
  bool replanned = false;
  int reused = 0;
  int dirty_partitions = 0;
};

}  // namespace

SweepRow sweep_row(const FrontierResult& frontier,
                   const FrontierPoint& point) {
  SweepRow row;
  row.soc_name = frontier.soc_name;
  row.tam_width = point.tam_width;
  row.max_power = point.max_power;
  row.window_cycles = point.window_cycles;
  row.window_limit = point.window_limit;
  row.w_time = frontier.w_time;
  row.algorithm = frontier.algorithm;
  row.wall_ms = point.wall_ms;
  if (!point.ok()) {
    row.error = point.error;
    return row;
  }
  row.best_label = point.best.label;
  row.best_total = point.best.total;
  row.c_time = point.best.c_time;
  row.c_area = point.best.c_area;
  row.test_time = point.best.test_time;
  row.t_max = point.t_max;
  row.evaluations = point.evaluations;
  row.total_combinations = point.total_combinations;
  row.reused = point.reused;
  row.evaluation_reduction_percent = evaluation_reduction_percent(
      point.evaluations, point.total_combinations);
  return row;
}

SweepFanout sweep_fanout(int jobs, std::size_t series) {
  const int resolved = jobs <= 0 ? hardware_jobs() : jobs;
  SweepFanout fanout;
  fanout.outer = static_cast<int>(
      std::min<std::size_t>(static_cast<std::size_t>(resolved), series));
  fanout.inner = std::max(1, resolved / std::max(fanout.outer, 1));
  return fanout;
}

std::size_t SweepConfig::case_count() const {
  return socs.size() * tam_widths.size() * max_powers.size() *
         time_weights.size();
}

SweepResult run_sweep(const SweepConfig& config) {
  require(!config.socs.empty(), "sweep needs at least one SOC");
  require(!config.tam_widths.empty(), "sweep needs at least one TAM width");
  require(!config.max_powers.empty(),
          "sweep needs at least one power budget");
  for (const double budget : config.max_powers) {
    // NaN passes every sign test and would corrupt EntryKey ordering.
    require(std::isfinite(budget) || budget < 0.0,
            "power budgets must be finite (or negative = inherit)");
  }
  require(std::isfinite(config.window_limit) || config.window_limit < 0.0,
          "the window limit must be finite (or negative = inherit)");
  require(config.window_limit <= 0.0 || config.window_cycles > 0,
          "an explicit window limit needs a positive window length");
  require(!config.time_weights.empty(),
          "sweep needs at least one time weight");
  require(config.replan_from.empty() || config.cache != nullptr,
          "replan needs a cache directory holding the baseline store");
  require(config.replan_from.empty() || config.socs.size() == 1,
          "replan needs exactly one SOC (the baseline is one revision)");

  std::vector<Series> series;
  series.reserve(config.socs.size() * config.time_weights.size());
  for (std::size_t s = 0; s < config.socs.size(); ++s) {
    for (std::size_t t = 0; t < config.time_weights.size(); ++t) {
      series.push_back({s, t});
    }
  }

  SweepResult result;
  result.exhaustive = config.exhaustive;
  result.epsilon = config.epsilon;
  result.rows.resize(config.case_count());

  // Thread budget: series fan out over the pool (they are fully
  // independent), and each series' engine re-uses the leftover budget
  // for its per-width evaluation fan-out.  Both levels are
  // deterministic, so the split never changes results.
  const SweepFanout fanout = sweep_fanout(config.jobs, series.size());
  result.jobs = fanout.threads();
  const int inner = fanout.inner;

  // The persistent cache is opened up front (one file per SOC digest)
  // so worker threads only ever touch the loaded snapshot.  Lookups
  // read the snapshot, never other workers' fresh results: which
  // worker computes a cell must not influence what another can see, or
  // evaluation counts would depend on scheduling.
  ResultCache* const cache = config.cache;
  // A long-lived cache carries other requests' traffic: report deltas
  // over this sweep.
  const long long base_hits = cache != nullptr ? cache->hits() : 0;
  const long long base_misses = cache != nullptr ? cache->misses() : 0;
  const long long base_records = cache != nullptr ? cache->records() : 0;
  const int base_corrupt = cache != nullptr ? cache->corrupt_files() : 0;

  // The sweep clock starts here: the per-SOC setup below (staircase
  // computation, cache file loads) is real sweep work and must stay
  // inside total_wall_ms, as it was when each case computed its own.
  const Clock::time_point start = Clock::now();

  // Per-SOC shared setup, done serially before the fan-out: each
  // digest's cache file is read once (open holds the cache lock), and
  // the Pareto staircases — weight-independent — are computed once and
  // lent to every weight series instead of once per engine.
  const int table_width = std::max(
      1, *std::max_element(config.tam_widths.begin(),
                           config.tam_widths.end()));
  std::vector<tam::ParetoTables> tables;
  tables.reserve(config.socs.size());
  for (const soc::Soc& soc : config.socs) {
    tables.push_back(tam::compute_pareto_tables(soc, table_width));
    // Opening with the SOC pins the store's digest inventory so the
    // flushed file can seed a future replan.
    if (cache != nullptr) cache->open(soc::digest_hex(soc), soc);
  }
  // The baseline store is loaded serially too; every series diffs
  // against the same snapshot.
  if (cache != nullptr && !config.replan_from.empty()) {
    cache->open(config.replan_from);
  }

  // Per-series replan provenance, aggregated after the fan-out (rows
  // are disjoint per series, so only these need dedicated slots).
  std::vector<SeriesReplan> series_replan(series.size());

  ThreadPool pool(fanout.outer);
  for (std::size_t series_index = 0; series_index < series.size();
       ++series_index) {
    const Series& s = series[series_index];
    pool.submit([&result, &config, &cache, &tables, &series_replan,
                 series_index, s, inner] {
      const soc::Soc& soc = config.socs[s.soc_index];
      const double w_time = config.time_weights[s.weight_index];
      const auto row_index = [&](std::size_t width_index,
                                 std::size_t power_index) {
        return ((s.soc_index * config.tam_widths.size() + width_index) *
                    config.max_powers.size() +
                power_index) *
                   config.time_weights.size() +
               s.weight_index;
      };
      tam::PackingOptions packing;
      packing.window_limit = config.window_limit;
      packing.window_cycles = config.window_cycles;
      // Validated up front, so resolving the window cannot throw here.
      const soc::PowerWindow window =
          tam::effective_power_window(soc, packing);
      const auto fill_series_error = [&](const std::string& what) {
        for (std::size_t w = 0; w < config.tam_widths.size(); ++w) {
          for (std::size_t p = 0; p < config.max_powers.size(); ++p) {
            SweepRow row;
            row.soc_name = soc.name();
            row.tam_width = config.tam_widths[w];
            row.max_power =
                tam::effective_max_power(soc, config.max_powers[p]);
            row.window_cycles = window.cycles;
            row.window_limit = window.limit;
            row.w_time = w_time;
            row.algorithm =
                config.exhaustive ? "exhaustive" : "cost_optimizer";
            row.error = what;
            result.rows[row_index(w, p)] = std::move(row);
          }
        }
      };
      try {
        FrontierOptions options;
        options.widths = config.tam_widths;
        options.max_powers = config.max_powers;
        options.weights = {w_time, 1.0 - w_time};
        options.exhaustive = config.exhaustive;
        options.epsilon = config.epsilon;
        options.jobs = inner;
        options.cache = cache;
        options.pareto_tables = &tables[s.soc_index];
        options.packing = packing;
        FrontierEngine engine(soc, options);
        const FrontierResult frontier = config.replan_from.empty()
                                            ? engine.run()
                                            : engine.replan(
                                                  config.replan_from);
        series_replan[series_index] = {!frontier.replanned_from.empty(),
                                       frontier.reused,
                                       frontier.dirty_partitions};

        std::map<std::pair<int, double>, const FrontierPoint*> by_cell;
        for (const FrontierPoint& point : frontier.points) {
          by_cell.emplace(std::make_pair(point.tam_width, point.max_power),
                          &point);
        }
        for (std::size_t w = 0; w < config.tam_widths.size(); ++w) {
          for (std::size_t p = 0; p < config.max_powers.size(); ++p) {
            const double budget =
                tam::effective_max_power(soc, config.max_powers[p]);
            result.rows[row_index(w, p)] = sweep_row(
                frontier, *by_cell.at({config.tam_widths[w], budget}));
          }
        }
      } catch (const InfeasibleError& e) {
        // Unsatisfiable input is a legitimate sweep outcome and lands
        // in every row of the series.  LogicError — a library
        // invariant violation — must NOT become a soft row: it
        // propagates (via ThreadPool::wait) and fails the whole sweep.
        fill_series_error(e.what());
      } catch (const ParseError& e) {
        fill_series_error(e.what());
      }
    });
  }
  pool.wait();
  if (cache != nullptr) {
    cache->flush();
    result.cache_hits = cache->hits() - base_hits;
    result.cache_misses = cache->misses() - base_misses;
    result.cache_records = cache->records() - base_records;
    result.cache_corrupt_files = cache->corrupt_files() - base_corrupt;
  }
  // Provenance comes only from series whose engine really spliced from
  // the baseline; one that found it unusable planned cold.
  for (const SeriesReplan& replan : series_replan) {
    if (!replan.replanned) continue;
    result.replanned_from = config.replan_from;
    result.reused += replan.reused;
    result.dirty_partitions =
        std::max(result.dirty_partitions, replan.dirty_partitions);
  }
  result.total_wall_ms = elapsed_ms(start);
  return result;
}

SweepConfig default_benchmark_sweep() {
  SweepConfig config;
  config.socs.push_back(soc::make_p93791m());
  config.socs.push_back(soc::make_d695m());
  return config;
}

std::string SweepResult::to_csv() const {
  std::ostringstream out;
  CsvWriter csv(out, {"soc", "tam_width", "max_power", "window_cycles",
                      "window_limit", "w_time", "algorithm", "best_label",
                      "best_total", "c_time", "c_area", "test_time", "t_max",
                      "evaluations", "total_combinations", "reused",
                      "evaluation_reduction_percent", "wall_ms", "error"});
  for (const SweepRow& r : rows) {
    csv.write_row(
        {r.soc_name, std::to_string(r.tam_width),
         round_trip_double(r.max_power), std::to_string(r.window_cycles),
         round_trip_double(r.window_limit), round_trip_double(r.w_time),
         r.algorithm, r.best_label, round_trip_double(r.best_total),
         round_trip_double(r.c_time), round_trip_double(r.c_area),
         std::to_string(r.test_time), std::to_string(r.t_max),
         std::to_string(r.evaluations), std::to_string(r.total_combinations),
         std::to_string(r.reused),
         round_trip_double(r.evaluation_reduction_percent),
         round_trip_double(r.wall_ms), r.error});
  }
  return out.str();
}

std::string SweepResult::to_json() const {
  std::ostringstream os;
  os << "{\n"
     << "  \"schema\": \"msoc-sweep-v5\",\n"
     << "  \"exhaustive\": " << (exhaustive ? "true" : "false") << ",\n"
     << "  \"epsilon\": " << round_trip_double(epsilon) << ",\n"
     << "  \"jobs\": " << jobs << ",\n"
     << "  \"replanned_from\": \"" << json_escape(replanned_from) << "\",\n"
     << "  \"reused\": " << reused << ",\n"
     << "  \"dirty_partitions\": " << dirty_partitions << ",\n"
     << "  \"cache\": {\"hits\": " << cache_hits << ", "
     << "\"misses\": " << cache_misses << ", "
     << "\"records\": " << cache_records << ", "
     << "\"corrupt_files\": " << cache_corrupt_files << "},\n"
     << "  \"total_wall_ms\": " << round_trip_double(total_wall_ms) << ",\n"
     << "  \"cases\": [";
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const SweepRow& r = rows[i];
    os << (i == 0 ? "\n" : ",\n");
    os << "    {\"soc\": \"" << json_escape(r.soc_name) << "\", "
       << "\"tam_width\": " << r.tam_width << ", "
       << "\"max_power\": " << round_trip_double(r.max_power) << ", "
       << "\"window_cycles\": " << r.window_cycles << ", "
       << "\"window_limit\": " << round_trip_double(r.window_limit) << ", "
       << "\"w_time\": " << round_trip_double(r.w_time) << ", "
       << "\"algorithm\": \"" << json_escape(r.algorithm) << "\", "
       << "\"wall_ms\": " << round_trip_double(r.wall_ms) << ", ";
    if (!r.ok()) {
      os << "\"error\": \"" << json_escape(r.error) << "\"}";
      continue;
    }
    os << "\"best\": {\"label\": \"" << json_escape(r.best_label) << "\", "
       << "\"total\": " << round_trip_double(r.best_total) << ", "
       << "\"c_time\": " << round_trip_double(r.c_time) << ", "
       << "\"c_area\": " << round_trip_double(r.c_area) << ", "
       << "\"test_time\": " << r.test_time << ", "
       << "\"t_max\": " << r.t_max << "}, "
       << "\"evaluations\": " << r.evaluations << ", "
       << "\"total_combinations\": " << r.total_combinations << ", "
       << "\"reused\": " << r.reused << ", "
       << "\"evaluation_reduction_percent\": "
       << round_trip_double(r.evaluation_reduction_percent) << "}";
  }
  os << "\n  ]\n}\n";
  return os.str();
}

}  // namespace msoc::plan
