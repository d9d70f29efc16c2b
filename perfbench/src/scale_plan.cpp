// scale_plan: one cold, cacheless, single-thread FrontierEngine run per
// operation, at TAM width 64, on seeded hierarchical 48-core SOCs with
// four analog cores and peak and sliding-window power budgets
// (soc::make_scale_soc style), each delivered as .soc text and parsed
// inside the operation.  The packer's admission kernel does nearly all
// the work, under all three profiles.

#include <stdexcept>
#include <string>
#include <vector>

#include "bench.hpp"
#include "msoc/mswrap/sharing.hpp"
#include "msoc/plan/frontier.hpp"
#include "msoc/soc/benchmarks.hpp"
#include "msoc/soc/digest.hpp"
#include "msoc/soc/itc02.hpp"
#include "msoc/tam/packing.hpp"
#include "msoc/tam/schedule.hpp"

namespace perfbench {

namespace {

using msoc::plan::FrontierEngine;
using msoc::plan::FrontierOptions;
using msoc::plan::FrontierResult;

constexpr int kDigitalCores = 48;
constexpr int kWidth = 64;
/// Distinct SOCs per run; operations cycle through them (the plans are
/// cacheless, so a repeat costs what the first run did).
constexpr int kPool = 128;
/// Seed of the fixed reference SOC (make_scale_soc's default).  Its
/// four analog cores are reused by every generated SOC, as analog IP is
/// reused across designs; otherwise the Fig. 3 evaluation count swings
/// between 3 and 8 from one SOC to the next.  The set-up also plans it
/// once, so lazy set-up (allocator growth, page faults) ends before
/// timing.
constexpr std::uint64_t kReferenceSeed = 7;

FrontierOptions plan_options(const msoc::tam::ParetoTables* tables) {
  FrontierOptions options;
  options.widths = {kWidth};
  options.jobs = 1;
  options.pareto_tables = tables;
  return options;
}

/// A seeded SOC: the digital cores, peak budget and power window of
/// make_scale_soc(kDigitalCores, seed), with the reference analog cores.
msoc::soc::Soc make_input(std::uint64_t seed,
                          const msoc::soc::Soc& reference) {
  const msoc::soc::Soc generated =
      msoc::soc::make_scale_soc(kDigitalCores, seed);
  msoc::soc::Soc soc(generated.name());
  soc.set_max_power(generated.max_power());
  soc.set_power_window(generated.power_window());
  for (const msoc::soc::DigitalCore& core : generated.digital_cores()) {
    soc.add_digital(core);
  }
  for (const msoc::soc::AnalogCore& core : reference.analog_cores()) {
    soc.add_analog(core);
  }
  return soc;
}

/// What the check needs from one operation.
struct Outcome {
  std::size_t input = 0;
  bool ok = false;
  msoc::mswrap::Partition best;
  msoc::Cycles test_time = 0;
};

/// Re-packs the winning partition and validates the schedule.
bool check_outcome(const Outcome& outcome, const std::string& text) {
  if (!outcome.ok) return false;
  const msoc::soc::Soc soc = msoc::soc::parse_soc_string(text, "scale.soc");
  const msoc::tam::ParetoTables tables =
      msoc::tam::compute_pareto_tables(soc, kWidth);
  msoc::tam::PackingOptions packing;
  packing.pareto_hint = &tables;
  const msoc::tam::AnalogPartition partition =
      msoc::mswrap::to_analog_partition(soc.analog_cores(), outcome.best);
  const msoc::tam::Schedule schedule =
      msoc::tam::schedule_soc(soc, kWidth, partition, packing);
  return msoc::tam::check_schedule(schedule).empty() &&
         schedule.makespan() == outcome.test_time &&
         schedule.makespan() >=
             msoc::tam::schedule_lower_bound(soc, kWidth, partition);
}

}  // namespace

WorkloadResult run_scale_plan(const RunConfig& config, Tracer& tracer) {
  WorkloadResult result;

  // Set-up: generate the input pool, then plan the reference SOC.
  std::vector<std::string> texts;
  std::vector<double> setups;
  for (int repeat = 0; repeat < kSetupRepeats; ++repeat) {
    const Clock::time_point start = Clock::now();
    const msoc::soc::Soc reference =
        msoc::soc::make_scale_soc(kDigitalCores, kReferenceSeed);
    std::vector<std::string> pool;
    for (int i = 0; i < kPool; ++i) {
      pool.push_back(msoc::soc::write_soc_string(make_input(
          derive_seed(config.seed, 1, static_cast<unsigned>(i)), reference)));
    }
    FrontierEngine engine(reference, plan_options(nullptr));
    if (!engine.run().points.front().ok()) {
      throw std::runtime_error("the warm-up plan failed");
    }
    setups.push_back(ms_since(start) / 1e3);
    texts = std::move(pool);
  }
  result.setup_s = quantile(setups, 0.5);

  const long long limit =
      config.stream_limits.empty() ? -1 : config.stream_limits.front();
  const Clock::time_point deadline =
      Clock::now() + std::chrono::duration_cast<Clock::duration>(
                         std::chrono::duration<double>(config.seconds));
  std::vector<Outcome> outcomes;
  for (long long op = 0;; ++op) {
    if (limit >= 0 ? op >= limit : Clock::now() >= deadline) break;
    const std::size_t input = static_cast<std::size_t>(op) % texts.size();
    Outcome outcome;
    outcome.input = input;
    OpCounters counters;
    const Clock::time_point start = Clock::now();
    {
      auto op_span = tracer.span("op", op);
      msoc::soc::Soc soc;
      {
        auto span = tracer.span("soc.parse", op);
        soc = msoc::soc::parse_soc_string(texts[input], "scale.soc");
      }
      std::string digest;
      {
        auto span = tracer.span("soc.digest", op);
        digest = msoc::soc::digest_hex(soc);
      }
      msoc::tam::ParetoTables tables;
      {
        auto span = tracer.span("wrapper.staircase", op);
        tables = msoc::tam::compute_pareto_tables(soc, kWidth);
      }
      FrontierResult plan;
      const msoc::tam::PackCounterSnapshot before =
          msoc::tam::snapshot_pack_counters();
      {
        auto span = tracer.span("plan.solve", op);
        FrontierEngine engine(soc, plan_options(&tables));
        plan = engine.run();
      }
      if (config.counters) add_pack_counters(counters, before);
      std::string json;
      std::string csv;
      {
        auto span = tracer.span("plan.serialize", op);
        json = plan.to_json();
        csv = plan.to_csv();
      }
      const msoc::plan::FrontierPoint& point = plan.points.front();
      outcome.ok = point.ok() && plan.digest == digest && !json.empty() &&
                   !csv.empty();
      outcome.best = point.best.partition;
      outcome.test_time = point.best.test_time;
      counters["plan.evaluations"] = plan.evaluations;
      counters["plan.cache_hits"] = plan.cache_hits;
      counters["plan.reused"] = plan.reused;
      counters["plan.pruned"] = plan.pruned;
      counters["mswrap.partitions"] = point.total_combinations;
      counters["wrapper.staircase_cores"] =
          static_cast<double>(tables.by_core.size());
    }
    result.op_ms.push_back(ms_since(start));
    result.miss_ms.push_back(result.op_ms.back());
    outcomes.push_back(std::move(outcome));
    if (config.counters) result.op_counters[op] = counters;

    if (tracer.enabled()) {
      // Probes outside the operation: the calls the engine makes
      // internally, timed one at a time from outside.
      auto probe = tracer.span("probe", op);
      const msoc::soc::Soc soc =
          msoc::soc::parse_soc_string(texts[input], "scale.soc");
      const msoc::tam::ParetoTables tables =
          msoc::tam::compute_pareto_tables(soc, kWidth);
      const FrontierOptions options = plan_options(&tables);
      {
        auto span = tracer.span("mswrap.enumerate", op);
        const msoc::plan::PartitionSpace space(soc, options.weights,
                                               options.area_model,
                                               options.policy,
                                               options.enumeration);
        (void)space;
      }
      {
        auto span = tracer.span("tam.pack", op);
        msoc::tam::PackingOptions packing;
        packing.pareto_hint = &tables;
        const msoc::tam::Schedule schedule = msoc::tam::schedule_soc(
            soc, kWidth, msoc::tam::all_share_partition(soc), packing);
        (void)schedule;
      }
    }
  }
  result.stream_ops = {static_cast<long long>(outcomes.size())};
  for (const double ms : result.op_ms) result.busy_s += ms / 1e3;

  // Correctness, outside the timed loop.
  for (const Outcome& outcome : outcomes) {
    ++result.attempted;
    if (!check_outcome(outcome, texts[outcome.input])) ++result.failed;
  }
  return result;
}

}  // namespace perfbench
