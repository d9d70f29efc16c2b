// eco_replan: a seeded chain of p93791m revisions, each a power-
// annotation edit or a budget edit, replanned against the previous
// revision's store the way `msoc_plan --replan-from` does: parse the
// revision, open a fresh disk ResultCache, replan(previous digest),
// flush, serialize.  Every third operation instead re-queries the
// current revision warm (run() answered from the store).  Packing is
// bypassed: the work is staircases plus cache open, replay, record and
// flush.

#include <filesystem>
#include <optional>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "bench.hpp"
#include "msoc/common/rng.hpp"
#include "msoc/plan/frontier.hpp"
#include "msoc/soc/benchmarks.hpp"
#include "msoc/soc/digest.hpp"
#include "msoc/soc/itc02.hpp"

namespace perfbench {

namespace {

using msoc::plan::FrontierEngine;
using msoc::plan::FrontierOptions;
using msoc::plan::FrontierResult;
using msoc::plan::ResultCache;

constexpr int kMaxWidth = 64;
/// One revision in this many is also solved cold and compared.
constexpr int kCheckEvery = 16;

FrontierOptions plan_options(ResultCache* cache,
                             const msoc::tam::ParetoTables* tables) {
  FrontierOptions options;
  options.max_powers = {0.0};  // unconstrained: packing-digest keyed
  options.cache = cache;
  options.pareto_tables = tables;
  return options;
}

/// Next revision: one power annotation or the SOC budget changes.
msoc::soc::Soc next_revision(const msoc::soc::Soc& soc, msoc::Rng& rng) {
  msoc::soc::Soc out(soc.name());
  out.set_max_power(soc.max_power());
  const bool budget_edit = rng.uniform01() < 0.25;
  const auto edited = static_cast<std::size_t>(
      rng.uniform_int(0, static_cast<int>(soc.digital_count()) - 1));
  // Multiples of 0.5 in [1, 500]; a repeat of the old value is bumped.
  double value = 1.0 + 0.5 * rng.uniform_int(0, 998);
  for (std::size_t i = 0; i < soc.digital_count(); ++i) {
    msoc::soc::DigitalCore core = soc.digital_cores()[i];
    if (!budget_edit && i == edited) {
      if (core.power == value) value += 0.5;
      core.power = value;
    }
    out.add_digital(std::move(core));
  }
  for (const msoc::soc::AnalogCore& core : soc.analog_cores()) {
    out.add_analog(core);
  }
  if (budget_edit) {
    const double budget = 2000.0 + 4.0 * value;
    out.set_max_power(budget == soc.max_power() ? budget + 1.0 : budget);
  }
  return out;
}

/// Same (width, winner, test time, cost, T_max) on every point.
bool same_frontier(const FrontierResult& a, const FrontierResult& b) {
  if (a.points.size() != b.points.size()) return false;
  for (std::size_t i = 0; i < a.points.size(); ++i) {
    const msoc::plan::FrontierPoint& p = a.points[i];
    const msoc::plan::FrontierPoint& q = b.points[i];
    if (p.tam_width != q.tam_width || p.error != q.error ||
        p.pareto != q.pareto) {
      return false;
    }
    if (p.ok() && (p.best.partition != q.best.partition ||
                   p.best.test_time != q.best.test_time ||
                   p.best.total != q.best.total || p.t_max != q.t_max)) {
      return false;
    }
  }
  return true;
}

struct Outcome {
  bool replan = false;
  bool serialized = false;
  std::string digest;
  std::string expected_from;  ///< Baseline digest of a replan.
  FrontierResult plan;
};

}  // namespace

WorkloadResult run_eco_replan(const RunConfig& config, Tracer& tracer) {
  WorkloadResult result;
  const std::string cache_dir = config.work_dir + "/eco-cache";

  // Set-up: seed the baseline store with a cold solve of p93791m.
  const msoc::soc::Soc baseline = msoc::soc::make_p93791m();
  std::vector<double> setups;
  for (int repeat = 0; repeat < kSetupRepeats; ++repeat) {
    std::filesystem::remove_all(cache_dir);
    const Clock::time_point start = Clock::now();
    const msoc::soc::Soc soc =
        msoc::soc::parse_soc_string(msoc::soc::write_soc_string(baseline));
    ResultCache cache(cache_dir);
    FrontierEngine engine(soc, plan_options(&cache, nullptr));
    const FrontierResult plan = engine.run();
    cache.flush();
    setups.push_back(ms_since(start) / 1e3);
    if (!plan.points.front().ok()) {
      throw std::runtime_error("the baseline solve of p93791m failed");
    }
  }
  result.setup_s = quantile(setups, 0.5);

  msoc::Rng rng(derive_seed(config.seed, 2));
  msoc::soc::Soc current = baseline;
  std::string current_text = msoc::soc::write_soc_string(current);
  std::string current_digest = msoc::soc::digest_hex(current);

  const long long limit =
      config.stream_limits.empty() ? -1 : config.stream_limits.front();
  const Clock::time_point deadline =
      Clock::now() + std::chrono::duration_cast<Clock::duration>(
                         std::chrono::duration<double>(config.seconds));
  FrontierResult last_replan;
  std::vector<std::pair<std::string, FrontierResult>> sampled;
  for (long long op = 0;; ++op) {
    if (limit >= 0 ? op >= limit : Clock::now() >= deadline) break;
    Outcome outcome;
    outcome.replan = op % 3 != 2;
    if (outcome.replan) {
      outcome.expected_from = current_digest;
      current = next_revision(current, rng);
      current_text = msoc::soc::write_soc_string(current);
    }
    const std::string& text = current_text;

    OpCounters counters;
    const Clock::time_point start = Clock::now();
    {
      auto op_span = tracer.span("op", op);
      msoc::soc::Soc soc;
      {
        auto span = tracer.span("soc.parse", op);
        soc = msoc::soc::parse_soc_string(text, "revision.soc");
      }
      {
        auto span = tracer.span("soc.digest", op);
        outcome.digest = msoc::soc::digest_hex(soc);
      }
      std::optional<ResultCache> cache;
      {
        auto span = tracer.span("plan.cache_open", op);
        cache.emplace(cache_dir);
        cache->open(outcome.digest, soc);
        if (outcome.replan) cache->open(outcome.expected_from);
      }
      msoc::tam::ParetoTables tables;
      {
        auto span = tracer.span("wrapper.staircase", op);
        tables = msoc::tam::compute_pareto_tables(soc, kMaxWidth);
      }
      const msoc::tam::PackCounterSnapshot before =
          msoc::tam::snapshot_pack_counters();
      {
        auto span = tracer.span("plan.solve", op);
        FrontierEngine engine(soc, plan_options(&*cache, &tables));
        outcome.plan = outcome.replan ? engine.replan(outcome.expected_from)
                                      : engine.run();
      }
      if (config.counters) add_pack_counters(counters, before);
      {
        auto span = tracer.span("plan.cache_flush", op);
        cache->flush();
      }
      {
        auto span = tracer.span("plan.serialize", op);
        outcome.serialized =
            !outcome.plan.to_json().empty() && !outcome.plan.to_csv().empty();
      }
      counters["plan.evaluations"] = outcome.plan.evaluations;
      counters["plan.cache_hits"] = outcome.plan.cache_hits;
      counters["plan.reused"] = outcome.plan.reused;
      counters["plan.pruned"] = outcome.plan.pruned;
      counters["plan.cache_journal_bytes"] =
          static_cast<double>(cache->journal_bytes());
      counters["plan.cache_replayed_records"] =
          static_cast<double>(cache->replayed_records());
      counters["plan.cache_compactions"] =
          static_cast<double>(cache->compactions());
      counters["wrapper.staircase_cores"] =
          static_cast<double>(tables.by_core.size());
      if (!outcome.plan.points.empty()) {
        counters["mswrap.partitions"] =
            outcome.plan.points.front().total_combinations;
      }
    }
    result.op_ms.push_back(ms_since(start));
    (outcome.replan ? result.miss_ms : result.hit_ms)
        .push_back(result.op_ms.back());
    if (config.counters) result.op_counters[op] = counters;
    current_digest = outcome.digest;

    if (tracer.enabled()) {
      auto probe = tracer.span("probe", op);
      const msoc::soc::Soc soc =
          msoc::soc::parse_soc_string(text, "revision.soc");
      const FrontierOptions options = plan_options(nullptr, nullptr);
      auto span = tracer.span("mswrap.enumerate", op);
      const msoc::plan::PartitionSpace space(soc, options.weights,
                                             options.area_model,
                                             options.policy,
                                             options.enumeration);
      (void)space;
    }

    // Correctness, outside the timed operation.  Every revision is a
    // splice edit, so every replan and every warm query must pack
    // nothing, and a query must repeat the replan it follows.
    ++result.attempted;
    const FrontierResult& plan = outcome.plan;
    bool ok = outcome.serialized && !plan.points.empty() &&
              plan.evaluations == 0;
    if (outcome.replan) {
      ok = ok && plan.replanned_from == outcome.expected_from;
      if (ok && (op / 3) % kCheckEvery == 0) sampled.emplace_back(text, plan);
      last_replan = plan;
    } else {
      ok = ok && same_frontier(plan, last_replan);
    }
    if (!ok) ++result.failed;
  }
  result.stream_ops = {static_cast<long long>(result.op_ms.size())};
  for (const double ms : result.op_ms) result.busy_s += ms / 1e3;

  // Sampled replans must equal a cold solve of the same revision.
  for (const auto& [text, plan] : sampled) {
    const msoc::soc::Soc soc = msoc::soc::parse_soc_string(text, "revision.soc");
    FrontierEngine cold(soc, plan_options(nullptr, nullptr));
    if (!same_frontier(plan, cold.run())) ++result.failed;
  }
  std::filesystem::remove_all(cache_dir);
  return result;
}

}  // namespace perfbench
