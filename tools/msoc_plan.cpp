// msoc_plan — command-line mixed-signal SOC test planner.  `msoc_plan
// --help` lists the flags (print_usage below is their one list).
//
// The planning flags fill one plan::PlanRequest.  It runs in-process
// through plan::execute or, with --daemon, travels to msoc_pland as
// its msoc-rpc-v1 envelope (PlanRequest::to_json), where the daemon
// calls the same plan::execute.  Output files, --gantt, --validate and
// the cache flags are this tool's own.

#include <cstdio>
#include <fstream>
#include <optional>
#include <string>

#include "msoc/common/error.hpp"
#include "msoc/common/fileio.hpp"
#include "msoc/common/json.hpp"
#include "msoc/common/net.hpp"
#include "msoc/plan/request.hpp"
#include "msoc/plan/result_cache.hpp"
#include "msoc/soc/itc02.hpp"
#include "msoc/testsim/replay.hpp"

namespace {

using msoc::plan::PlanRequest;
using msoc::plan::PlanResult;

/// Paths are empty when the flag is absent.
struct Cli {
  PlanRequest request;
  std::string soc_file;  ///< Read into request.soc_text.
  std::string cache_dir;
  std::string json_file;
  std::string csv_file;
  std::string daemon;  ///< msoc_pland socket path.
  bool cache_compact = false;
  bool gantt = false;
  bool validate = false;
  bool ping = false;
  bool shutdown_daemon = false;
  bool help = false;
};

void print_usage() {
  std::puts(
      "msoc_plan — mixed-signal SOC test planner (DATE'05 reproduction)\n"
      "  --soc FILE       .soc description (default: built-in p93791m)\n"
      "  --bench NAME     built-in benchmark SOC: p93791m, d695m, p93791,\n"
      "                   d695 (instead of --soc)\n"
      "  --width N        TAM width (default 32; narrows --sweep/--frontier\n"
      "                   to one width)\n"
      "  --widths LIST    comma-separated widths for --sweep/--frontier\n"
      "                   (default 16,24,32,48,64)\n"
      "  --max-power LIST comma-separated power budgets (0 = unconstrained;\n"
      "                   default: the SOC's MaxPower).  One value for a\n"
      "                   single plan; a ladder for --sweep/--frontier\n"
      "  --power-window CYCLES:LIMIT  sliding-window power budget: every\n"
      "                   CYCLES-cycle window averages at most LIMIT\n"
      "                   (0 or a LIMIT of 0 = unwindowed; default: the\n"
      "                   SOC's PowerWindow)\n"
      "  --wt X           test-time weight w_T in [0,1] (default 0.5;\n"
      "                   w_A = 1 - w_T)\n"
      "  --exhaustive     exhaustive search instead of Cost_Optimizer\n"
      "  --epsilon X      heuristic elimination slack (default 0)\n"
      "  --jobs N         evaluation threads (default 1; 0 = all cores)\n"
      "  --sweep          benchmark sweep (SOCs x widths x weights)\n"
      "  --frontier       (width, time, cost) Pareto frontier in one run\n"
      "  --cache-dir DIR  persistent result cache (msoc-cache-v4) for\n"
      "                   --sweep/--frontier\n"
      "  --cache-compact  fold the cache's shard journals into snapshots\n"
      "                   and migrate legacy stores (needs --cache-dir)\n"
      "  --replan-from DIGEST  incremental re-plan of a --sweep/--frontier\n"
      "                   against the cache store of a previous SOC\n"
      "                   revision: only partitions with changed per-core\n"
      "                   digests are re-packed (needs --cache-dir)\n"
      "  --json FILE      write results as JSON: msoc-sweep-v1..v4 (a\n"
      "                   single plan is a one-case sweep) or, with\n"
      "                   --frontier, msoc-frontier-v1..v4 (docs/formats.md)\n"
      "  --gantt          print an ASCII Gantt chart\n"
      "  --csv FILE       export schedule CSV (result table with\n"
      "                   --sweep/--frontier)\n"
      "  --validate       replay-check the schedule\n"
      "  --daemon PATH    route through the msoc_pland daemon on this\n"
      "                   Unix socket; in-process fallback when nothing\n"
      "                   is listening or the daemon is saturated\n"
      "  --ping           with --daemon: probe the daemon and exit\n"
      "  --shutdown       with --daemon: ask the daemon to drain and exit\n"
      "  --help           this text");
}

Cli parse_args(int argc, char** argv) {
  Cli cli;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto value = [&]() -> std::string {
      if (i + 1 >= argc) throw msoc::InfeasibleError(arg + " needs a value");
      return argv[++i];
    };
    if (PlanRequest::apply_flag(cli.request, arg, value)) continue;
    if (arg == "--help" || arg == "-h") {
      cli.help = true;
    } else if (arg == "--soc") {
      cli.soc_file = value();
    } else if (arg == "--cache-dir") {
      cli.cache_dir = value();
    } else if (arg == "--cache-compact") {
      cli.cache_compact = true;
    } else if (arg == "--json") {
      cli.json_file = value();
    } else if (arg == "--csv") {
      cli.csv_file = value();
    } else if (arg == "--gantt") {
      cli.gantt = true;
    } else if (arg == "--validate") {
      cli.validate = true;
    } else if (arg == "--daemon") {
      cli.daemon = value();
    } else if (arg == "--ping") {
      cli.ping = true;
    } else if (arg == "--shutdown") {
      cli.shutdown_daemon = true;
    } else {
      throw msoc::InfeasibleError("unknown argument: " + arg);
    }
  }
  // Rules on this tool's own flags; PlanRequest::validate owns the
  // planning fields.
  const bool single_plan = cli.request.op == "plan";
  msoc::require(!cli.cache_compact || single_plan,
                "--cache-compact is a standalone maintenance mode; drop "
                "--sweep/--frontier");
  msoc::require(!cli.cache_compact || !cli.cache_dir.empty(),
                "--cache-compact needs --cache-dir");
  msoc::require(cli.cache_dir.empty() || !single_plan || cli.cache_compact,
                "--cache-dir needs --sweep, --frontier or --cache-compact");
  msoc::require(!cli.request.replan_from || !cli.cache_dir.empty() ||
                    !cli.daemon.empty(),
                "--replan-from needs --cache-dir (the baseline store) or "
                "--daemon (the daemon's cache)");
  msoc::require((!cli.gantt && !cli.validate) || single_plan,
                "--gantt/--validate need a single plan; drop them or "
                "--sweep/--frontier");
  msoc::require(!cli.daemon.empty() || (!cli.ping && !cli.shutdown_daemon),
                "--ping/--shutdown need --daemon");
  msoc::require(!(cli.ping && cli.shutdown_daemon),
                "--ping and --shutdown are mutually exclusive");
  msoc::require(cli.daemon.empty() ||
                    (cli.cache_dir.empty() && !cli.cache_compact &&
                     !cli.gantt && !cli.validate),
                "--daemon handles --sweep/--frontier/plan requests only; "
                "drop --cache-dir/--cache-compact/--gantt/--validate "
                "(the daemon's cache is configured server-side)");
  return cli;
}

void write_file(const std::string& path, const std::string& content,
                const char* what) {
  std::ofstream out(path);
  msoc::require(static_cast<bool>(out),
                std::string("cannot open ") + what + " output " + path);
  out << content;
}

/// Writes --json and --csv, whichever surface produced the document.
void write_outputs(const Cli& cli, const std::string& document,
                   const std::string& csv) {
  if (!cli.json_file.empty()) {
    write_file(cli.json_file, document, "JSON");
    std::printf("results written to %s\n", cli.json_file.c_str());
  }
  if (!cli.csv_file.empty()) {
    write_file(cli.csv_file, csv, "CSV");
    std::printf("%s written to %s\n",
                cli.request.op == "plan" ? "schedule" : "result table",
                cli.csv_file.c_str());
  }
}

/// Runs this invocation against the daemon.  Returns the process exit
/// code, or -1 when the caller should fall back to in-process
/// planning: nothing is listening, or the daemon rejected the
/// connection as saturated ("daemon busy").  Either way the fallback
/// runs the same request through the same plan::execute the daemon
/// calls, so callers lose availability never correctness.
int run_daemon_mode(const Cli& cli) {
  using namespace msoc;
  const bool control = !cli.request.planning();
  std::optional<net::UnixSocket> socket =
      net::UnixSocket::connect_if_listening(cli.daemon);
  if (!socket.has_value()) {
    if (control) {
      std::fprintf(stderr, "error: no daemon listening on %s\n",
                   cli.daemon.c_str());
      return 1;
    }
    std::fprintf(stderr,
                 "msoc_plan: no daemon listening on %s; planning "
                 "in-process\n",
                 cli.daemon.c_str());
    return -1;
  }
  socket->send_frame(cli.request.to_json());
  const net::FrameResult frame = socket->recv_frame();
  require(frame.status == net::FrameStatus::kOk,
          std::string("daemon reply unusable (") +
              net::frame_status_name(frame.status) + ")");
  const JsonValue reply = parse_json(frame.payload, "daemon reply");
  require(reply.at("schema").as_string() == "msoc-rpc-v1",
          "daemon reply has an unknown schema");
  if (!reply.at("ok").as_bool()) {
    const std::string& error = reply.at("error").as_string();
    // A saturated daemon is an availability condition, not a planning
    // failure: plan in-process instead of surfacing a hard error
    // (except for --ping/--shutdown, which are about the daemon
    // itself).
    if (!control && error.starts_with("daemon busy")) {
      std::fprintf(stderr, "msoc_plan: %s; planning in-process\n",
                   error.c_str());
      return -1;
    }
    std::fprintf(stderr, "error: daemon: %s\n", error.c_str());
    return 1;
  }
  if (control) {
    std::printf("daemon on %s is %s\n", cli.daemon.c_str(),
                cli.ping ? "alive" : "draining");
    return 0;
  }
  const std::string& document = reply.at("document").as_string();
  if (cli.json_file.empty()) std::fputs(document.c_str(), stdout);
  write_outputs(cli, document, reply.at("csv").as_string());
  return 0;
}

int run_compact_mode(const Cli& cli) {
  using namespace msoc;
  plan::ResultCache cache(cli.cache_dir);
  const plan::CompactionStats stats = cache.compact();
  std::printf("cache-compact: %s\n", cache.directory().c_str());
  std::printf("  %d shard journals folded (%lld records), %d snapshots "
              "written, %d legacy stores migrated\n",
              stats.shards_compacted, stats.records_folded,
              stats.snapshots_written, stats.legacy_files_migrated);
  if (cache.corrupt_files() > 0) {
    std::printf("  %d corrupt artifacts ignored\n", cache.corrupt_files());
  }
  if (cache.torn_tails() > 0) {
    std::printf("  %lld torn journal tails recovered\n", cache.torn_tails());
  }
  return 0;
}

void print_cache_line(const std::string& directory, long long hits,
                      long long records, int corrupt_files) {
  char corrupt_tag[48] = "";
  if (corrupt_files > 0) {
    std::snprintf(corrupt_tag, sizeof corrupt_tag,
                  ", %d corrupt files ignored", corrupt_files);
  }
  std::printf("cache: %s (%lld hits, %lld new results%s)\n",
              directory.c_str(), hits, records, corrupt_tag);
}

void print_replan_line(const std::string& baseline, int reused,
                       int dirty_partitions) {
  std::printf("replan: baseline %s, %d results spliced, %d dirty "
              "partitions\n",
              baseline.c_str(), reused, dirty_partitions);
}

/// Summary of a frontier run; returns the exit code.
int report_frontier(const Cli& cli, const msoc::plan::FrontierResult& result,
                    const msoc::plan::ResultCache* cache) {
  const PlanRequest& request = cli.request;
  std::printf("frontier: SOC %s (digest %s), %zu cells, %s, w_T=%.2f, "
              "jobs=%d\n",
              result.soc_name.c_str(), result.digest.c_str(),
              result.points.size(),
              request.exhaustive ? "exhaustive" : "Cost_Optimizer",
              result.w_time, request.jobs);
  int failures = 0;
  for (const msoc::plan::FrontierPoint& p : result.points) {
    char power_tag[32] = "";
    if (p.max_power > 0.0) {
      std::snprintf(power_tag, sizeof power_tag, "  P=%-8.6g", p.max_power);
    }
    if (p.ok()) {
      std::printf("  W=%-3d%s  T=%8llu cycles  C=%8.2f  %-24s N=%-3d "
                  "hits=%-3d pruned=%-3d%s\n",
                  p.tam_width, power_tag,
                  static_cast<unsigned long long>(p.best.test_time),
                  p.best.total, p.best.label.c_str(), p.evaluations,
                  p.cache_hits, p.pruned, p.pareto ? "  *" : "");
    } else {
      ++failures;
      std::printf("  W=%-3d%s  infeasible: %s\n", p.tam_width, power_tag,
                  p.error.c_str());
    }
  }
  std::printf("TAM-optimizer evaluations: %d (cache hits %d, pruned %d, "
              "%d combinations/width)\n",
              result.evaluations, result.cache_hits, result.pruned,
              result.points.empty() ? 0
                                    : result.points.front().total_combinations);
  if (!result.replanned_from.empty()) {
    print_replan_line(result.replanned_from, result.reused,
                      result.dirty_partitions);
  } else if (request.replan_from) {
    std::printf("replan: baseline %s unusable, planned cold\n",
                request.replan_from->c_str());
  }
  std::printf("test-time frontier is %s across widths\n",
              result.time_monotone ? "monotone non-increasing"
                                   : "NOT monotone (packer anomaly)");
  if (cache != nullptr) {
    print_cache_line(cache->directory(), cache->hits(),
                     cache->records(), cache->corrupt_files());
  }
  if (failures == static_cast<int>(result.points.size())) {
    std::fprintf(stderr, "error: every frontier width was infeasible\n");
    return 1;
  }
  return 0;
}

/// Summary of a sweep; returns the exit code.
int report_sweep(const Cli& cli, const msoc::plan::SweepResult& result) {
  std::printf("sweep: %zu cases (%s, jobs=%d%s%s)\n", result.rows.size(),
              cli.request.exhaustive ? "exhaustive" : "Cost_Optimizer",
              cli.request.jobs, cli.cache_dir.empty() ? "" : ", cache ",
              cli.cache_dir.c_str());
  int failures = 0;
  for (const msoc::plan::SweepRow& row : result.rows) {
    char power_tag[32] = "";
    if (row.max_power > 0.0) {
      std::snprintf(power_tag, sizeof power_tag, " P=%-8.6g",
                    row.max_power);
    }
    if (row.ok()) {
      std::printf("  %-10s W=%-3d%s w_T=%.2f  C=%8.2f  %-24s %6.1f ms\n",
                  row.soc_name.c_str(), row.tam_width, power_tag,
                  row.w_time, row.best_total, row.best_label.c_str(),
                  row.wall_ms);
    } else {
      ++failures;
      std::printf("  %-10s W=%-3d%s w_T=%.2f  infeasible: %s\n",
                  row.soc_name.c_str(), row.tam_width, power_tag,
                  row.w_time, row.error.c_str());
    }
  }
  std::printf("sweep finished in %.1f ms (%d infeasible of %zu cases)\n",
              result.total_wall_ms, failures, result.rows.size());
  if (!result.replanned_from.empty()) {
    print_replan_line(result.replanned_from, result.reused,
                      result.dirty_partitions);
  }
  if (result.cache_used) {
    print_cache_line(cli.cache_dir, result.cache_hits, result.cache_records,
                     result.cache_corrupt_files);
  }
  if (failures == static_cast<int>(result.rows.size())) {
    std::fprintf(stderr, "error: every sweep case was infeasible\n");
    return 1;
  }
  return 0;
}

/// Summary of a single plan (reported as a one-case sweep).
void report_plan(const Cli& cli, const msoc::soc::Soc& soc,
                 const msoc::plan::SweepRow& row) {
  char power_note[48] = "";
  if (row.max_power > 0.0) {
    std::snprintf(power_note, sizeof power_note, "; max power %g",
                  row.max_power);
  }
  char window_note[64] = "";
  if (row.window_cycles > 0) {
    std::snprintf(window_note, sizeof window_note,
                  "; window %g/%llu cycles", row.window_limit,
                  static_cast<unsigned long long>(row.window_cycles));
  }
  std::printf("SOC %s: %zu digital, %zu analog cores; TAM width %d%s%s; "
              "w_T=%.2f w_A=%.2f; %s; jobs %d\n",
              soc.name().c_str(), soc.digital_count(), soc.analog_count(),
              row.tam_width, power_note, window_note, row.w_time,
              1.0 - row.w_time,
              cli.request.exhaustive ? "exhaustive" : "Cost_Optimizer",
              cli.request.jobs);
  std::printf("\nplan: %s\n", row.best_label.c_str());
  std::printf("  C = %.2f  (C_time = %.2f, C_A = %.2f)\n", row.best_total,
              row.c_time, row.c_area);
  std::printf("  test time %llu cycles; %d of %d combinations evaluated\n",
              static_cast<unsigned long long>(row.test_time),
              row.evaluations, row.total_combinations);
}

int run_in_process(const Cli& cli) {
  using namespace msoc;
  const PlanRequest& request = cli.request;
  std::optional<soc::Soc> soc;
  if (request.soc_text) {
    soc = soc::parse_soc_string(*request.soc_text, cli.soc_file);
  } else if (!request.default_sweep()) {
    soc = plan::builtin_soc(request.bench.value_or(PlanRequest::kDefaultBench));
  }
  std::optional<plan::ResultCache> cache;
  if (!cli.cache_dir.empty()) cache.emplace(cli.cache_dir);
  plan::ResultCache* const cache_ptr = cache ? &*cache : nullptr;

  const PlanResult result =
      plan::execute(request, soc ? &*soc : nullptr, cache_ptr);
  int status = 0;
  if (result.frontier) {
    status = report_frontier(cli, *result.frontier, cache_ptr);
  } else if (result.sweep && request.op == "sweep") {
    status = report_sweep(cli, *result.sweep);
  } else if (result.sweep && soc) {
    report_plan(cli, *soc, result.sweep->rows.front());
  }
  write_outputs(cli, result.document, result.csv);
  if (result.schedule && soc) {
    if (cli.gantt) {
      std::putchar('\n');
      std::fputs(tam::render_gantt(*result.schedule).c_str(), stdout);
    }
    if (cli.validate) {
      const testsim::ReplayReport report =
          testsim::replay(*soc, *result.schedule);
      std::printf("%s\n", report.summary().c_str());
      if (!report.clean()) return 2;
    }
  }
  return status;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace msoc;
  try {
    Cli cli = parse_args(argc, argv);
    if (cli.help) {
      print_usage();
      return 0;
    }
    if (cli.ping) cli.request.op = "ping";
    if (cli.shutdown_daemon) cli.request.op = "shutdown";
    // The daemon may run in another directory (or namespace): the
    // request carries the .soc content, not the path.
    if (!cli.soc_file.empty()) cli.request.soc_text = read_file(cli.soc_file);
    cli.request.validate();
    if (!cli.daemon.empty()) {
      const int exit_code = run_daemon_mode(cli);
      if (exit_code >= 0) return exit_code;
      // No daemon to answer: plan in-process.
    }
    if (cli.cache_compact) return run_compact_mode(cli);
    return run_in_process(cli);
  } catch (const Error& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
}
