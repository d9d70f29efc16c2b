// Repository benchmark program.
//
//   perfbench --workload scale_plan|eco_replan|daemon_mix --seed N
//             --seconds S --trace 0|1 [--work-dir DIR] [--out-dir DIR]
//
// --trace 0 runs the workload for S seconds and prints the end-to-end
// metrics.  --trace 1 runs it twice on the same seed: an untraced pass
// for S/2 seconds, then a traced pass over exactly the operations the
// first pass completed.  It prints per-layer self times and shares,
// the packer/cache/service counters, and the tracing overhead (traced
// minus untraced op_p50_ms); writes the spans as Chrome trace-event
// JSON to DIR/<workload>-seed<N>.trace.json; and fails the run when
// the two passes, or an earlier traced run of the same seed and
// binary, disagree on any deterministic per-operation counter.
//
// The last line of standard output is one JSON object:
//   {"correct": bool, "attempted": n, "failed": n, "metrics": {...}}

#include <unistd.h>

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "bench.hpp"

namespace perfbench {
namespace {

struct Metric {
  std::string name;
  std::string unit;
  double value = 0.0;
};

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string work_dir = ".bench_build/perfbench/work";
  std::string out_dir = ".bench_build/perfbench/traces";
};

[[noreturn]] void usage_error(const std::string& message) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload "
               "scale_plan|eco_replan|daemon_mix --seed N --seconds S "
               "--trace 0|1 [--work-dir DIR] [--out-dir DIR]\n",
               message.c_str());
  std::exit(2);
}

Options parse_args(int argc, char** argv) {
  Options options;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) usage_error("missing value for " + flag);
    const std::string value = argv[++i];
    if (flag == "--workload") {
      options.workload = value;
    } else if (flag == "--seed") {
      options.seed = std::stoull(value);
    } else if (flag == "--seconds") {
      options.seconds = std::stod(value);
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") usage_error("--trace takes 0 or 1");
      options.trace = value == "1";
    } else if (flag == "--work-dir") {
      options.work_dir = value;
    } else if (flag == "--out-dir") {
      options.out_dir = value;
    } else {
      usage_error("unknown flag " + flag);
    }
  }
  if (!(options.seconds > 0.0)) usage_error("--seconds must be positive");
  return options;
}

using WorkloadFn = WorkloadResult (*)(const RunConfig&, Tracer&);

WorkloadFn find_workload(const std::string& name) {
  if (name == "scale_plan") return run_scale_plan;
  if (name == "eco_replan") return run_eco_replan;
  if (name == "daemon_mix") return run_daemon_mix;
  usage_error("unknown workload '" + name + "'");
}

std::vector<Metric> end_to_end(const WorkloadResult& r) {
  return {
      {"setup_s", "s", r.setup_s},
      {"ops_per_s", "1/s",
       r.busy_s > 0.0 ? static_cast<double>(r.op_ms.size()) / r.busy_s : 0.0},
      {"op_p50_ms", "ms", quantile(r.op_ms, 0.5)},
      {"op_p90_ms", "ms", quantile(r.op_ms, 0.9)},
      {"peak_rss_mb", "MiB", peak_rss_mb()},
  };
}

/// Per-layer metrics in BENCHMARK.json order: span self times and
/// shares, the workload's counters and the tracing overhead.
std::vector<Metric> per_layer(const std::string& workload,
                              const WorkloadResult& untraced,
                              const WorkloadResult& traced,
                              const TraceSummary& summary, bool deterministic,
                              long long spans) {
  std::vector<Metric> out;
  const auto layer_ms = [&](const std::string& layer) {
    const auto it = summary.layers.find(layer);
    if (it == summary.layers.end() || it->second.calls == 0) return 0.0;
    return it->second.self_ms / static_cast<double>(it->second.calls);
  };
  const auto share = [&](const std::string& layer) {
    const auto it = summary.layers.find(layer);
    if (it == summary.layers.end() || summary.op_ms <= 0.0) return 0.0;
    return it->second.self_in_op_ms / summary.op_ms;
  };
  const auto counter = [&](const std::string& name) {
    return counter_mean(traced.op_counters, name);
  };
  const auto extra = [&](const std::string& name) {
    const auto it = traced.layers.find(name);
    return it == traced.layers.end() ? 0.0 : it->second;
  };

  for (const char* layer :
       {"soc.parse", "soc.digest", "wrapper.staircase", "mswrap.enumerate",
        "tam.pack", "plan.solve", "plan.serialize", "plan.cache_open",
        "plan.cache_flush", "plan.service", "pland.roundtrip"}) {
    out.push_back({std::string(layer) + "_ms", "ms", layer_ms(layer)});
  }
  out.push_back({"pland.rpc_overhead_ms", "ms", extra("pland.rpc_overhead_ms")});
  for (const char* layer :
       {"soc.parse", "soc.digest", "wrapper.staircase", "plan.solve",
        "plan.serialize", "plan.cache_open", "plan.cache_flush",
        "pland.roundtrip"}) {
    out.push_back({std::string(layer) + "_share", "ratio", share(layer)});
  }
  out.push_back({"op.unattributed_share", "ratio", share("op")});
  const double op_mean_ms =
      summary.ops > 0 ? summary.op_ms / static_cast<double>(summary.ops) : 0.0;
  const double pack_est =
      workload == "scale_plan" && op_mean_ms > 0.0
          ? counter("plan.evaluations") * layer_ms("tam.pack") / op_mean_ms
          : 0.0;
  out.push_back({"tam.pack_share_est", "ratio", pack_est});

  for (const char* name :
       {"wrapper.staircase_cores", "mswrap.partitions", "tam.admission_checks",
        "tam.events_visited", "tam.retries", "tam.reservations",
        "plan.evaluations", "plan.cache_hits", "plan.reused", "plan.pruned",
        "plan.cache_replayed_records", "plan.cache_compactions"}) {
    out.push_back({name, "count", counter(name)});
  }
  out.push_back(
      {"plan.cache_journal_bytes", "bytes", counter("plan.cache_journal_bytes")});
  const double reservations = counter("tam.reservations");
  out.push_back({"tam.checks_per_reservation", "ratio",
                 reservations > 0.0
                     ? counter("tam.admission_checks") / reservations
                     : 0.0});
  out.push_back({"plan.memo_hit_ratio", "ratio", extra("plan.memo_hit_ratio")});
  for (const char* name :
       {"pland.memo_hits", "pland.coalesced", "pland.busy_rejected",
        "pland.frame_errors", "pland.counter_mismatches"}) {
    out.push_back({name, "count", extra(name)});
  }
  out.push_back({"pland.hit_p50_ms", "ms", extra("pland.hit_p50_ms")});
  out.push_back({"pland.miss_p50_ms", "ms", extra("pland.miss_p50_ms")});

  const double traced_p50 = quantile(traced.op_ms, 0.5);
  const double untraced_p50 = quantile(untraced.op_ms, 0.5);
  out.push_back({"trace.op_p50_ms", "ms", traced_p50});
  out.push_back({"trace.untraced_op_p50_ms", "ms", untraced_p50});
  out.push_back({"trace.overhead_ms", "ms", traced_p50 - untraced_p50});
  out.push_back({"trace.overhead_frac", "ratio",
                 untraced_p50 > 0.0 ? (traced_p50 - untraced_p50) / untraced_p50
                                    : 0.0});
  out.push_back({"trace.spans", "count", static_cast<double>(spans)});
  out.push_back({"counters.deterministic", "bool", deterministic ? 1.0 : 0.0});
  const long long attempted = untraced.attempted + traced.attempted;
  out.push_back({"run.failed_frac", "ratio",
                 attempted > 0 ? static_cast<double>(untraced.failed +
                                                     traced.failed) /
                                     static_cast<double>(attempted)
                               : 0.0});
  return out;
}

/// Lists every (op, counter) on which two counter sets disagree, over
/// the operations both recorded.
std::vector<std::string> counter_mismatches(
    const std::map<long long, OpCounters>& a,
    const std::map<long long, OpCounters>& b) {
  std::vector<std::string> out;
  for (const auto& [op, values] : a) {
    const auto other = b.find(op);
    if (other == b.end()) continue;
    if (values == other->second) continue;
    for (const auto& [name, value] : values) {
      const auto it = other->second.find(name);
      const double theirs = it == other->second.end() ? NAN : it->second;
      if (!(value == theirs)) {
        out.push_back("op " + std::to_string(op) + " " + name + ": " +
                      std::to_string(value) + " vs " + std::to_string(theirs));
      }
    }
    if (values.size() != other->second.size()) {
      out.push_back("op " + std::to_string(op) + ": different counter sets");
    }
  }
  return out;
}

/// Identifies the running binary, so counter files of another build of
/// the program are not compared.
std::string binary_fingerprint() {
  std::error_code ec;
  const std::filesystem::path exe = std::filesystem::read_symlink(
      "/proc/self/exe", ec);
  if (ec) return "unknown";
  const auto size = std::filesystem::file_size(exe, ec);
  const auto stamp = std::filesystem::last_write_time(exe, ec);
  return std::to_string(size) + "-" +
         std::to_string(stamp.time_since_epoch().count());
}

/// Compares this run's counters with the previous traced run of the
/// same seed and binary (if any), then stores this run's.
std::vector<std::string> check_against_previous(
    const std::string& path, const std::map<long long, OpCounters>& counters) {
  const std::string fingerprint = binary_fingerprint();
  std::vector<std::string> mismatches;
  std::ifstream in(path);
  std::string header;
  if (in && std::getline(in, header) && header == "exe " + fingerprint) {
    std::map<long long, OpCounters> previous;
    long long op = 0;
    std::string name;
    double value = 0.0;
    while (in >> op >> name >> value) previous[op][name] = value;
    mismatches = counter_mismatches(previous, counters);
  }
  in.close();
  std::ofstream out(path);
  out << "exe " << fingerprint << "\n";
  char buffer[64];
  for (const auto& [op, values] : counters) {
    for (const auto& [name, value] : values) {
      std::snprintf(buffer, sizeof buffer, "%.17g", value);
      out << op << ' ' << name << ' ' << buffer << "\n";
    }
  }
  return mismatches;
}

void print_table(const std::string& title, const std::vector<Metric>& metrics) {
  std::printf("%s\n", title.c_str());
  for (const Metric& m : metrics) {
    std::printf("  %-30s %16.6g %s\n", m.name.c_str(), m.value, m.unit.c_str());
  }
}

void print_result(bool correct, long long attempted, long long failed,
                  const std::vector<Metric>& metrics) {
  std::ostringstream out;
  out << "{\"correct\": " << (correct ? "true" : "false")
      << ", \"attempted\": " << attempted << ", \"failed\": " << failed
      << ", \"metrics\": {";
  char buffer[64];
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    std::snprintf(buffer, sizeof buffer, "%.12g",
                  std::isfinite(metrics[i].value) ? metrics[i].value : 0.0);
    out << (i == 0 ? "" : ", ") << "\"" << metrics[i].name
        << "\": {\"value\": " << buffer << ", \"unit\": \"" << metrics[i].unit
        << "\"}";
  }
  out << "}}";
  std::printf("%s\n", out.str().c_str());
  std::fflush(stdout);
}

std::string prediction(const std::string& workload,
                       const std::vector<Metric>& layers) {
  const auto value = [&](const std::string& name) {
    for (const Metric& m : layers) {
      if (m.name == name) return m.value;
    }
    return 0.0;
  };
  if (workload == "scale_plan") {
    const bool holds = value("tam.pack_share_est") > 0.5 &&
                       value("plan.solve_share") > 0.5;
    return std::string("tam packing dominates the operation: ") +
           (holds ? "holds" : "FAILS");
  }
  if (workload == "eco_replan") {
    const bool holds = value("tam.admission_checks") == 0.0 &&
                       value("plan.evaluations") == 0.0;
    return std::string("no packing (admission checks and evaluations 0): ") +
           (holds ? "holds" : "FAILS");
  }
  const bool holds = value("plan.memo_hit_ratio") > 0.0;
  return std::string("non-zero memo hit ratio: ") + (holds ? "holds" : "FAILS");
}

int run(const Options& options) {
  const WorkloadFn workload = find_workload(options.workload);
  RunConfig config;
  config.seed = options.seed;
  config.seconds = options.seconds;
  config.work_dir = options.work_dir + "/" + options.workload + "-" +
                    std::to_string(::getpid());
  std::filesystem::remove_all(config.work_dir);
  std::filesystem::create_directories(config.work_dir);
  struct Cleanup {
    std::string dir;
    ~Cleanup() {
      std::error_code ec;
      std::filesystem::remove_all(dir, ec);
    }
  } cleanup{config.work_dir};

  std::printf("perfbench %s seed %llu, %.3g s%s\n", options.workload.c_str(),
              static_cast<unsigned long long>(options.seed), options.seconds,
              options.trace ? ", traced" : "");

  if (!options.trace) {
    Tracer tracer(false);
    const WorkloadResult result = workload(config, tracer);
    const std::vector<Metric> metrics = end_to_end(result);
    std::vector<Metric> table = metrics;
    table.push_back({"hit_p50_ms", "ms", quantile(result.hit_ms, 0.5)});
    table.push_back({"miss_p50_ms", "ms", quantile(result.miss_ms, 0.5)});
    table.push_back({"ops", "count", static_cast<double>(result.op_ms.size())});
    for (const auto& [name, value] : result.layers) {
      table.push_back({name, "-", value});
    }
    table.push_back(
        {"failed_frac", "ratio",
         result.attempted > 0 ? static_cast<double>(result.failed) /
                                    static_cast<double>(result.attempted)
                              : 0.0});
    print_table("end-to-end", table);
    print_result(result.failed == 0 && result.attempted > 0, result.attempted,
                 result.failed, metrics);
    return 0;
  }

  config.counters = true;
  config.seconds = options.seconds / 2.0;
  Tracer off(false);
  const WorkloadResult untraced = workload(config, off);
  config.stream_limits = untraced.stream_ops;
  Tracer tracer(true);
  const WorkloadResult traced = workload(config, tracer);

  std::vector<std::string> mismatches =
      counter_mismatches(untraced.op_counters, traced.op_counters);
  std::filesystem::create_directories(options.out_dir);
  const std::string stem = options.out_dir + "/" + options.workload + "-seed" +
                           std::to_string(options.seed);
  for (const std::string& m :
       check_against_previous(stem + ".counters", traced.op_counters)) {
    mismatches.push_back("previous run: " + m);
  }
  for (const std::string& m : mismatches) {
    std::fprintf(stderr, "counter mismatch: %s\n", m.c_str());
  }
  const std::vector<SpanRecord> records = tracer.records();
  tracer.write_chrome(stem + ".trace.json");
  const TraceSummary summary = summarize(records);
  const std::vector<Metric> layers =
      per_layer(options.workload, untraced, traced, summary, mismatches.empty(),
                static_cast<long long>(records.size()));
  print_table("per-layer (traced pass; *_ms = mean self time per call)", layers);
  std::printf("prediction: %s\n", prediction(options.workload, layers).c_str());
  std::printf("trace: %s.trace.json\n", stem.c_str());
  const long long attempted = untraced.attempted + traced.attempted;
  const long long failed = untraced.failed + traced.failed;
  print_result(failed == 0 && attempted > 0 && mismatches.empty(), attempted,
               failed, layers);
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  try {
    return perfbench::run(perfbench::parse_args(argc, argv));
  } catch (const std::exception& error) {
    std::fprintf(stderr, "perfbench: error: %s\n", error.what());
    return 1;
  }
}
