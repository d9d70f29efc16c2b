#include "msoc/plan/request.hpp"

#include <chrono>
#include <cmath>
#include <cstdint>
#include <limits>
#include <sstream>
#include <utility>

#include "msoc/common/error.hpp"
#include "msoc/common/format.hpp"
#include "msoc/common/journal.hpp"
#include "msoc/common/json.hpp"
#include "msoc/common/strings.hpp"
#include "msoc/soc/benchmarks.hpp"
#include "msoc/tam/packing.hpp"

namespace msoc::plan {

namespace {

constexpr const char* kRpcSchema = "msoc-rpc-v1";

using SocMaker = soc::Soc (*)();

/// The constructor of a built-in benchmark SOC; null for other names.
SocMaker builtin_maker(std::string_view name) {
  if (name == "p93791m") return soc::make_p93791m;
  if (name == "d695m") return soc::make_d695m;
  if (name == "p93791") return soc::make_p93791;
  if (name == "d695") return soc::make_d695;
  return nullptr;
}

std::string unknown_bench(std::string_view name) {
  return "unknown bench name: " + std::string(name) +
         " (expected p93791m, d695m, p93791 or d695)";
}

/// A JSON number that must be an integer in [lo, hi] — the range of
/// the field's type, not of its valid values (validate() owns those).
long long json_integer(const JsonValue& value, const std::string& what,
                       long long lo, long long hi) {
  const double v = value.as_number();
  require(std::isfinite(v) && v == std::floor(v) &&
              v >= static_cast<double>(lo) && v <= static_cast<double>(hi),
          what + " needs an integer");
  return static_cast<long long>(v);
}

int json_int(const JsonValue& value, const std::string& what) {
  return static_cast<int>(json_integer(value, what,
                                       std::numeric_limits<int>::min(),
                                       std::numeric_limits<int>::max()));
}

int flag_int(std::string_view text, const char* message) {
  const auto v = parse_int(text);
  if (!v || *v < std::numeric_limits<int>::min() ||
      *v > std::numeric_limits<int>::max()) {
    throw InfeasibleError(message);
  }
  return static_cast<int>(*v);
}

double flag_number(std::string_view text, const char* message) {
  const auto v = parse_double(text);
  if (!v) throw InfeasibleError(message);
  return *v;
}

/// The one envelope writer behind to_json and canonical_key.
std::string envelope(const PlanRequest& request, bool hash_soc_text) {
  // `+ 0.0` folds -0.0 into 0.0: equal doubles, equal bytes.
  const auto number = [](double v) { return round_trip_double(v + 0.0); };
  std::ostringstream out;
  out << "{\"schema\":\"" << kRpcSchema << "\",\"op\":\""
      << json_escape(request.op) << '"';
  if (!request.planning()) {
    out << '}';
    return out.str();
  }
  if (request.bench) {
    out << ",\"bench\":\"" << json_escape(*request.bench) << '"';
  }
  if (request.soc_text && hash_soc_text) {
    out << ",\"soc_text_fnv1a64\":\"" << hex64(fnv1a64(*request.soc_text))
        << '"';
  } else if (request.soc_text) {
    out << ",\"soc_text\":\"" << json_escape(*request.soc_text) << '"';
  }
  if (request.width) out << ",\"width\":" << *request.width;
  if (request.widths) {
    out << ",\"widths\":[";
    for (std::size_t i = 0; i < request.widths->size(); ++i) {
      out << (i == 0 ? "" : ",") << (*request.widths)[i];
    }
    out << ']';
  }
  if (request.max_powers) {
    out << ",\"max_powers\":[";
    for (std::size_t i = 0; i < request.max_powers->size(); ++i) {
      out << (i == 0 ? "" : ",") << number((*request.max_powers)[i]);
    }
    out << ']';
  }
  if (request.w_time) out << ",\"wt\":" << number(*request.w_time);
  if (request.window_limit) {
    out << ",\"window_limit\":" << number(*request.window_limit);
  }
  if (request.window_cycles) {
    out << ",\"window_cycles\":" << *request.window_cycles;
  }
  if (request.exhaustive) out << ",\"exhaustive\":true";
  if (request.epsilon != 0.0) {
    out << ",\"epsilon\":" << number(request.epsilon);
  }
  if (request.jobs != 1) out << ",\"jobs\":" << request.jobs;
  if (request.replan_from) {
    out << ",\"replan_from\":\"" << json_escape(*request.replan_from)
        << '"';
  }
  out << '}';
  return out.str();
}

tam::PackingOptions packing_options(const PlanRequest& request) {
  tam::PackingOptions packing;
  if (request.window_limit) {
    packing.window_limit = *request.window_limit;
    packing.window_cycles =
        static_cast<Cycles>(request.window_cycles.value_or(0));
  }
  return packing;
}

CostWeights weights_of(const PlanRequest& request) {
  const double w_time = request.w_time.value_or(0.5);
  return {w_time, 1.0 - w_time};
}

/// The engine a frontier request runs, and a plan request as one width.
FrontierOptions frontier_options(const PlanRequest& request,
                                 ResultCache* cache) {
  FrontierOptions options;
  if (request.widths) options.widths = *request.widths;
  if (request.width) options.widths = {*request.width};
  if (request.max_powers) options.max_powers = *request.max_powers;
  options.packing = packing_options(request);
  options.weights = weights_of(request);
  options.exhaustive = request.exhaustive;
  options.epsilon = request.epsilon;
  options.jobs = request.jobs;
  options.cache = cache;
  return options;
}

void execute_frontier(const PlanRequest& request, const soc::Soc& soc,
                      ResultCache* cache, PlanResult& out) {
  FrontierEngine engine(soc, frontier_options(request, cache));
  FrontierResult result = request.replan_from
                              ? engine.replan(*request.replan_from)
                              : engine.run();
  if (cache != nullptr) cache->flush();
  out.document = result.to_json();
  out.csv = result.to_csv();
  out.frontier = std::move(result);
}

void execute_sweep(const PlanRequest& request, const soc::Soc* soc,
                   ResultCache* cache, PlanResult& out) {
  SweepConfig config;
  if (soc != nullptr) {
    config.socs.push_back(*soc);
  } else {
    config = default_benchmark_sweep();
  }
  // An explicit width, power or weight narrows (or fans out) the sweep.
  if (request.widths) config.tam_widths = *request.widths;
  if (request.width) config.tam_widths = {*request.width};
  if (request.max_powers) config.max_powers = *request.max_powers;
  const tam::PackingOptions packing = packing_options(request);
  config.window_limit = packing.window_limit;
  config.window_cycles = packing.window_cycles;
  if (request.w_time) config.time_weights = {*request.w_time};
  config.exhaustive = request.exhaustive;
  config.epsilon = request.epsilon;
  config.jobs = request.jobs;
  config.cache = cache;
  config.replan_from = request.replan_from.value_or("");

  SweepResult result = run_sweep(config);
  out.document = result.to_json();
  out.csv = result.to_csv();
  out.sweep = std::move(result);
}

/// A single plan: a one-width, cacheless frontier reported as a
/// one-case sweep, plus the winner's schedule.
void execute_plan(const PlanRequest& request, const soc::Soc& soc,
                  PlanResult& out) {
  FrontierOptions options = frontier_options(request, nullptr);
  options.widths = {request.width.value_or(32)};
  const auto started = std::chrono::steady_clock::now();
  FrontierEngine engine(soc, options);
  const FrontierResult frontier = engine.run();
  const FrontierPoint& point = frontier.points.front();
  if (!point.ok()) throw InfeasibleError(point.error);

  SweepResult single;
  single.exhaustive = request.exhaustive;
  single.epsilon = request.epsilon;
  single.jobs = sweep_fanout(request.jobs, 1).threads();
  single.total_wall_ms = std::chrono::duration<double, std::milli>(
                             std::chrono::steady_clock::now() - started)
                             .count();
  single.rows.push_back(sweep_row(frontier, point));

  tam::Schedule schedule = engine.schedule(point);
  out.document = single.to_json();
  out.csv = tam::schedule_to_csv(schedule);
  out.sweep = std::move(single);
  out.schedule = std::move(schedule);
}

}  // namespace

bool PlanRequest::planning() const {
  return op == "plan" || op == "sweep" || op == "frontier";
}

void PlanRequest::validate() const {
  require(planning() || op == "ping" || op == "stats" || op == "shutdown",
          "unknown op: " + op +
              " (expected ping, stats, shutdown, plan, sweep or frontier)");
  if (bench && builtin_maker(*bench) == nullptr) {
    throw InfeasibleError(unknown_bench(*bench));
  }
  require(!(bench && soc_text), "soc_text and bench are mutually exclusive");
  require(!width || *width >= 1, "width needs an integer >= 1");
  if (widths) {
    require(!widths->empty(), "widths needs at least one width");
    for (const int w : *widths) {
      require(w >= 1, "widths entries need integers >= 1");
    }
  }
  require(!(width && widths), "width and widths are mutually exclusive");
  if (max_powers) {
    require(!max_powers->empty(), "max_powers needs at least one budget");
    for (const double p : *max_powers) {
      // A NaN budget passes every sign test and would break the
      // cache's EntryKey ordering downstream.
      require(std::isfinite(p) && p >= 0.0,
              "max_powers needs finite numbers >= 0");
    }
  }
  require(op != "plan" || !max_powers || max_powers->size() == 1,
          "a plan request takes exactly one max_powers value");
  require(!window_limit || (std::isfinite(*window_limit) &&
                            *window_limit >= 0.0),
          "window_limit needs a finite number >= 0");
  require(!window_cycles || *window_cycles >= 1,
          "window_cycles needs an integer >= 1");
  require(!window_cycles || window_limit.has_value(),
          "window_cycles needs a window_limit");
  require(!window_limit || *window_limit == 0.0 || window_cycles,
          "a positive window_limit needs window_cycles");
  require(!w_time || (*w_time >= 0.0 && *w_time <= 1.0),
          "wt needs a number in [0,1]");
  require(std::isfinite(epsilon) && epsilon >= 0.0,
          "epsilon needs a finite number >= 0");
  require(jobs >= 0, "jobs needs an integer >= 0");
  require(!replan_from || op == "sweep" || op == "frontier",
          "replan_from needs a sweep or frontier request");
}

PlanRequest PlanRequest::from_json(std::string_view envelope) {
  const JsonValue root = parse_json(envelope, "msoc-rpc request");
  require(root.type() == JsonValue::Type::kObject,
          "request must be a JSON object");
  require(root.at("schema").as_string() == kRpcSchema,
          std::string("unsupported request schema (expected ") + kRpcSchema +
              ")");
  PlanRequest request;
  request.op = root.at("op").as_string();
  if (request.planning()) {
    if (const JsonValue* v = root.find("bench")) {
      request.bench = v->as_string();
    }
    if (const JsonValue* v = root.find("soc_text")) {
      request.soc_text = v->as_string();
    }
    if (const JsonValue* v = root.find("width")) {
      request.width = json_int(*v, "width");
    }
    if (const JsonValue* v = root.find("widths")) {
      std::vector<int> widths;
      for (const JsonValue& w : v->as_array()) {
        widths.push_back(json_int(w, "widths entries"));
      }
      request.widths = std::move(widths);
    }
    if (const JsonValue* v = root.find("max_powers")) {
      std::vector<double> powers;
      for (const JsonValue& p : v->as_array()) powers.push_back(p.as_number());
      request.max_powers = std::move(powers);
    }
    if (const JsonValue* v = root.find("window_limit")) {
      request.window_limit = v->as_number();
    }
    if (const JsonValue* v = root.find("window_cycles")) {
      // Integers beyond 2^53 are not exact in a JSON number.
      constexpr long long kExact = 1LL << 53;
      request.window_cycles =
          json_integer(*v, "window_cycles", -kExact, kExact);
    }
    if (const JsonValue* v = root.find("wt")) request.w_time = v->as_number();
    if (const JsonValue* v = root.find("exhaustive")) {
      request.exhaustive = v->as_bool();
    }
    if (const JsonValue* v = root.find("epsilon")) {
      request.epsilon = v->as_number();
    }
    if (const JsonValue* v = root.find("jobs")) {
      request.jobs = json_int(*v, "jobs");
    }
    if (const JsonValue* v = root.find("replan_from")) {
      request.replan_from = v->as_string();
    }
  }
  request.validate();
  return request;
}

std::string PlanRequest::to_json() const { return envelope(*this, false); }

std::string PlanRequest::canonical_key() const {
  return envelope(*this, true);
}

bool PlanRequest::apply_flag(PlanRequest& request, std::string_view flag,
                             const std::function<std::string()>& value) {
  if (flag == "--bench") {
    request.bench = value();
  } else if (flag == "--width") {
    request.width = flag_int(value(), "--width needs an integer");
  } else if (flag == "--widths") {
    const std::string text = value();
    std::vector<int> widths;
    for (const std::string_view field : split_fields(text, ",")) {
      widths.push_back(
          flag_int(field, "--widths needs comma-separated integers"));
    }
    request.widths = std::move(widths);
  } else if (flag == "--max-power") {
    const std::string text = value();
    std::vector<double> powers;
    for (const std::string_view field : split_fields(text, ",")) {
      powers.push_back(
          flag_number(field, "--max-power needs comma-separated numbers"));
    }
    request.max_powers = std::move(powers);
  } else if (flag == "--power-window") {
    const std::string text = value();
    const std::size_t colon = text.find(':');
    if (text == "0") {
      request.window_limit = 0.0;  // force-unwindowed
      request.window_cycles.reset();
    } else {
      require(colon != std::string::npos,
              "--power-window needs CYCLES:LIMIT (or 0 = unwindowed)");
      const auto cycles = parse_int(std::string_view(text).substr(0, colon));
      if (!cycles) {
        throw InfeasibleError("--power-window needs an integer cycle count");
      }
      request.window_cycles = cycles;
      request.window_limit = flag_number(
          std::string_view(text).substr(colon + 1),
          "--power-window needs a numeric limit");
    }
  } else if (flag == "--wt") {
    request.w_time = flag_number(value(), "--wt needs a number");
  } else if (flag == "--exhaustive") {
    request.exhaustive = true;
  } else if (flag == "--epsilon") {
    request.epsilon = flag_number(value(), "--epsilon needs a number");
  } else if (flag == "--jobs") {
    request.jobs = flag_int(value(), "--jobs needs an integer");
  } else if (flag == "--sweep" || flag == "--frontier") {
    const std::string op(flag.substr(2));
    require(request.op == "plan" || request.op == op,
            "--sweep and --frontier are mutually exclusive");
    request.op = op;
  } else if (flag == "--replan-from") {
    request.replan_from = value();
  } else {
    return false;
  }
  return true;
}

soc::Soc builtin_soc(std::string_view name) {
  const SocMaker make = builtin_maker(name);
  if (make == nullptr) throw InfeasibleError(unknown_bench(name));
  return make();
}

PlanResult execute(const PlanRequest& request, const soc::Soc* soc,
                   ResultCache* cache) {
  request.validate();
  check_invariant(request.planning(), "execute needs a planning request");
  check_invariant(soc != nullptr || request.default_sweep(),
                  "execute needs the SOC the request names");
  PlanResult out;
  if (request.op == "frontier") {
    execute_frontier(request, *soc, cache, out);
  } else if (request.op == "sweep") {
    execute_sweep(request, soc, cache, out);
  } else {
    execute_plan(request, *soc, out);
  }
  return out;
}

}  // namespace msoc::plan
