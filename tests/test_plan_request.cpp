// PlanRequest properties over seeded random requests: the canonical
// envelope round-trips, canonical keys are equal exactly for equal
// requests, the argv surface parses to the same request as the JSON
// surface, and a request validate() rejects gets the same message from
// both surfaces.

#include "msoc/plan/request.hpp"

#include <gtest/gtest.h>

#include <functional>
#include <limits>
#include <optional>
#include <string>
#include <vector>

#include "msoc/common/error.hpp"
#include "msoc/common/format.hpp"
#include "msoc/common/rng.hpp"

namespace {

using msoc::Rng;
using msoc::plan::PlanRequest;

constexpr int kRequests = 400;

/// Text with every character JSON has to escape, plus plain ones.
std::string random_text(Rng& rng) {
  static const std::string alphabet =
      "abcXYZ019 _-:/\"\\\n\r\t\b\f\x01\x1f{}[],";
  std::string text;
  const int length = rng.uniform_int(0, 40);
  for (int i = 0; i < length; ++i) {
    text += alphabet[static_cast<std::size_t>(
        rng.uniform_int(0, static_cast<int>(alphabet.size()) - 1))];
  }
  return text;
}

/// A double with a full, non-dyadic mantissa.
double random_power(Rng& rng) {
  switch (rng.uniform_int(0, 3)) {
    case 0:
      return 0.0;
    case 1:
      return 0.1 * rng.uniform_int(1, 5000);
    case 2:
      return 1.0 / 3.0 * rng.uniform_int(1, 100);
    default:
      return rng.uniform(0.0, 1e6);
  }
}

/// A random request that validate() accepts.
PlanRequest random_request(Rng& rng) {
  static const std::vector<std::string> ops = {"ping", "stats", "shutdown",
                                               "plan", "sweep", "frontier"};
  PlanRequest r;
  r.op = ops[static_cast<std::size_t>(rng.uniform_int(0, 5))];
  if (!r.planning()) return r;  // control ops carry no planning fields

  switch (rng.uniform_int(0, 2)) {
    case 0:
      r.bench = rng.uniform_int(0, 1) == 0 ? "d695m" : "p93791";
      break;
    case 1:
      r.soc_text = random_text(rng);
      break;
    default:
      break;
  }
  switch (rng.uniform_int(0, 2)) {
    case 0:
      r.width = rng.uniform_int(1, 128);
      break;
    case 1:
      r.widths.emplace();
      for (int i = rng.uniform_int(1, 5); i > 0; --i) {
        r.widths->push_back(rng.uniform_int(1, 128));
      }
      break;
    default:
      break;
  }
  if (rng.uniform_int(0, 1) == 0) {
    r.max_powers.emplace();
    const int count = r.op == "plan" ? 1 : rng.uniform_int(1, 4);
    for (int i = 0; i < count; ++i) {
      r.max_powers->push_back(random_power(rng));
    }
  }
  switch (rng.uniform_int(0, 3)) {
    case 0:
      r.window_limit = 0.0;  // force-unwindowed
      break;
    case 1:
      r.window_limit = 0.0;  // unwindowed too, whatever the length
      r.window_cycles = rng.uniform_int(1, 100000);
      break;
    case 2:
      r.window_limit = random_power(rng) + 0.5;
      r.window_cycles = rng.uniform_int(1, 100000);
      break;
    default:
      break;
  }
  if (rng.uniform_int(0, 1) == 0) r.w_time = rng.uniform01();
  r.exhaustive = rng.uniform_int(0, 1) == 0;
  if (rng.uniform_int(0, 1) == 0) r.epsilon = rng.uniform(0.0, 0.5);
  r.jobs = rng.uniform_int(0, 8);
  if (r.op != "plan" && rng.uniform_int(0, 2) == 0) {
    r.replan_from = random_text(rng);
  }
  return r;
}

/// Changes exactly one field; the result never equals `r`.
PlanRequest mutated(PlanRequest r, Rng& rng) {
  if (!r.planning()) {
    r.op = r.op == "ping" ? "stats" : "ping";
    return r;
  }
  switch (rng.uniform_int(0, 6)) {
    case 0:
      r.soc_text = r.soc_text.value_or("") + "x";
      break;
    case 1:
      r.width = r.width.value_or(0) + 1;
      break;
    case 2:
      r.max_powers.emplace(1, r.max_powers ? r.max_powers->front() + 0.1 : 1.0);
      break;
    case 3:
      r.w_time = r.w_time.value_or(0.0) + 1.0;
      break;
    case 4:
      r.exhaustive = !r.exhaustive;
      break;
    case 5:
      r.epsilon += 0.125;
      break;
    default:
      r.jobs += 1;
      break;
  }
  return r;
}

/// Equal to `r` (-0.0 == 0.0), with every zero double negated.
PlanRequest negative_zeros(PlanRequest r) {
  const auto flip = [](double& v) {
    if (v == 0.0) v = -0.0;
  };
  if (r.max_powers) {
    for (double& p : *r.max_powers) flip(p);
  }
  if (r.window_limit) flip(*r.window_limit);
  if (r.w_time) flip(*r.w_time);
  flip(r.epsilon);
  return r;
}

/// The msoc_plan flags that express `r` (a --soc file is read into
/// soc_text by the tool itself; see argv_request).
std::vector<std::string> to_argv(const PlanRequest& r) {
  std::vector<std::string> argv;
  if (r.op != "plan") argv.push_back("--" + r.op);
  if (r.bench) argv.insert(argv.end(), {"--bench", *r.bench});
  const auto list = [](const auto& values, const auto& render) {
    std::string text;
    for (const auto& v : values) {
      text += (text.empty() ? "" : ",") + render(v);
    }
    return text;
  };
  const auto number = [](double v) { return msoc::round_trip_double(v); };
  const auto integer = [](int v) { return std::to_string(v); };
  if (r.width) argv.insert(argv.end(), {"--width", integer(*r.width)});
  if (r.widths) {
    argv.insert(argv.end(), {"--widths", list(*r.widths, integer)});
  }
  if (r.max_powers) {
    argv.insert(argv.end(), {"--max-power", list(*r.max_powers, number)});
  }
  if (r.window_limit) {
    argv.insert(argv.end(),
                {"--power-window",
                 r.window_cycles ? std::to_string(*r.window_cycles) + ":" +
                                       number(*r.window_limit)
                                 : number(*r.window_limit)});
  }
  if (r.w_time) argv.insert(argv.end(), {"--wt", number(*r.w_time)});
  if (r.exhaustive) argv.push_back("--exhaustive");
  if (r.epsilon != 0.0) {
    argv.insert(argv.end(), {"--epsilon", number(r.epsilon)});
  }
  if (r.jobs != 1) argv.insert(argv.end(), {"--jobs", integer(r.jobs)});
  if (r.replan_from) {
    argv.insert(argv.end(), {"--replan-from", *r.replan_from});
  }
  return argv;
}

/// What msoc_plan's argv surface builds from `argv` plus a --soc file
/// holding `soc_text`.  Unvalidated.
PlanRequest argv_request(const std::vector<std::string>& argv,
                         const std::optional<std::string>& soc_text) {
  PlanRequest r;
  for (std::size_t i = 0; i < argv.size(); ++i) {
    const std::function<std::string()> value = [&] { return argv.at(++i); };
    EXPECT_TRUE(PlanRequest::apply_flag(r, argv[i], value)) << argv[i];
  }
  r.soc_text = soc_text;
  return r;
}

std::string rejection(const std::function<void()>& run) {
  try {
    run();
  } catch (const msoc::Error& e) {
    return e.what();
  }
  return "(accepted)";
}

TEST(PlanRequestProperties, CanonicalEnvelopeRoundTrips) {
  Rng rng(0x5eed0001);
  for (int i = 0; i < kRequests; ++i) {
    const PlanRequest r = random_request(rng);
    const std::string json = r.to_json();
    EXPECT_EQ(PlanRequest::from_json(json), r) << json;
    EXPECT_EQ(PlanRequest::from_json(json).to_json(), json);
  }
}

TEST(PlanRequestProperties, CanonicalKeysAreEqualExactlyForEqualRequests) {
  Rng rng(0x5eed0002);
  std::vector<PlanRequest> requests;
  for (int i = 0; i < kRequests / 4; ++i) {
    const PlanRequest r = random_request(rng);
    requests.push_back(r);
    requests.push_back(negative_zeros(r));  // an equal twin
    requests.push_back(mutated(r, rng));
    if (r.soc_text) {  // the key hashes soc_text: one changed byte
      PlanRequest other = r;
      if (other.soc_text->empty()) {
        other.soc_text = "x";
      } else {
        other.soc_text->back() ^= 1;
      }
      requests.push_back(other);
    }
  }
  std::vector<std::string> keys;
  for (const PlanRequest& r : requests) keys.push_back(r.canonical_key());
  for (std::size_t i = 0; i < requests.size(); ++i) {
    for (std::size_t j = 0; j < requests.size(); ++j) {
      EXPECT_EQ(keys[i] == keys[j], requests[i] == requests[j])
          << requests[i].to_json() << "\n" << requests[j].to_json();
    }
  }
}

TEST(PlanRequestProperties, ArgvSurfaceBuildsTheSameRequest) {
  Rng rng(0x5eed0003);
  for (int i = 0; i < kRequests; ++i) {
    const PlanRequest r = random_request(rng);
    if (!r.planning()) continue;  // --ping/--shutdown are msoc_plan's own
    EXPECT_EQ(argv_request(to_argv(r), r.soc_text), r) << r.to_json();
  }
}

TEST(PlanRequestProperties, RejectionsMatchAcrossSurfaces) {
  // Each breaks exactly one rule, in a way both surfaces can express.
  using Breaker = std::function<void(PlanRequest&)>;
  const std::vector<Breaker> breakers = {
      [](PlanRequest& r) {
        r.width = 0;
        r.widths.reset();
      },
      [](PlanRequest& r) {
        r.widths = std::vector<int>{16, -2};
        r.width.reset();
      },
      [](PlanRequest& r) {
        r.widths = std::vector<int>{};
        r.width.reset();
      },
      [](PlanRequest& r) {
        r.width = 16;
        r.widths = std::vector<int>{32};
      },
      [](PlanRequest& r) { r.max_powers = std::vector<double>{-0.5}; },
      [](PlanRequest& r) { r.max_powers = std::vector<double>{}; },
      [](PlanRequest& r) {
        r.op = "plan";
        r.replan_from.reset();
        r.max_powers = std::vector<double>{100.0, 200.0};
      },
      [](PlanRequest& r) {
        r.window_limit = -1.5;
        r.window_cycles = 10;
      },
      [](PlanRequest& r) {
        r.window_limit = 400.0;
        r.window_cycles = 0;
      },
      [](PlanRequest& r) {
        r.window_limit = 400.0;
        r.window_cycles = -7;
      },
      [](PlanRequest& r) { r.w_time = 1.25; },
      [](PlanRequest& r) { r.epsilon = -0.25; },
      [](PlanRequest& r) { r.jobs = -1; },
      [](PlanRequest& r) {
        r.op = "plan";
        r.max_powers.reset();
        r.replan_from = "ab";
      },
      [](PlanRequest& r) {
        r.bench = "p99999";
        r.soc_text.reset();
      },
      [](PlanRequest& r) {
        r.bench = "d695m";
        r.soc_text = "SocName x\n";
      },
  };
  Rng rng(0x5eed0004);
  int checked = 0;
  for (int i = 0; i < kRequests; ++i) {
    PlanRequest r = random_request(rng);
    if (!r.planning()) continue;
    breakers[static_cast<std::size_t>(i) % breakers.size()](r);
    const std::string expected = rejection([&] { r.validate(); });
    ASSERT_NE(expected, "(accepted)") << r.to_json();
    EXPECT_EQ(rejection([&] { (void)PlanRequest::from_json(r.to_json()); }),
              expected)
        << r.to_json();
    const PlanRequest from_argv = argv_request(to_argv(r), r.soc_text);
    EXPECT_EQ(rejection([&] { from_argv.validate(); }), expected)
        << r.to_json();
    ++checked;
  }
  EXPECT_GT(checked, kRequests / 3);
}

TEST(PlanRequest, JsonOnlyRulesAndControlOps) {
  // Rules only the wire can break (the argv parser cannot produce them).
  EXPECT_THROW((void)PlanRequest::from_json(
                   R"({"schema":"msoc-rpc-v1","op":"launch"})"),
               msoc::InfeasibleError);
  EXPECT_THROW(
      (void)PlanRequest::from_json(
          R"({"schema":"msoc-rpc-v1","op":"sweep","window_cycles":9})"),
      msoc::InfeasibleError);
  // Control ops ignore planning fields, valid or not.
  const PlanRequest ping = PlanRequest::from_json(
      R"({"schema":"msoc-rpc-v1","op":"ping","width":0,"epsilon":-1})");
  EXPECT_EQ(ping.op, "ping");
  EXPECT_EQ(ping.to_json(), R"({"schema":"msoc-rpc-v1","op":"ping"})");
  // Unknown fields are ignored.
  EXPECT_EQ(
      PlanRequest::from_json(
          R"({"schema":"msoc-rpc-v1","op":"frontier","x":[1,{}]})"),
      PlanRequest::from_json(R"({"schema":"msoc-rpc-v1","op":"frontier"})"));
}

TEST(PlanRequest, NonFiniteEpsilonIsRejected) {
  PlanRequest r;
  r.epsilon = std::numeric_limits<double>::infinity();
  EXPECT_NE(rejection([&] { r.validate(); }).find("finite"),
            std::string::npos);
}

}  // namespace
