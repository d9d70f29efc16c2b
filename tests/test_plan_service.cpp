// PlanService tests: envelope validation, byte-identity of served
// documents against the engines they wrap, the response memo, and the
// single-flight coalescing contract (N identical concurrent requests,
// ONE evaluation).  Everything runs in-process — the socket transport
// has its own suites (test_net, test_pland).

#include "msoc/plan/service.hpp"

#include <gtest/gtest.h>

#include <filesystem>
#include <regex>
#include <string>
#include <thread>
#include <vector>

#include "msoc/common/json.hpp"
#include "msoc/plan/frontier.hpp"
#include "msoc/soc/benchmarks.hpp"

namespace {

using msoc::JsonValue;
using msoc::parse_json;
using msoc::plan::PlanService;
using msoc::plan::ServiceLimits;
using msoc::plan::ServiceStats;

/// Zeroes the wall-clock fields — the only nondeterministic bytes in
/// any planning document (mirrors the golden corpus normalization).
std::string normalize(const std::string& document) {
  static const std::regex wall("\"(total_)?wall_ms\": -?[0-9.eE+-]+");
  return std::regex_replace(document, wall, "\"$1wall_ms\": 0");
}

JsonValue reply_of(PlanService& service, const std::string& request) {
  return parse_json(service.handle(request), "service reply");
}

TEST(PlanService, PingAndShutdownEnvelopes) {
  PlanService service;
  const JsonValue ping =
      reply_of(service, R"({"schema":"msoc-rpc-v1","op":"ping"})");
  EXPECT_TRUE(ping.at("ok").as_bool());
  EXPECT_EQ(ping.at("op").as_string(), "ping");
  EXPECT_FALSE(service.shutdown_requested());

  const JsonValue shutdown =
      reply_of(service, R"({"schema":"msoc-rpc-v1","op":"shutdown"})");
  EXPECT_TRUE(shutdown.at("ok").as_bool());
  EXPECT_TRUE(service.shutdown_requested());
}

TEST(PlanService, MalformedRequestsBecomeErrorEnvelopes) {
  PlanService service;
  const std::vector<std::string> bad = {
      "not json at all",
      "{\"schema\":\"msoc-rpc-v1\"}",                    // no op
      R"({"schema":"msoc-rpc-v2","op":"ping"})",         // wrong schema
      R"({"schema":"msoc-rpc-v1","op":"launch"})",       // unknown op
      R"({"schema":"msoc-rpc-v1","op":"plan","bench":"p99999"})",
      R"({"schema":"msoc-rpc-v1","op":"plan","width":0})",
      R"({"schema":"msoc-rpc-v1","op":"plan","wt":1.5})",
      R"({"schema":"msoc-rpc-v1","op":"plan","max_powers":[100,200]})",
      R"({"schema":"msoc-rpc-v1","op":"plan","bench":"d695m","soc_text":"x"})",
      R"({"schema":"msoc-rpc-v1","op":"plan","replan_from":"ab"})",
  };
  for (const std::string& request : bad) {
    const JsonValue reply = reply_of(service, request);
    EXPECT_FALSE(reply.at("ok").as_bool()) << request;
    EXPECT_FALSE(reply.at("error").as_string().empty()) << request;
  }
  const ServiceStats stats = service.stats();
  EXPECT_EQ(stats.errors, static_cast<long long>(bad.size()));
  EXPECT_EQ(stats.evaluations, 0);  // none of these reached an engine
}

TEST(PlanService, RejectionsCarryTheValidatorsMessage) {
  // The same words msoc_plan prints for --replan-from on a single plan:
  // both surfaces reject through PlanRequest::validate.
  PlanService service;
  const JsonValue reply = reply_of(
      service,
      R"({"schema":"msoc-rpc-v1","op":"plan","bench":"d695m",)"
      R"("replan_from":"ab"})");
  EXPECT_FALSE(reply.at("ok").as_bool());
  EXPECT_EQ(reply.at("error").as_string(),
            "replan_from needs a sweep or frontier request");
}

TEST(PlanService, FrontierDocumentMatchesTheEngine) {
  PlanService service;
  const JsonValue reply = reply_of(
      service,
      R"({"schema":"msoc-rpc-v1","op":"frontier","bench":"d695m",)"
      R"("widths":[16,32]})");
  ASSERT_TRUE(reply.at("ok").as_bool());

  const msoc::soc::Soc soc = msoc::soc::make_d695m();
  msoc::plan::FrontierOptions options;
  options.widths = {16, 32};
  msoc::plan::FrontierEngine engine(soc, options);
  const msoc::plan::FrontierResult expected = engine.run();

  EXPECT_EQ(normalize(reply.at("document").as_string()),
            normalize(expected.to_json()));
  // The CSV carries a raw wall_ms column; compare its stable header.
  const std::string csv = reply.at("csv").as_string();
  EXPECT_EQ(csv.substr(0, csv.find('\n')),
            expected.to_csv().substr(0, expected.to_csv().find('\n')));
}

TEST(PlanService, RepeatedRequestHitsTheMemoBitIdentically) {
  PlanService service;
  const std::string request =
      R"({"schema":"msoc-rpc-v1","op":"plan","bench":"d695m","width":16})";
  const std::string first = service.handle(request);
  const std::string second = service.handle(request);
  // Byte-identical INCLUDING wall_ms: the memo pins the first reply.
  EXPECT_EQ(first, second);
  const ServiceStats stats = service.stats();
  EXPECT_EQ(stats.requests, 2);
  EXPECT_EQ(stats.evaluations, 1);
  EXPECT_EQ(stats.memo_hits, 1);
  EXPECT_EQ(stats.plan_requests, 2);
}

TEST(PlanService, ConcurrentIdenticalRequestsCoalesceToOneEvaluation) {
  PlanService service;
  const std::string request =
      R"({"schema":"msoc-rpc-v1","op":"frontier","bench":"d695m"})";
  constexpr int kClients = 8;
  std::vector<std::string> replies(kClients);
  std::vector<std::thread> clients;
  clients.reserve(kClients);
  for (int i = 0; i < kClients; ++i) {
    clients.emplace_back(
        [&service, &request, &replies, i] {
          replies[static_cast<std::size_t>(i)] = service.handle(request);
        });
  }
  for (std::thread& t : clients) t.join();

  for (int i = 1; i < kClients; ++i) {
    EXPECT_EQ(replies[static_cast<std::size_t>(i)], replies[0]);
  }
  const ServiceStats stats = service.stats();
  EXPECT_EQ(stats.requests, kClients);
  EXPECT_EQ(stats.evaluations, 1);  // the coalescing contract
  EXPECT_EQ(stats.memo_hits + stats.coalesced, kClients - 1);
  EXPECT_EQ(stats.errors, 0);
}

TEST(PlanService, SocTextPlansAndMemoizesByContent) {
  PlanService service;
  // Two envelopes, same .soc content: the second must memo-hit.
  const std::string soc_text =
      "SocName tiny\n"
      "Module 1 core1\n"
      "  Inputs 8\n"
      "  Outputs 8\n"
      "  ScanChains 2\n"
      "  Patterns 10\n"
      "AnalogModule A \"amp\"\n"
      "  Test G FLow 1e6 FHigh 1e6 FSample 8e6 Cycles 2000 Width 2 "
      "Resolution 8\n"
      "AnalogModule B \"buffer\"\n"
      "  Test SR FLow 2e6 FHigh 2e6 FSample 8e6 Cycles 3000 Width 2 "
      "Resolution 8\n";
  const std::string request =
      R"({"schema":"msoc-rpc-v1","op":"plan","width":16,"soc_text":")" +
      msoc::json_escape(soc_text) + "\"}";
  const JsonValue first = reply_of(service, request);
  ASSERT_TRUE(first.at("ok").as_bool())
      << first.at("error").as_string();
  EXPECT_NE(first.at("document").as_string().find("\"soc\": \"tiny\""),
            std::string::npos);
  (void)service.handle(request);
  const ServiceStats stats = service.stats();
  EXPECT_EQ(stats.evaluations, 1);
  EXPECT_EQ(stats.memo_hits, 1);
}

TEST(PlanService, EvaluationErrorsAreNotMemoized) {
  PlanService service;
  const std::string request =
      R"({"schema":"msoc-rpc-v1","op":"plan","soc_text":"garbage content"})";
  const JsonValue first = reply_of(service, request);
  EXPECT_FALSE(first.at("ok").as_bool());
  const JsonValue second = reply_of(service, request);
  EXPECT_FALSE(second.at("ok").as_bool());
  const ServiceStats stats = service.stats();
  EXPECT_EQ(stats.evaluations, 2);  // an error never serves from memo
  EXPECT_EQ(stats.errors, 2);
  EXPECT_EQ(stats.memo_hits, 0);
}

TEST(PlanService, JobsCapBoundsTheReportedFanout) {
  ServiceLimits limits;
  limits.jobs_cap = 2;
  PlanService service("", limits);
  const JsonValue reply = reply_of(
      service,
      R"({"schema":"msoc-rpc-v1","op":"plan","bench":"d695m","jobs":64})");
  ASSERT_TRUE(reply.at("ok").as_bool());
  const JsonValue document =
      parse_json(reply.at("document").as_string(), "plan document");
  EXPECT_EQ(document.at("jobs").as_number(), 2.0);
}

TEST(PlanService, StatsReplyReportsTheSharedCache) {
  const auto dir = std::filesystem::temp_directory_path() /
                   "msoc_service_cache_test";
  std::filesystem::remove_all(dir);
  {
    PlanService service(dir.string());
    ASSERT_NE(service.cache(), nullptr);
    (void)service.handle(
        R"({"schema":"msoc-rpc-v1","op":"frontier","bench":"d695m",)"
        R"("widths":[16]})");
    const JsonValue stats = reply_of(
        service, R"({"schema":"msoc-rpc-v1","op":"stats"})");
    ASSERT_TRUE(stats.at("ok").as_bool());
    EXPECT_EQ(stats.at("evaluations").as_number(), 1.0);
    const JsonValue& cache = stats.at("cache");
    EXPECT_EQ(cache.at("directory").as_string(), dir.string());
    EXPECT_EQ(cache.at("corrupt_files").as_number(), 0.0);
    EXPECT_GT(cache.at("records").as_number(), 0.0);
  }
  // A second service over the same directory sees the flushed store:
  // the same request becomes pure cache hits (zero optimizer runs show
  // up as evaluations in the DOCUMENT; the service evaluates once).
  {
    PlanService service(dir.string());
    const JsonValue reply = reply_of(
        service,
        R"({"schema":"msoc-rpc-v1","op":"frontier","bench":"d695m",)"
        R"("widths":[16]})");
    ASSERT_TRUE(reply.at("ok").as_bool());
    const JsonValue document =
        parse_json(reply.at("document").as_string(), "frontier document");
    EXPECT_EQ(document.at("evaluations").as_number(), 0.0);
    EXPECT_GT(document.at("cache_hits").as_number(), 0.0);
  }
  std::filesystem::remove_all(dir);
}

TEST(PlanService, CachelessSweepMatchesDefaultBenchmarkDocument) {
  PlanService service;
  const JsonValue reply = reply_of(
      service,
      R"({"schema":"msoc-rpc-v1","op":"sweep","bench":"d695m",)"
      R"("widths":[16,32],"wt":0.5})");
  ASSERT_TRUE(reply.at("ok").as_bool());
  const JsonValue document =
      parse_json(reply.at("document").as_string(), "sweep document");
  // A cacheless service writes the all-zero cache block standalone
  // msoc_plan writes — the byte-identity contract.
  EXPECT_EQ(document.at("schema").as_string(), "msoc-sweep-v5");
  EXPECT_EQ(document.at("cache").at("hits").as_number(), 0.0);
  EXPECT_EQ(document.at("cases").as_array().size(), 2u);
}

}  // namespace
