// daemon_mix: an in-process pland::PlanServer on a Unix socket (2
// worker threads, one shared cache directory) driven by 2 closed-loop
// client threads, each waiting for its reply before sending the next
// request, as `msoc_plan --daemon` clients do.  In the seeded stream,
// one request in three repeats one of a small hot set (answered from
// the reply memo); the rest are cold frontier requests carrying fresh
// synthetic .soc text (16 digital and 5 analog cores, unconstrained,
// default widths).  The only workload through framing, the memo,
// single-flight and the shared cache.

#include <atomic>
#include <cstdio>
#include <filesystem>
#include <memory>
#include <regex>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "bench.hpp"
#include "msoc/common/journal.hpp"
#include "msoc/common/json.hpp"
#include "msoc/common/net.hpp"
#include "msoc/common/rng.hpp"
#include "msoc/pland/server.hpp"
#include "msoc/plan/frontier.hpp"
#include "msoc/soc/benchmarks.hpp"
#include "msoc/soc/digest.hpp"
#include "msoc/soc/itc02.hpp"
#include "msoc/tam/packing.hpp"

namespace perfbench {

namespace {

using msoc::net::FrameResult;
using msoc::net::FrameStatus;
using msoc::net::UnixSocket;
using msoc::plan::PlanService;

constexpr int kWorkers = 2;
constexpr int kClients = 2;
constexpr int kHotSet = 4;
/// Memo hits take 0.1-0.3 ms, mostly thread wake-ups, which on a
/// shared host vary 2x from run to run; with hits in the minority,
/// op_p50_ms and op_p90_ms both fall among cold requests.  The hit
/// path is still timed (hit_p50_ms, pland.hit_p50_ms).
constexpr double kHitFraction = 1.0 / 3.0;
constexpr int kMaxWidth = 64;  // widest of the service's default ladder
/// Stream operations replayed in-process, in id order, when the run
/// collects counters.
constexpr long long kReplayOps = 48;
constexpr int kCheckThreads = 4;

std::string synthetic_soc_text(std::uint64_t seed) {
  msoc::soc::SyntheticSocParams params;
  params.digital_cores = 16;
  params.analog_cores = 5;
  params.seed = seed;
  return msoc::soc::write_soc_string(msoc::soc::make_synthetic_soc(params));
}

std::string frontier_request(const std::string& soc_text) {
  return R"({"schema":"msoc-rpc-v1","op":"frontier","jobs":1,"soc_text":")" +
         msoc::json_escape(soc_text) + "\"}";
}

/// One request of the seeded stream: client `client`'s `k`-th.
struct Request {
  long long id = 0;  ///< k * kClients + client: the replay order.
  bool hit = false;
  int hot = 0;
  std::string soc_text;  ///< Cold requests only.
};

Request stream_request(std::uint64_t seed, int client, long long k) {
  msoc::Rng rng(derive_seed(seed, 10 + static_cast<unsigned>(client),
                            static_cast<std::uint64_t>(k)));
  Request request;
  request.id = k * kClients + client;
  request.hit = rng.uniform01() < kHitFraction;
  request.hot = rng.uniform_int(0, kHotSet - 1);
  if (!request.hit) request.soc_text = synthetic_soc_text(rng.next_u64());
  return request;
}

struct DocumentDigest {
  std::uint64_t document = 0;
  std::uint64_t plan = 0;
};

/// One timed request.  Replies are reduced to a digest as they arrive,
/// so the harness's memory does not grow with the request count.
struct Sample {
  int client = 0;
  long long k = 0;
  long long id = 0;
  bool hit = false;
  int hot = 0;
  double ms = 0.0;
  bool transport_ok = false;
  DocumentDigest digest;
};

/// FNV-1a digests of a reply's planning document: with wall_ms zeroed
/// (what the check compares), and with the evaluation and cache
/// counters zeroed as well (to tell a counter mismatch from a different
/// plan).  Both 0 when the reply is not ok.
DocumentDigest document_digest(const std::string& reply) {
  static const std::regex counters(
      "\"(evaluations|cache_hits|reused|pruned)\": [0-9]+");
  try {
    const msoc::JsonValue root = msoc::parse_json(reply, "reply");
    if (!root.at("ok").as_bool()) return {};
    const std::string document = strip_wall_ms(root.at("document").as_string());
    return {msoc::fnv1a64(document),
            msoc::fnv1a64(std::regex_replace(document, counters, "\"$1\": 0"))};
  } catch (const std::exception&) {
    return {};
  }
}

/// One exchange on a fresh connection; false on a transport failure.
bool call(const std::string& socket_path, const std::string& frame,
          std::string& reply) {
  std::optional<UnixSocket> socket =
      UnixSocket::connect_if_listening(socket_path);
  if (!socket.has_value()) return false;
  socket->send_frame(frame);
  FrameResult result = socket->recv_frame();
  if (result.status != FrameStatus::kOk) return false;
  reply = std::move(result.payload);
  return true;
}

/// Runs `work(i)` for i in [0, n) on a few threads.
template <typename Work>
void parallel_indices(std::size_t n, const Work& work) {
  std::atomic<std::size_t> next{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kCheckThreads; ++t) {
    threads.emplace_back([&] {
      for (std::size_t i = next++; i < n; i = next++) work(i);
    });
  }
  for (std::thread& thread : threads) thread.join();
}

/// Replays the stream prefix through a fresh in-process service (what
/// one worker does per request) and probes each cold request's layers.
void replay(std::uint64_t seed, const std::vector<const Sample*>& prefix,
            const std::vector<std::string>& hot_frames,
            const std::string& cache_dir, Tracer& tracer,
            WorkloadResult& result) {
  std::filesystem::remove_all(cache_dir);
  PlanService service(cache_dir);
  for (const std::string& frame : hot_frames) (void)service.handle(frame);
  double overhead_ms = 0.0;
  long long overhead_n = 0;
  for (const Sample* sample : prefix) {
    const Request request = stream_request(seed, sample->client, sample->k);
    const std::string frame = request.hit
                                  ? hot_frames[static_cast<std::size_t>(request.hot)]
                                  : frontier_request(request.soc_text);
    OpCounters& counters = result.op_counters[request.id];
    const msoc::plan::ServiceStats before_stats = service.stats();
    const long long before_bytes = service.cache()->journal_bytes();
    const long long before_replayed = service.cache()->replayed_records();
    const long long before_compactions = service.cache()->compactions();
    const msoc::tam::PackCounterSnapshot before =
        msoc::tam::snapshot_pack_counters();
    const Clock::time_point start = Clock::now();
    {
      auto span = tracer.span("plan.service", request.id);
      (void)service.handle(frame);
    }
    const double service_ms = ms_since(start);
    // Packing and planning counters are per cold request; a memo hit
    // runs neither.
    if (!request.hit) add_pack_counters(counters, before);
    const msoc::plan::ServiceStats after_stats = service.stats();
    counters["plan.service_runs"] = static_cast<double>(
        after_stats.evaluations - before_stats.evaluations);
    counters["plan.service_memo_hits"] =
        static_cast<double>(after_stats.memo_hits - before_stats.memo_hits);
    counters["plan.cache_journal_bytes"] = static_cast<double>(
        service.cache()->journal_bytes() - before_bytes);
    counters["plan.cache_replayed_records"] = static_cast<double>(
        service.cache()->replayed_records() - before_replayed);
    counters["plan.cache_compactions"] = static_cast<double>(
        service.cache()->compactions() - before_compactions);
    if (request.hit && sample->transport_ok) {
      overhead_ms += sample->ms - service_ms;
      ++overhead_n;
    }
    if (request.hit) continue;

    // Probes: the layers one cold request runs inside the service.
    // Untraced passes run them too, for the same counters.
    auto probe = tracer.span("probe", request.id);
    msoc::soc::Soc soc;
    {
      auto span = tracer.span("soc.parse", request.id);
      soc = msoc::soc::parse_soc_string(request.soc_text, "<rpc soc_text>");
    }
    {
      auto span = tracer.span("soc.digest", request.id);
      (void)msoc::soc::digest_hex(soc);
    }
    msoc::tam::ParetoTables tables;
    {
      auto span = tracer.span("wrapper.staircase", request.id);
      tables = msoc::tam::compute_pareto_tables(soc, kMaxWidth);
    }
    counters["wrapper.staircase_cores"] =
        static_cast<double>(tables.by_core.size());
    msoc::plan::FrontierOptions options;
    options.jobs = 1;
    options.pareto_tables = &tables;
    {
      auto span = tracer.span("mswrap.enumerate", request.id);
      const msoc::plan::PartitionSpace space(soc, options.weights,
                                             options.area_model,
                                             options.policy,
                                             options.enumeration);
      (void)space;
    }
    {
      auto span = tracer.span("tam.pack", request.id);
      msoc::tam::PackingOptions packing;
      packing.pareto_hint = &tables;
      (void)msoc::tam::schedule_soc(soc, kMaxWidth,
                                    msoc::tam::all_share_partition(soc),
                                    packing);
    }
    msoc::plan::FrontierResult plan;
    {
      auto span = tracer.span("plan.solve", request.id);
      msoc::plan::FrontierEngine engine(soc, options);
      plan = engine.run();
    }
    counters["plan.evaluations"] = plan.evaluations;
    counters["mswrap.partitions"] = plan.points.front().total_combinations;
    counters["plan.cache_hits"] = plan.cache_hits;
    counters["plan.pruned"] = plan.pruned;
    {
      auto span = tracer.span("plan.serialize", request.id);
      (void)plan.to_json();
      (void)plan.to_csv();
    }
  }
  if (overhead_n > 0) {
    result.layers["pland.rpc_overhead_ms"] =
        overhead_ms / static_cast<double>(overhead_n);
  }
  std::filesystem::remove_all(cache_dir);
}

}  // namespace

WorkloadResult run_daemon_mix(const RunConfig& config, Tracer& tracer) {
  WorkloadResult result;
  std::vector<std::string> hot_frames;
  for (int i = 0; i < kHotSet; ++i) {
    hot_frames.push_back(frontier_request(
        synthetic_soc_text(derive_seed(config.seed, 5, static_cast<unsigned>(i)))));
  }

  // Set-up: start the server on a fresh cache and warm the hot set.
  std::unique_ptr<msoc::pland::PlanServer> server;
  std::vector<double> setups;
  std::string socket_path;
  std::vector<std::string> warm_replies(hot_frames.size());
  for (int repeat = 0; repeat < kSetupRepeats; ++repeat) {
    if (server) server->stop_and_join();
    server.reset();
    socket_path = config.work_dir + "/d" + std::to_string(repeat) + ".sock";
    const std::string cache_dir = config.work_dir + "/daemon-cache";
    std::filesystem::remove_all(cache_dir);
    const Clock::time_point start = Clock::now();
    msoc::pland::ServerConfig server_config;
    server_config.socket_path = socket_path;
    server_config.threads = kWorkers;
    server_config.cache_dir = cache_dir;
    server = std::make_unique<msoc::pland::PlanServer>(server_config);
    server->start();
    for (std::size_t i = 0; i < hot_frames.size(); ++i) {
      if (!call(socket_path, hot_frames[i], warm_replies[i])) {
        throw std::runtime_error("warming the hot set failed");
      }
    }
    setups.push_back(ms_since(start) / 1e3);
  }
  result.setup_s = quantile(setups, 0.5);
  // A memo hit repeats its warm-up reply byte for byte.
  std::vector<DocumentDigest> warm_digests;
  for (const std::string& reply : warm_replies) {
    warm_digests.push_back(document_digest(reply));
  }
  const msoc::plan::ServiceStats warm_stats = server->service().stats();

  std::vector<std::vector<Sample>> samples(kClients);
  const Clock::time_point started = Clock::now();
  const Clock::time_point deadline =
      started + std::chrono::duration_cast<Clock::duration>(
                    std::chrono::duration<double>(config.seconds));
  {
    std::vector<std::thread> clients;
    for (int c = 0; c < kClients; ++c) {
      clients.emplace_back([&, c] {
        const long long limit =
            config.stream_limits.empty()
                ? -1
                : config.stream_limits[static_cast<std::size_t>(c)];
        for (long long k = 0;; ++k) {
          if (limit >= 0 ? k >= limit : Clock::now() >= deadline) break;
          const Request request = stream_request(config.seed, c, k);
          const auto hot = static_cast<std::size_t>(request.hot);
          const std::string frame = request.hit
                                        ? hot_frames[hot]
                                        : frontier_request(request.soc_text);
          Sample sample;
          sample.client = c;
          sample.k = k;
          sample.id = request.id;
          sample.hit = request.hit;
          sample.hot = request.hot;
          std::string reply;
          const Clock::time_point start = Clock::now();
          {
            auto op_span = tracer.span("op", request.id);
            auto span = tracer.span("pland.roundtrip", request.id);
            try {
              sample.transport_ok = call(socket_path, frame, reply);
            } catch (const std::exception&) {
              sample.transport_ok = false;
            }
          }
          sample.ms = ms_since(start);
          sample.digest = request.hit && reply == warm_replies[hot]
                              ? warm_digests[hot]
                              : document_digest(reply);
          samples[static_cast<std::size_t>(c)].push_back(sample);
        }
      });
    }
    for (std::thread& client : clients) client.join();
  }
  result.busy_s = ms_since(started) / 1e3;
  const msoc::plan::ServiceStats stats = server->service().stats();
  const msoc::pland::ServerStats server_stats = server->stats();
  server->stop_and_join();
  server.reset();
  std::filesystem::remove_all(config.work_dir + "/daemon-cache");

  std::vector<const Sample*> all;
  for (const std::vector<Sample>& stream : samples) {
    result.stream_ops.push_back(static_cast<long long>(stream.size()));
    for (const Sample& sample : stream) all.push_back(&sample);
  }
  std::sort(all.begin(), all.end(), [](const Sample* a, const Sample* b) {
    return a->id < b->id;
  });
  for (const Sample* sample : all) {
    result.op_ms.push_back(sample->ms);
    (sample->hit ? result.hit_ms : result.miss_ms)
        .push_back(sample->ms);
  }

  const long long requests = stats.requests - warm_stats.requests;
  result.layers["pland.memo_hits"] =
      static_cast<double>(stats.memo_hits - warm_stats.memo_hits);
  result.layers["pland.coalesced"] =
      static_cast<double>(stats.coalesced - warm_stats.coalesced);
  result.layers["plan.memo_hit_ratio"] =
      requests > 0 ? static_cast<double>(stats.memo_hits - warm_stats.memo_hits) /
                         static_cast<double>(requests)
                   : 0.0;
  result.layers["pland.busy_rejected"] =
      static_cast<double>(server_stats.busy_rejected);
  result.layers["pland.frame_errors"] =
      static_cast<double>(server_stats.frame_errors);
  result.layers["pland.hit_p50_ms"] = quantile(result.hit_ms, 0.5);
  result.layers["pland.miss_p50_ms"] = quantile(result.miss_ms, 0.5);

  // Correctness, outside the timed phase: every reply ok, and each
  // plan equal to a cacheless in-process evaluation of the same request
  // (the document modulo wall_ms and the evaluation/cache counters).
  PlanService reference;
  std::vector<DocumentDigest> hot_expected;
  for (const std::string& frame : hot_frames) {
    hot_expected.push_back(document_digest(reference.handle(frame)));
  }
  std::vector<const char*> failure(all.size(), nullptr);
  std::vector<char> counters_differ(all.size(), 0);
  parallel_indices(all.size(), [&](std::size_t i) {
    const Sample& sample = *all[i];
    if (!sample.transport_ok) {
      failure[i] = "no reply frame";
    } else if (sample.digest.document == 0) {
      failure[i] = "reply not ok";
    } else {
      const DocumentDigest expected =
          sample.hit ? hot_expected[static_cast<std::size_t>(sample.hot)]
                     : document_digest(reference.handle(frontier_request(
                           stream_request(config.seed, sample.client, sample.k)
                               .soc_text)));
      if (sample.digest.plan != expected.plan) {
        failure[i] = "plan differs from the in-process evaluation";
      } else if (sample.digest.document != expected.document) {
        // With a shared cache the counters report what the cache held at
        // each lookup: a request re-evaluated after its memo entry was
        // evicted, or one whose own records another worker's flush made
        // visible, counts cache hits a cacheless run does not.
        counters_differ[i] = 1;
      }
    }
  });
  long long counter_mismatches = 0;
  for (std::size_t i = 0; i < all.size(); ++i) {
    ++result.attempted;
    const char* kind = all[i]->hit ? "memo hit" : "cold";
    if (counters_differ[i] != 0) {
      ++counter_mismatches;
      std::fprintf(stderr,
                   "daemon_mix: request %lld (%s): same plan, but its "
                   "evaluation/cache counters differ from the in-process "
                   "evaluation\n",
                   all[i]->id, kind);
    }
    if (failure[i] == nullptr) continue;
    ++result.failed;
    std::fprintf(stderr, "daemon_mix: request %lld (%s) failed: %s\n",
                 all[i]->id, kind, failure[i]);
  }
  result.layers["pland.counter_mismatches"] =
      static_cast<double>(counter_mismatches);

  if (config.counters) {
    const std::vector<const Sample*> prefix(
        all.begin(),
        all.begin() + std::min<long long>(kReplayOps,
                                          static_cast<long long>(all.size())));
    replay(config.seed, prefix, hot_frames, config.work_dir + "/replay-cache", tracer,
           result);
  }
  return result;
}

}  // namespace perfbench
