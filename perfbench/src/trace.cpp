// Span tracer, trace summary and statistics helpers.

#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <fstream>
#include <regex>
#include <stdexcept>

#include "bench.hpp"

namespace perfbench {

namespace {

/// Open spans of the calling thread, innermost last (parent tracking).
thread_local std::vector<int> open_spans;

int thread_index() {
  static std::atomic<int> next{0};
  thread_local const int index = next.fetch_add(1);
  return index;
}

}  // namespace

Tracer::Span::Span(Tracer* tracer, const char* name, long long op)
    : tracer_(tracer) {
  if (tracer_ == nullptr) return;
  {
    const std::lock_guard<std::mutex> lock(tracer_->mutex_);
    record_.id = tracer_->next_id_++;
  }
  record_.parent = open_spans.empty() ? -1 : open_spans.back();
  record_.op = op;
  record_.name = name;
  record_.thread = thread_index();
  open_spans.push_back(record_.id);
  record_.start_us = std::chrono::duration<double, std::micro>(
                         Clock::now() - tracer_->origin_)
                         .count();
}

Tracer::Span::~Span() {
  if (tracer_ == nullptr) return;
  record_.end_us = std::chrono::duration<double, std::micro>(
                       Clock::now() - tracer_->origin_)
                       .count();
  open_spans.pop_back();
  const std::lock_guard<std::mutex> lock(tracer_->mutex_);
  tracer_->records_.push_back(record_);
}

Tracer::Tracer(bool enabled) : enabled_(enabled), origin_(Clock::now()) {}

std::vector<SpanRecord> Tracer::records() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return records_;
}

void Tracer::write_chrome(const std::string& path) const {
  std::vector<SpanRecord> spans = records();
  std::sort(spans.begin(), spans.end(),
            [](const SpanRecord& a, const SpanRecord& b) {
              return a.start_us < b.start_us;
            });
  std::ofstream out(path);
  if (!out) throw std::runtime_error("cannot write trace file " + path);
  out << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
  char buffer[96];
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const SpanRecord& s = spans[i];
    out << (i == 0 ? "\n" : ",\n") << "{\"name\":\"" << s.name
        << "\",\"cat\":\"perfbench\",\"ph\":\"X\",\"pid\":1,\"tid\":"
        << s.thread;
    std::snprintf(buffer, sizeof buffer, ",\"ts\":%.3f,\"dur\":%.3f",
                  s.start_us, s.end_us - s.start_us);
    out << buffer << ",\"args\":{\"id\":" << s.id
        << ",\"parent\":" << s.parent << ",\"op\":" << s.op << "}}";
  }
  out << "\n]}\n";
  if (!out) throw std::runtime_error("short write to trace file " + path);
}

TraceSummary summarize(const std::vector<SpanRecord>& records) {
  std::map<int, const SpanRecord*> by_id;
  std::map<int, double> child_ms;
  for (const SpanRecord& s : records) by_id[s.id] = &s;
  for (const SpanRecord& s : records) {
    if (s.parent >= 0) child_ms[s.parent] += (s.end_us - s.start_us) / 1e3;
  }
  TraceSummary summary;
  for (const SpanRecord& s : records) {
    const double duration_ms = (s.end_us - s.start_us) / 1e3;
    const double self_ms = duration_ms - child_ms[s.id];
    const SpanRecord* root = &s;
    while (root->parent >= 0 && by_id.count(root->parent) != 0) {
      root = by_id[root->parent];
    }
    LayerTotals& layer = summary.layers[s.name];
    ++layer.calls;
    layer.self_ms += self_ms;
    if (std::string_view(root->name) == "op") layer.self_in_op_ms += self_ms;
    if (std::string_view(s.name) == "op") {
      ++summary.ops;
      summary.op_ms += duration_ms;
    }
  }
  return summary;
}

double quantile(std::vector<double> samples, double q) {
  if (samples.empty()) return 0.0;
  std::sort(samples.begin(), samples.end());
  const double position = q * static_cast<double>(samples.size() - 1);
  const auto lower = static_cast<std::size_t>(position);
  const std::size_t upper = std::min(lower + 1, samples.size() - 1);
  const double fraction = position - static_cast<double>(lower);
  return samples[lower] + fraction * (samples[upper] - samples[lower]);
}

double peak_rss_mb() {
  struct rusage usage {};
  ::getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

void add_pack_counters(OpCounters& counters,
                       const msoc::tam::PackCounterSnapshot& before) {
  const msoc::tam::PackCounterSnapshot after =
      msoc::tam::snapshot_pack_counters();
  counters["tam.admission_checks"] +=
      static_cast<double>(after.admission_checks - before.admission_checks);
  counters["tam.events_visited"] +=
      static_cast<double>(after.events_visited - before.events_visited);
  counters["tam.retries"] += static_cast<double>(after.retries - before.retries);
  counters["tam.reservations"] +=
      static_cast<double>(after.reservations - before.reservations);
}

double counter_mean(const std::map<long long, OpCounters>& counters,
                    const std::string& name) {
  double sum = 0.0;
  long long n = 0;
  for (const auto& [op, values] : counters) {
    const auto it = values.find(name);
    if (it == values.end()) continue;
    sum += it->second;
    ++n;
  }
  return n == 0 ? 0.0 : sum / static_cast<double>(n);
}

std::string strip_wall_ms(const std::string& document) {
  static const std::regex wall("\"(total_)?wall_ms\": -?[0-9.eE+-]+");
  return std::regex_replace(document, wall, "\"$1wall_ms\": 0");
}

}  // namespace perfbench
