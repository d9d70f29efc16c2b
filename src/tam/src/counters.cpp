#include "msoc/tam/counters.hpp"

namespace msoc::tam {

PackCounters& pack_counters() noexcept {
  static PackCounters counters;
  return counters;
}

void AdmissionTally::publish() const noexcept {
  PackCounters& counters = pack_counters();
  counters.admission_checks.fetch_add(checks, std::memory_order_relaxed);
  counters.events_visited.fetch_add(visited, std::memory_order_relaxed);
  counters.retries.fetch_add(retries, std::memory_order_relaxed);
}

PackCounterSnapshot snapshot_pack_counters() noexcept {
  const PackCounters& c = pack_counters();
  PackCounterSnapshot s;
  s.admission_checks = c.admission_checks.load(std::memory_order_relaxed);
  s.events_visited = c.events_visited.load(std::memory_order_relaxed);
  s.retries = c.retries.load(std::memory_order_relaxed);
  s.reservations = c.reservations.load(std::memory_order_relaxed);
  return s;
}

void reset_pack_counters() noexcept {
  PackCounters& c = pack_counters();
  c.admission_checks.store(0, std::memory_order_relaxed);
  c.events_visited.store(0, std::memory_order_relaxed);
  c.retries.store(0, std::memory_order_relaxed);
  c.reservations.store(0, std::memory_order_relaxed);
}

}  // namespace msoc::tam
