#include "msoc/plan/pipeline.hpp"

#include <algorithm>
#include <limits>
#include <map>

#include "msoc/common/error.hpp"
#include "msoc/common/logging.hpp"
#include "msoc/common/parallel.hpp"
#include "msoc/soc/digest.hpp"

namespace msoc::plan {

// --- Stage 1: partition enumeration. ---

PartitionSpace::PartitionSpace(const soc::Soc& soc,
                               const CostWeights& weights,
                               const mswrap::WrapperAreaModel& area_model,
                               const mswrap::SharingPolicy& policy,
                               const mswrap::EnumerationOptions& enumeration)
    : all_share(std::vector<std::vector<std::size_t>>{
          [&soc] {
            std::vector<std::size_t> everyone(soc.analog_count());
            for (std::size_t i = 0; i < everyone.size(); ++i) everyone[i] = i;
            return everyone;
          }()}) {
  std::vector<mswrap::SharingEvaluation> all = mswrap::evaluate_combinations(
      soc.analog_cores(), area_model, policy, enumeration);
  for (mswrap::SharingEvaluation& e : all) {
    if (!e.feasible) {
      log_debug("combination ", e.label, " dropped: sharing policy");
      continue;
    }
    PartitionCell cell;
    cell.prelim = preliminary_cost(weights, e);
    cell.analog_lb = e.analog_lb_cycles;
    cell.key_full =
        partition_key(soc.analog_cores(), e.partition, /*powered=*/true);
    cell.key_packing =
        partition_key(soc.analog_cores(), e.partition, /*powered=*/false);
    cell.evaluation = std::move(e);
    cells.push_back(std::move(cell));
  }
  require(!cells.empty(), "no feasible sharing combination");

  all_share_key_full =
      partition_key(soc.analog_cores(), all_share, /*powered=*/true);
  all_share_key_packing =
      partition_key(soc.analog_cores(), all_share, /*powered=*/false);

  // Fig. 3 lines 1-8: shape groups in sorted-shape order, members in
  // enumeration order, representative = first Eq. 3 minimum.  Stage 3
  // reduces in this order, so it fixes how ties between equal-cost
  // combinations resolve.
  std::map<std::vector<std::size_t>, std::vector<std::size_t>> by_shape;
  for (std::size_t i = 0; i < cells.size(); ++i) {
    by_shape[cells[i].evaluation.partition.shape()].push_back(i);
  }
  for (const auto& [shape, members] : by_shape) {
    PartitionGroup group;
    group.members = members;
    double best_prelim = std::numeric_limits<double>::infinity();
    for (const std::size_t index : members) {
      if (cells[index].prelim < best_prelim) {
        best_prelim = cells[index].prelim;
        group.representative = index;
      }
    }
    groups.push_back(std::move(group));
  }
}

std::vector<bool> PartitionSpace::classify_clean(
    const soc::Soc& soc, const soc::DigestDelta& delta,
    bool packing_flavor) const {
  const soc::DigestSetDelta& digital =
      packing_flavor ? delta.digital_packing : delta.digital;
  const soc::DigestSetDelta& analog =
      packing_flavor ? delta.analog_packing : delta.analog;

  // Every partition's makespan depends on the full digital test load
  // (digital and analog tests pack onto the same TAM), so ANY digital
  // change — edit, add, remove — dirties every cell.  all_clean also
  // rejects analog add/remove cheaply; without it the per-member check
  // below would still be sound (keys over different core counts can
  // never collide), but an all-dirty verdict is the honest one.
  const bool context_clean = digital.all_clean() &&
                             analog.dirty_old.size() ==
                                 analog.dirty_new.size();
  std::vector<bool> clean(cells.size(), false);
  if (!context_clean) return clean;

  std::vector<std::uint64_t> member_digest;
  member_digest.reserve(soc.analog_count());
  for (const soc::AnalogCore& core : soc.analog_cores()) {
    member_digest.push_back(packing_flavor ? soc::packing_core_digest(core)
                                           : soc::core_digest(core));
  }
  for (std::size_t i = 0; i < cells.size(); ++i) {
    bool cell_clean = true;
    for (const std::vector<std::size_t>& group :
         cells[i].evaluation.partition.groups()) {
      for (const std::size_t index : group) {
        if (analog.is_dirty(member_digest[index])) {
          cell_clean = false;
          break;
        }
      }
      if (!cell_clean) break;
    }
    clean[i] = cell_clean;
  }
  return clean;
}

// --- Stage 2: digest-keyed makespan resolution. ---

PartitionEvaluator::PartitionEvaluator(
    const soc::Soc& soc, const PartitionSpace& space, ResultCache* cache,
    const std::string& digest, const std::string& baseline_digest,
    const std::string& fingerprint, int width,
    const tam::PackingOptions& packing, bool trust_cache,
    const std::vector<bool>* clean, int jobs)
    : soc_(soc),
      space_(space),
      cache_(cache),
      digest_(digest),
      baseline_digest_(baseline_digest),
      fingerprint_(fingerprint),
      width_(width),
      packing_(packing),
      powered_(packing.max_power > 0.0 || packing.window_cycles > 0),
      trust_cache_(trust_cache),
      clean_(clean),
      jobs_(jobs),
      time_of_(space.cells.size()) {}

ResultCache::EntryKey PartitionEvaluator::entry_key(
    const std::string& partition_key) const {
  return ResultCache::EntryKey{width_, packing_.max_power, fingerprint_,
                               partition_key, packing_.window_cycles,
                               packing_.window_limit};
}

const tam::Schedule& PartitionEvaluator::baseline() {
  if (!baseline_.has_value()) {
    baseline_ = tam::schedule_soc(
        soc_, width_,
        mswrap::to_analog_partition(soc_.analog_cores(), space_.all_share),
        packing_);
    check_invariant(baseline_->makespan() > 0, "T_max must be positive");
  }
  return *baseline_;
}

std::optional<Cycles> PartitionEvaluator::lookup(const std::string& key,
                                                 const std::string& label,
                                                 bool cell_clean) {
  if (cache_ == nullptr || !trust_cache_) return std::nullopt;
  const ResultCache::EntryKey entry = entry_key(key);
  if (std::optional<Cycles> hit = cache_->lookup(digest_, entry)) {
    ++cache_hits_;
    return hit;
  }
  if (baseline_digest_.empty() || !cell_clean) return std::nullopt;
  if (std::optional<Cycles> hit = cache_->lookup(baseline_digest_, entry)) {
    // The splice: a baseline result valid for this revision is
    // re-recorded under the CURRENT digest, so one flush materializes
    // a complete up-to-date store.
    cache_->record(digest_, entry, label, *hit);
    ++reused_;
    return hit;
  }
  return std::nullopt;
}

Cycles PartitionEvaluator::begin_cell() {
  // The all-share partition contains every analog core, so its entry
  // may be reused exactly when every cell's may (each cell also covers
  // all cores — sharing partitions cover the whole core set).
  const bool all_share_clean =
      clean_ != nullptr && !clean_->empty() &&
      std::all_of(clean_->begin(), clean_->end(), [](bool c) { return c; });
  const std::string& key =
      powered_ ? space_.all_share_key_full : space_.all_share_key_packing;
  const std::string label = space_.all_share.to_string(
      mswrap::core_names(soc_.analog_cores()), true);
  // t_max hits are deliberately not counted in cache_hits/reused — the
  // baseline is the normalization constant, not a combination
  // evaluation (matches the paper's evaluation counting).
  const int hits = cache_hits_;
  const int reused = reused_;
  std::optional<Cycles> stored = lookup(key, label, all_share_clean);
  cache_hits_ = hits;
  reused_ = reused;
  if (stored.has_value()) {
    // Loading validated test_time >= 1, so the baseline is usable as a
    // divisor; whether it is *correct* is re-checked against a fresh
    // pack before the first fresh combination pack (see resolve()).
    t_max_ = *stored;
    t_max_from_store_ = true;
  } else {
    t_max_ = baseline().makespan();
    if (cache_ != nullptr) {
      cache_->record(digest_, entry_key(key), label, t_max_);
    }
  }
  return t_max_;
}

void PartitionEvaluator::resolve(const std::vector<std::size_t>& indices) {
  std::vector<std::size_t> misses;
  for (const std::size_t index : indices) {
    if (time_of_[index].has_value()) continue;
    const PartitionCell& cell = space_.cells[index];
    const bool cell_clean = clean_ != nullptr && (*clean_)[index];
    const std::optional<Cycles> hit =
        lookup(powered_ ? cell.key_full : cell.key_packing,
               cell.evaluation.label, cell_clean);
    // A stored time above the baseline contradicts the packer's
    // serialized-fallback guarantee: the store is stale for this
    // width, so stop trusting it and recompute.
    if (hit.has_value() && *hit > t_max_) throw StaleCacheError{};
    if (hit.has_value()) {
      time_of_[index] = *hit;
      continue;
    }
    misses.push_back(index);
  }
  if (misses.empty()) return;
  const tam::Schedule& all_share = baseline();
  if (t_max_from_store_ && all_share.makespan() != t_max_) {
    // The stored baseline disagrees with a fresh pack: every stored
    // value for this width is suspect, including ones already consumed
    // by representative/elimination decisions — restart the width
    // without the stores.
    throw StaleCacheError{};
  }
  // Every fresh pack skips repacking the merged arrangement its
  // serialized fallback races: it is this very baseline schedule.
  tam::PackingOptions hinted = packing_;
  hinted.serialized_hint = &all_share;
  std::vector<Cycles> packed(misses.size());
  parallel_for(misses.size(), jobs_, [&](std::size_t i) {
    const mswrap::Partition& partition =
        space_.cells[misses[i]].evaluation.partition;
    if (partition == space_.all_share) {
      packed[i] = t_max_;
      return;
    }
    const tam::AnalogPartition analog =
        mswrap::to_analog_partition(soc_.analog_cores(), partition);
    packed[i] = tam::schedule_soc(soc_, width_, analog, hinted).makespan();
  });
  for (std::size_t i = 0; i < misses.size(); ++i) {
    const PartitionCell& cell = space_.cells[misses[i]];
    if (cell.evaluation.partition != space_.all_share) ++evaluations_;
    time_of_[misses[i]] = packed[i];
    if (cache_ != nullptr) {
      cache_->record(
          digest_, entry_key(powered_ ? cell.key_full : cell.key_packing),
          cell.evaluation.label, packed[i]);
    }
  }
}

}  // namespace msoc::plan
