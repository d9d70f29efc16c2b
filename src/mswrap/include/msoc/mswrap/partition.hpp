#pragma once
// Wrapper-sharing combinations as set partitions.
//
// A sharing combination assigns every analog core to exactly one analog
// test wrapper — a set partition of the core set.  The paper evaluates 26
// combinations for its five cores; that count arises from two reductions
// we implement explicitly:
//
//  1. Symmetry: cores with identical test suites (A and B, the I-Q pair)
//     are interchangeable, so partitions that differ only by an A<->B
//     relabeling are the same combination.
//  2. Shape restriction ("paper mode"): the paper enumerates partitions
//     with at most one shared wrapper, or exactly two wrappers in total —
//     shapes (2,1,1,1), (3,1,1), (4,1), (3,2), (5).  Shapes such as
//     (2,2,1) are omitted there; enumerate_partitions can produce the
//     complete lattice as an extension.
//
// Partitions use core indices; groups and the group list are kept in a
// canonical sorted order so partitions compare and hash cheaply.

#include <cstddef>
#include <string>
#include <string_view>
#include <vector>

#include "msoc/soc/core.hpp"

namespace msoc::mswrap {

/// One sharing combination: groups of core indices.  Canonical form:
/// each group ascending; groups ordered by (descending size, ascending
/// first member).
class Partition {
 public:
  Partition() = default;
  explicit Partition(std::vector<std::vector<std::size_t>> groups);

  [[nodiscard]] const std::vector<std::vector<std::size_t>>& groups() const {
    return groups_;
  }
  [[nodiscard]] std::size_t wrapper_count() const { return groups_.size(); }
  [[nodiscard]] std::size_t core_count() const;

  /// Sorted group sizes, descending — the partition "shape", e.g. {3,2}.
  [[nodiscard]] std::vector<std::size_t> shape() const;

  /// Number of groups with 2+ members.
  [[nodiscard]] std::size_t shared_group_count() const;

  /// True when no wrapper is shared (all singletons).
  [[nodiscard]] bool is_no_sharing() const;

  /// Paper-style rendering using `names`, e.g. "{A,B,E} {C,D}".
  /// Singleton groups are omitted (as in the paper's tables) unless
  /// `show_singletons` is set.
  [[nodiscard]] std::string to_string(const std::vector<std::string>& names,
                                      bool show_singletons = false) const;

  friend bool operator==(const Partition&, const Partition&) = default;
  friend auto operator<=>(const Partition&, const Partition&) = default;

 private:
  std::vector<std::vector<std::size_t>> groups_;
};

enum class EnumerationMode {
  kPaperCombinations,  ///< Shapes (m,1,...,1) and two-group shapes.
  kAllPartitions,      ///< The full partition lattice (Bell numbers).
};

struct EnumerationOptions {
  EnumerationMode mode = EnumerationMode::kPaperCombinations;
  /// Collapse partitions equivalent under interchangeable cores.
  bool reduce_symmetry = true;
  /// Include the all-singletons (no sharing) baseline.
  bool include_no_sharing = false;
};

/// The one message an SOC without analog cores is rejected with, by
/// enumerate_partitions and by every planning entry point.
inline constexpr std::string_view kNoAnalogCoreMessage =
    "mixed-signal planning needs at least one analog core";

/// Enumerates sharing combinations for `cores`.  Symmetry classes are
/// derived from AnalogCore::tests_equivalent.  Deterministic order:
/// ascending wrapper-count... descending degree of sharing mirrors the
/// paper's Table 1 (fewest wrappers last).
[[nodiscard]] std::vector<Partition> enumerate_partitions(
    const std::vector<soc::AnalogCore>& cores,
    const EnumerationOptions& options = {});

/// Bell number B(n) for n <= 20 (used by tests and scaling benches).
[[nodiscard]] unsigned long long bell_number(int n);

}  // namespace msoc::mswrap
