#include "msoc/mswrap/partition.hpp"

#include <algorithm>
#include <map>
#include <set>

#include "msoc/common/error.hpp"

namespace msoc::mswrap {

namespace {

std::vector<std::vector<std::size_t>> canonicalize(
    std::vector<std::vector<std::size_t>> groups) {
  for (auto& g : groups) std::sort(g.begin(), g.end());
  std::sort(groups.begin(), groups.end(),
            [](const std::vector<std::size_t>& a,
               const std::vector<std::size_t>& b) {
              if (a.size() != b.size()) return a.size() > b.size();
              return a < b;
            });
  return groups;
}

}  // namespace

Partition::Partition(std::vector<std::vector<std::size_t>> groups)
    : groups_(canonicalize(std::move(groups))) {
  std::set<std::size_t> seen;
  for (const auto& g : groups_) {
    require(!g.empty(), "partition group must be non-empty");
    for (std::size_t idx : g) {
      require(seen.insert(idx).second,
              "core appears in two partition groups");
    }
  }
}

std::size_t Partition::core_count() const {
  std::size_t n = 0;
  for (const auto& g : groups_) n += g.size();
  return n;
}

std::vector<std::size_t> Partition::shape() const {
  std::vector<std::size_t> s;
  s.reserve(groups_.size());
  for (const auto& g : groups_) s.push_back(g.size());
  std::sort(s.begin(), s.end(), std::greater<>());
  return s;
}

std::size_t Partition::shared_group_count() const {
  std::size_t n = 0;
  for (const auto& g : groups_) {
    if (g.size() >= 2) ++n;
  }
  return n;
}

bool Partition::is_no_sharing() const { return shared_group_count() == 0; }

std::string Partition::to_string(const std::vector<std::string>& names,
                                 bool show_singletons) const {
  std::string out;
  for (const auto& g : groups_) {
    if (g.size() < 2 && !show_singletons && !is_no_sharing()) continue;
    if (!out.empty()) out += ' ';
    out += '{';
    for (std::size_t i = 0; i < g.size(); ++i) {
      if (i > 0) out += ',';
      check_invariant(g[i] < names.size(), "core index out of range");
      out += names[g[i]];
    }
    out += '}';
  }
  if (out.empty()) out = "(no sharing)";
  return out;
}

namespace {

/// Enumerates all set partitions of {0..n-1}: element i joins an existing
/// block or opens a new one (recursive restricted-growth construction).
void all_partitions_rec(
    std::size_t next, std::size_t n,
    std::vector<std::vector<std::size_t>>& blocks,
    std::vector<std::vector<std::vector<std::size_t>>>& out) {
  if (next == n) {
    out.push_back(blocks);
    return;
  }
  // Index loop: the recursive call appends/removes a trailing block, so
  // iterators into `blocks` must not be held across it.
  const std::size_t existing = blocks.size();
  for (std::size_t b = 0; b < existing; ++b) {
    blocks[b].push_back(next);
    all_partitions_rec(next + 1, n, blocks, out);
    blocks[b].pop_back();
  }
  blocks.push_back({next});
  all_partitions_rec(next + 1, n, blocks, out);
  blocks.pop_back();
}

void all_partitions(std::size_t n,
                    std::vector<std::vector<std::vector<std::size_t>>>& out) {
  std::vector<std::vector<std::size_t>> blocks;
  all_partitions_rec(0, n, blocks, out);
}

bool paper_shape(const Partition& p) {
  // At most one shared wrapper, or exactly two wrappers in total.
  return p.shared_group_count() <= 1 || p.wrapper_count() == 2;
}

/// Symmetry key: replace each core index by its equivalence-class id.
std::vector<std::vector<std::size_t>> symmetry_key(
    const Partition& p, const std::vector<std::size_t>& class_of) {
  std::vector<std::vector<std::size_t>> key;
  for (const auto& g : p.groups()) {
    std::vector<std::size_t> kg;
    kg.reserve(g.size());
    for (std::size_t idx : g) kg.push_back(class_of[idx]);
    std::sort(kg.begin(), kg.end());
    key.push_back(std::move(kg));
  }
  std::sort(key.begin(), key.end());
  return key;
}

}  // namespace

std::vector<Partition> enumerate_partitions(
    const std::vector<soc::AnalogCore>& cores,
    const EnumerationOptions& options) {
  const std::size_t n = cores.size();
  require(n >= 1, kNoAnalogCoreMessage);
  require(n <= 12, "partition enumeration limited to 12 cores");

  // Equivalence classes of cores with identical test suites.
  std::vector<std::size_t> class_of(n, 0);
  std::vector<std::size_t> representatives;
  for (std::size_t i = 0; i < n; ++i) {
    bool found = false;
    for (std::size_t r = 0; r < representatives.size(); ++r) {
      if (cores[representatives[r]].tests_equivalent(cores[i])) {
        class_of[i] = r;
        found = true;
        break;
      }
    }
    if (!found) {
      class_of[i] = representatives.size();
      representatives.push_back(i);
    }
  }

  std::vector<std::vector<std::vector<std::size_t>>> raw;
  all_partitions(n, raw);

  std::vector<Partition> result;
  std::set<std::vector<std::vector<std::size_t>>> seen_keys;
  for (auto& groups : raw) {
    Partition p(std::move(groups));
    if (p.is_no_sharing() && !options.include_no_sharing) continue;
    if (options.mode == EnumerationMode::kPaperCombinations &&
        !paper_shape(p)) {
      continue;
    }
    if (options.reduce_symmetry) {
      if (!seen_keys.insert(symmetry_key(p, class_of)).second) continue;
    }
    result.push_back(std::move(p));
  }

  // Table-1 order: descending wrapper count (degree of sharing grows down
  // the table), then canonical partition order.
  std::sort(result.begin(), result.end(),
            [](const Partition& a, const Partition& b) {
              if (a.wrapper_count() != b.wrapper_count()) {
                return a.wrapper_count() > b.wrapper_count();
              }
              return a < b;
            });
  return result;
}

unsigned long long bell_number(int n) {
  require(n >= 0 && n <= 20, "bell_number supports n in [0,20]");
  // Bell triangle.
  std::vector<std::vector<unsigned long long>> tri;
  tri.push_back({1});
  for (int i = 1; i <= n; ++i) {
    std::vector<unsigned long long> row;
    row.push_back(tri.back().back());
    for (unsigned long long v : tri.back()) {
      row.push_back(row.back() + v);
    }
    tri.push_back(std::move(row));
  }
  return tri[static_cast<std::size_t>(n)][0];
}

}  // namespace msoc::mswrap
