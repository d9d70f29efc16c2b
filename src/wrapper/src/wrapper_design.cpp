#include "msoc/wrapper/wrapper_design.hpp"

#include <algorithm>
#include <functional>
#include <numeric>
#include <utility>

#include "msoc/common/error.hpp"

namespace msoc::wrapper {

Cycles WrapperDesign::test_time(long long patterns) const {
  if (patterns <= 0) return 0;
  const long long longer = std::max(scan_in, scan_out);
  const long long shorter = std::min(scan_in, scan_out);
  // Standard wrapper-chain timing: each pattern shifts in while the
  // previous response shifts out (pipelined), plus one capture cycle per
  // pattern and a final response shift-out.
  return static_cast<Cycles>((1 + longer) * patterns + shorter);
}

namespace {

/// Where padding `cells` wrapper cells one at a time onto the shortest
/// chain (lowest index on ties) leaves the chains: every chain below
/// `level` is raised to it, and `extra` more cells go one each to the
/// lowest-index chains at `level`.
struct FillLevel {
  long long level = 0;
  long long extra = 0;  ///< Always fewer than the chains at `level`.
};

/// Water-fills `cells` onto chains whose lengths are `ascending`: the
/// largest level L with sum over chains of max(0, L - len) <= cells.
FillLevel water_fill(const std::vector<long long>& ascending,
                     long long cells) {
  const std::size_t n = ascending.size();
  long long prefix = 0;  // lengths of the k shortest chains
  for (std::size_t k = 1;; ++k) {
    prefix += ascending[k - 1];
    const auto count = static_cast<long long>(k);
    // Best level with only the k shortest chains below it; the (k+1)-th
    // joins once that level reaches its length.
    const long long level = (cells + prefix) / count;
    if (k == n || level < ascending[k]) {
      return {level, cells + prefix - count * level};
    }
  }
}

/// Design_wrapper for one core, shared by design_wrapper and
/// pareto_widths.  Construction validates the core and fixes the
/// Best-Fit-Decreasing order; design() then costs O(chains log width)
/// for the scan chains and O(width log width) for the functional cells,
/// and reuses its buffers from one width to the next.
class WrapperKernel {
 public:
  explicit WrapperKernel(const soc::DigitalCore& core)
      : core_(core),
        // Bidirectional terminals contribute a cell to both directions.
        input_cells_(static_cast<long long>(core.inputs) + core.bidirs),
        output_cells_(static_cast<long long>(core.outputs) + core.bidirs) {
    core.validate();
    order_.resize(core.scan_chain_lengths.size());
    std::iota(order_.begin(), order_.end(), 0);
    std::sort(order_.begin(), order_.end(), [&core](int a, int b) {
      const int la = core.scan_chain_lengths[static_cast<std::size_t>(a)];
      const int lb = core.scan_chain_lengths[static_cast<std::size_t>(b)];
      if (la != lb) return la > lb;
      return a < b;  // deterministic tie-break
    });
  }

  /// Designs the wrapper at `width` into `out`.  Chain contents (scan
  /// chain ids and per-chain cells) are filled only when `record_chains`
  /// is set; scan_in and scan_out always are.
  void design(int width, WrapperDesign& out, bool record_chains) {
    const auto w = static_cast<std::size_t>(width);
    out.width = width;
    out.chains.clear();
    if (record_chains) out.chains.resize(w);

    // --- Step 1: scan chains, Best Fit Decreasing on chain length. ---
    // The first `width` scan chains land on the empty wrapper chains in
    // index order; after that a min-heap on (length, index) yields the
    // shortest wrapper chain, lowest index on ties.
    scan_.assign(w, 0);
    const auto place = [&](int id, std::size_t chain) {
      scan_[chain] += core_.scan_chain_lengths[static_cast<std::size_t>(id)];
      if (record_chains) out.chains[chain].scan_chain_ids.push_back(id);
    };
    const std::size_t direct = std::min(w, order_.size());
    for (std::size_t c = 0; c < direct; ++c) place(order_[c], c);
    if (direct < order_.size()) {
      heap_.clear();
      for (std::size_t c = 0; c < w; ++c) heap_.emplace_back(scan_[c], c);
      std::make_heap(heap_.begin(), heap_.end(), std::greater<>());
      for (std::size_t i = direct; i < order_.size(); ++i) {
        std::pop_heap(heap_.begin(), heap_.end(), std::greater<>());
        const std::size_t shortest = heap_.back().second;
        place(order_[i], shortest);
        heap_.back().first = scan_[shortest];
        std::push_heap(heap_.begin(), heap_.end(), std::greater<>());
      }
    }

    // --- Step 2: functional cells pad the shortest chains. ---
    ascending_ = scan_;
    std::sort(ascending_.begin(), ascending_.end());
    const FillLevel in_fill = water_fill(ascending_, input_cells_);
    const FillLevel out_fill = water_fill(ascending_, output_cells_);
    const long long longest = ascending_.back();
    out.scan_in =
        std::max(longest, in_fill.level + (in_fill.extra > 0 ? 1 : 0));
    out.scan_out =
        std::max(longest, out_fill.level + (out_fill.extra > 0 ? 1 : 0));
    if (!record_chains) return;

    // Chains at or below a level end at it; the extra cells go to the
    // lowest-index ones.
    long long in_extra = in_fill.extra;
    long long out_extra = out_fill.extra;
    const auto pad = [](const FillLevel& fill, long long& extra,
                        long long length) {
      if (length > fill.level) return 0;
      long long cells = fill.level - length;
      if (extra > 0) {
        ++cells;
        --extra;
      }
      return static_cast<int>(cells);
    };
    for (std::size_t c = 0; c < w; ++c) {
      WrapperChain& chain = out.chains[c];
      chain.scan_length = scan_[c];
      chain.input_cells = pad(in_fill, in_extra, scan_[c]);
      chain.output_cells = pad(out_fill, out_extra, scan_[c]);
    }
  }

 private:
  const soc::DigitalCore& core_;
  long long input_cells_;
  long long output_cells_;
  std::vector<int> order_;            ///< Scan chain ids, BFD order.
  std::vector<long long> scan_;       ///< Scan cells per wrapper chain.
  std::vector<long long> ascending_;  ///< scan_, sorted.
  /// (scan cells, wrapper chain) min-heap for BFD.
  std::vector<std::pair<long long, std::size_t>> heap_;
};

}  // namespace

WrapperDesign design_wrapper(const soc::DigitalCore& core, int width) {
  require(width >= 1, "wrapper width must be >= 1");
  WrapperDesign design;
  WrapperKernel(core).design(width, design, /*record_chains=*/true);
  return design;
}

std::vector<ParetoPoint> pareto_widths(const soc::DigitalCore& core,
                                       int max_width) {
  require(max_width >= 1, "max width must be >= 1");
  WrapperKernel kernel(core);
  WrapperDesign d;
  std::vector<ParetoPoint> points;
  Cycles best = 0;
  for (int w = 1; w <= max_width; ++w) {
    kernel.design(w, d, /*record_chains=*/false);
    const Cycles t = d.test_time(core.patterns);
    if (points.empty() || t < best) {
      points.push_back(ParetoPoint{w, t});
      best = t;
    }
  }
  return points;
}

}  // namespace msoc::wrapper
