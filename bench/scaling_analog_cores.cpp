// Scaling study: the paper argues exhaustive evaluation "is unlikely to
// be feasible for larger SOCs since the number of distinct combinations
// increases exponentially with the number of analog cores".  This bench
// measures exactly that: combinations and Cost_Optimizer evaluations as
// analog cores are added to a synthetic SOC.

#include <chrono>
#include <cstdio>

#include "msoc/common/table.hpp"
#include "msoc/mswrap/partition.hpp"
#include "msoc/plan/frontier.hpp"
#include "msoc/soc/benchmarks.hpp"

int main() {
  using namespace msoc;
  std::puts("=== Scaling: combinations vs analog core count ===\n");

  TextTable table({"analog cores", "Bell(n)", "combinations", "N (heur)",
                   "%R", "heuristic ms"});
  table.set_alignment({Align::kRight, Align::kRight, Align::kRight,
                       Align::kRight, Align::kRight, Align::kRight});

  for (int n = 2; n <= 7; ++n) {
    soc::SyntheticSocParams params;
    params.digital_cores = 12;
    params.analog_cores = n;
    params.seed = 40 + static_cast<std::uint64_t>(n);
    const soc::Soc soc = soc::make_synthetic_soc(params);

    const auto combos =
        mswrap::enumerate_partitions(soc.analog_cores());

    plan::FrontierOptions options;
    options.widths = {32};

    const auto start = std::chrono::steady_clock::now();
    plan::FrontierEngine engine(soc, options);
    const plan::FrontierPoint r = engine.run().points.front();
    const auto elapsed = std::chrono::duration_cast<std::chrono::milliseconds>(
        std::chrono::steady_clock::now() - start);

    // Fig. 3's N: the runs made plus the ones the lower bound skipped.
    const int heuristic_n = r.evaluations + r.pruned;
    table.add_row({std::to_string(n),
                   std::to_string(mswrap::bell_number(n)),
                   std::to_string(combos.size()),
                   std::to_string(heuristic_n),
                   fixed(plan::evaluation_reduction_percent(
                             heuristic_n, r.total_combinations),
                         1),
                   std::to_string(elapsed.count())});
  }
  std::fputs(table.to_string().c_str(), stdout);
  std::puts("\n(combinations = paper-mode enumeration after symmetry "
            "reduction; N = TAM-optimizer runs the heuristic needs)");
  return 0;
}
