#include "msoc/soc/benchmarks.hpp"

#include <string>

#include "msoc/common/error.hpp"
#include "msoc/common/rng.hpp"

namespace msoc::soc {

namespace {

AnalogTestSpec test(std::string name, double f_low, double f_high,
                    double f_sample, Cycles cycles, int width) {
  AnalogTestSpec t;
  t.name = std::move(name);
  t.f_low = Hertz(f_low);
  t.f_high = Hertz(f_high);
  t.f_sample = Hertz(f_sample);
  t.cycles = cycles;
  t.tam_width = width;
  t.resolution_bits = 8;
  return t;
}

AnalogCore iq_transmit_core(const std::string& name) {
  AnalogCore c;
  c.name = name;
  c.description = "baseband I-Q transmit path (500 kHz bandwidth)";
  c.tests = {
      test("G_pb", 50e3, 50e3, 1.5e6, 50000, 1),
      test("f_c", 45e3, 55e3, 1.5e6, 13653, 4),
      test("A_1MHz_2MHz", 1e6, 2e6, 8e6, 12643, 2),
      test("IIP3", 50e3, 250e3, 8e6, 26973, 2),
      test("DC_offset", 0.0, 0.0, 10e3, 700, 1),
      test("phase_mismatch", 200e3, 400e3, 15e6, 32000, 4),
  };
  return c;
}

/// Splits `total_cells` into `chains` scan chains with an arithmetic
/// spread of lengths (0.6x..1.4x the mean).  Heterogeneous lengths are
/// what real scan-stitched cores look like, and they let the wrapper
/// BFD balance wrapper chains at every TAM width.
std::vector<int> balanced_chains(int chains, long long total_cells) {
  std::vector<int> out;
  if (chains <= 0 || total_cells <= 0) return out;
  const double mean =
      static_cast<double>(total_cells) / static_cast<double>(chains);
  long long assigned = 0;
  for (int i = 0; i < chains; ++i) {
    const double frac =
        chains == 1 ? 0.5
                    : static_cast<double>(i) / static_cast<double>(chains - 1);
    const long long len =
        std::max<long long>(1, static_cast<long long>(mean * (0.6 + 0.8 * frac)));
    out.push_back(static_cast<int>(len));
    assigned += len;
  }
  // Distribute the rounding remainder over the longest chains.
  long long remainder = total_cells - assigned;
  std::size_t i = out.size();
  while (remainder != 0 && i-- > 0) {
    const long long adjust = remainder > 0 ? 1 : -1;
    if (out[i] + adjust >= 1) {
      out[i] = static_cast<int>(out[i] + adjust);
      remainder -= adjust;
    }
    if (i == 0 && remainder != 0) i = out.size();
  }
  return out;
}

/// The containment path of hierarchy leaf `leaf` in a complete
/// `fanout`-ary tree of the given depth, as a deterministic DFS name
/// prefix ("u2_u0_"): planning consumes the flattened core list, the
/// prefix records which module owned the core before flattening.
std::string hierarchy_prefix(int leaf, int depth, int fanout) {
  std::vector<int> digits(static_cast<std::size_t>(depth));
  for (int d = depth - 1; d >= 0; --d) {
    digits[static_cast<std::size_t>(d)] = leaf % fanout;
    leaf /= fanout;
  }
  std::string prefix;
  for (const int digit : digits) {
    prefix += 'u';
    prefix += std::to_string(digit);
    prefix += '_';
  }
  return prefix;
}

DigitalCore digital(int id, int inputs, int outputs, int bidirs, int chains,
                    long long cells, long long patterns) {
  DigitalCore c;
  c.id = id;
  c.name = "module_" + std::to_string(id);
  c.inputs = inputs;
  c.outputs = outputs;
  c.bidirs = bidirs;
  c.scan_chain_lengths = balanced_chains(chains, cells);
  c.patterns = patterns;
  return c;
}

}  // namespace

std::vector<AnalogCore> table2_analog_cores() {
  std::vector<AnalogCore> cores;
  cores.push_back(iq_transmit_core("A"));
  cores.push_back(iq_transmit_core("B"));

  AnalogCore c;
  c.name = "C";
  c.description = "CODEC audio path (50 kHz bandwidth)";
  c.tests = {
      test("G_pb", 20e3, 20e3, 640e3, 80000, 1),
      test("f_c", 45e3, 55e3, 1.5e6, 136533, 1),
      test("THD", 2e3, 31e3, 2.46e6, 83252, 1),
  };
  cores.push_back(std::move(c));

  AnalogCore d;
  d.name = "D";
  d.description = "baseband down converter";
  d.tests = {
      test("IIP3", 3.25e6, 9.75e6, 78e6, 15754, 10),
      test("G", 26e6, 26e6, 26e6, 9228, 4),
      test("DR", 26e6, 26e6, 26e6, 31508, 4),
  };
  cores.push_back(std::move(d));

  AnalogCore e;
  e.name = "E";
  e.description = "general purpose amplifier";
  e.tests = {
      test("SR", 69e6, 69e6, 69e6, 5400, 5),
      test("G", 8e6, 8e6, 8e6, 2500, 1),
  };
  cores.push_back(std::move(e));
  return cores;
}

Cycles table2_total_cycles() {
  Cycles total = 0;
  for (const AnalogCore& c : table2_analog_cores()) total += c.total_cycles();
  return total;
}

Soc make_d695() {
  // Per-core data as published for the ITC'02 d695 benchmark (ISCAS
  // circuits); see DESIGN.md for provenance notes.
  Soc soc("d695");
  soc.add_digital(digital(1, 32, 32, 0, 0, 0, 12));       // c6288
  soc.add_digital(digital(2, 207, 108, 0, 0, 0, 73));     // c7552
  soc.add_digital(digital(3, 35, 2, 0, 1, 32, 75));       // s838
  soc.add_digital(digital(4, 36, 39, 0, 4, 211, 105));    // s9234
  soc.add_digital(digital(5, 38, 304, 0, 32, 1426, 110)); // s38584
  soc.add_digital(digital(6, 62, 152, 0, 16, 669, 236));  // s13207
  soc.add_digital(digital(7, 77, 150, 0, 16, 534, 95));   // s15850
  soc.add_digital(digital(8, 35, 49, 0, 4, 179, 111));    // s5378
  soc.add_digital(digital(9, 35, 320, 0, 32, 1728, 16));  // s35932
  soc.add_digital(digital(10, 28, 106, 0, 32, 1636, 99)); // s38417
  return soc;
}

Soc make_d695m() {
  Soc soc = make_d695();
  soc.set_name("d695m");
  for (AnalogCore& core : table2_analog_cores()) {
    soc.add_analog(std::move(core));
  }
  return soc;
}

Soc make_p93791() {
  // Reconstruction of the Philips p93791 SOC: 32 modules whose size
  // distribution matches the published aggregate statistics (a handful of
  // very large scan cores dominating, a medium tier, and small glue
  // cores).  Deterministic; see DESIGN.md for the substitution note.
  Soc soc("p93791");

  // Six dominant cores: tens of scan chains, thousands of cells, hundreds
  // of patterns.  These set the SOC's staircase behaviour at small W.
  soc.add_digital(digital(6, 417, 324, 72, 86, 7800, 283));
  soc.add_digital(digital(11, 146, 68, 0, 80, 6400, 494));
  soc.add_digital(digital(17, 136, 12, 72, 78, 5500, 598));
  soc.add_digital(digital(20, 332, 244, 0, 88, 7200, 543));
  soc.add_digital(digital(23, 88, 199, 0, 72, 4600, 715));
  soc.add_digital(digital(27, 209, 32, 72, 92, 8000, 377));

  // Remaining 26 modules drawn deterministically: a medium tier and a
  // small tier.  Fixed seed => identical benchmark on every call.
  Rng rng(0x93791);
  int id = 1;
  int medium_left = 12;
  int small_left = 14;
  while (medium_left + small_left > 0) {
    // Skip ids used by the dominant cores.
    while (id == 6 || id == 11 || id == 17 || id == 20 || id == 23 ||
           id == 27) {
      ++id;
    }
    if (medium_left > 0) {
      const int chains = rng.uniform_int(8, 24);
      const long long cells = rng.uniform_int(900, 2600);
      const long long patterns = rng.uniform_int(234, 676);
      soc.add_digital(digital(id, rng.uniform_int(30, 120),
                              rng.uniform_int(20, 90), 0, chains, cells,
                              patterns));
      --medium_left;
    } else {
      const bool combinational = rng.uniform01() < 0.4;
      const int chains = combinational ? 0 : rng.uniform_int(1, 4);
      const long long cells = combinational ? 0 : rng.uniform_int(60, 320);
      const long long patterns = rng.uniform_int(52, 338);
      soc.add_digital(digital(id, rng.uniform_int(12, 60),
                              rng.uniform_int(8, 48), 0, chains, cells,
                              patterns));
      --small_left;
    }
    ++id;
  }
  return soc;
}

Soc make_p93791m() {
  Soc soc = make_p93791();
  soc.set_name("p93791m");
  for (AnalogCore& core : table2_analog_cores()) {
    soc.add_analog(std::move(core));
  }
  return soc;
}

Soc make_synthetic_soc(const SyntheticSocParams& params) {
  require(params.digital_cores >= 0 && params.analog_cores >= 0,
          "core counts must be non-negative");
  require(params.min_scan_chains >= 0 &&
              params.max_scan_chains >= params.min_scan_chains,
          "bad scan chain range");
  require(params.max_chain_length >= params.min_chain_length &&
              params.min_chain_length > 0,
          "bad chain length range");
  require(params.max_patterns >= params.min_patterns &&
              params.min_patterns >= 1,
          "bad pattern range");
  require(params.max_test_power >= params.min_test_power &&
              params.min_test_power >= 0.0,
          "bad test power range");
  require(params.power_budget_factor >= 0.0,
          "power budget factor must be non-negative");
  require((params.hierarchy_depth > 0) == (params.hierarchy_fanout > 1),
          "hierarchy needs both a depth > 0 and a fanout > 1 (or neither)");
  require(params.hierarchy_depth <= 6 && params.hierarchy_fanout <= 64,
          "hierarchy tree too large");
  const bool with_power = params.max_test_power > 0.0;
  const bool hierarchical = params.hierarchy_depth > 0;
  int leaf_count = 1;
  for (int d = 0; d < params.hierarchy_depth; ++d) {
    leaf_count *= params.hierarchy_fanout;
  }
  Rng rng(params.seed);
  Soc soc("synthetic_" + std::to_string(params.seed));
  for (int i = 1; i <= params.digital_cores; ++i) {
    const int chains =
        rng.uniform_int(params.min_scan_chains, params.max_scan_chains);
    long long cells = 0;
    std::vector<int> lengths;
    for (int c = 0; c < chains; ++c) {
      const int len =
          rng.uniform_int(params.min_chain_length, params.max_chain_length);
      lengths.push_back(len);
      cells += len;
    }
    DigitalCore core;
    core.id = i;
    // Round-robin leaf assignment: pure renaming, no RNG draws, so the
    // flat and hierarchical generators produce identical test data.
    const std::string prefix =
        hierarchical ? hierarchy_prefix((i - 1) % leaf_count,
                                        params.hierarchy_depth,
                                        params.hierarchy_fanout)
                     : std::string();
    core.name = prefix + "syn_" + std::to_string(i);
    core.inputs = rng.uniform_int(8, 128);
    core.outputs = rng.uniform_int(8, 128);
    core.bidirs = 0;
    core.scan_chain_lengths = std::move(lengths);
    core.patterns = static_cast<long long>(rng.uniform_u64(
        static_cast<std::uint64_t>(params.min_patterns),
        static_cast<std::uint64_t>(params.max_patterns)));
    if (with_power) {
      core.power = rng.uniform(params.min_test_power, params.max_test_power);
    }
    soc.add_digital(std::move(core));
  }
  // Analog cores: random subsets of the Table-2 templates, renamed.
  const std::vector<AnalogCore> templates = table2_analog_cores();
  for (int i = 0; i < params.analog_cores; ++i) {
    AnalogCore core =
        templates[rng.uniform_u64(0, templates.size() - 1)];
    core.name = "X" + std::to_string(i + 1);
    // Perturb cycle counts so synthetic cores are not exact duplicates.
    for (AnalogTestSpec& t : core.tests) {
      const double k = rng.uniform(0.6, 1.6);
      t.cycles = static_cast<Cycles>(
          std::max<double>(100.0, static_cast<double>(t.cycles) * k));
      if (with_power) {
        t.power = rng.uniform(params.min_test_power, params.max_test_power);
      }
    }
    soc.add_analog(std::move(core));
  }
  if (with_power && params.power_budget_factor > 0.0) {
    soc.set_max_power(soc.peak_test_power() * params.power_budget_factor);
  }
  return soc;
}

Soc make_scale_soc(int digital_cores, std::uint64_t seed) {
  require(digital_cores >= 1, "a scale rung needs at least one core");
  SyntheticSocParams params;
  params.digital_cores = digital_cores;
  params.analog_cores = 4;  // Bell(4) partitions keep enumeration sane.
  params.seed = seed;
  params.min_scan_chains = 1;
  params.max_scan_chains = 12;
  params.min_chain_length = 20;
  params.max_chain_length = 200;
  params.min_patterns = 10;
  params.max_patterns = 120;
  params.min_test_power = 1.0;
  params.max_test_power = 10.0;
  params.power_budget_factor = 3.0;
  params.hierarchy_depth = 2;
  params.hierarchy_fanout = 8;
  Soc soc = make_synthetic_soc(params);
  soc.set_name("scale_" + std::to_string(digital_cores));
  // The windowed budget sits below the peak budget (sustained 1.8x vs
  // instantaneous 3x peak single-test power), so the window binds where
  // the peak does not — the axis the scale ladder exists to exercise.
  soc.set_power_window({4096, soc.max_power() * 0.6});
  return soc;
}

std::vector<int> scale_ladder_rungs() { return {500, 1000, 2000, 5000}; }

}  // namespace msoc::soc
