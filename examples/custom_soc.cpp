// Build your own mixed-signal SOC: construct cores through the public
// API, write/read the ITC'02-style .soc format, and plan its test.
//
// The scenario: a small consumer-audio SOC (the paper's motivating
// domain) with four digital cores, a stereo CODEC path and a class-D
// output amplifier.

#include <cstdio>
#include <sstream>

#include "msoc/plan/frontier.hpp"
#include "msoc/soc/itc02.hpp"
#include "msoc/testsim/replay.hpp"

namespace {

msoc::soc::DigitalCore digital(int id, const char* name, int inputs,
                               int outputs, std::vector<int> chains,
                               long long patterns) {
  msoc::soc::DigitalCore c;
  c.id = id;
  c.name = name;
  c.inputs = inputs;
  c.outputs = outputs;
  c.scan_chain_lengths = std::move(chains);
  c.patterns = patterns;
  return c;
}

msoc::soc::AnalogTestSpec spec(const char* name, double f_low, double f_high,
                               double fs, msoc::Cycles cycles, int width) {
  msoc::soc::AnalogTestSpec t;
  t.name = name;
  t.f_low = msoc::Hertz(f_low);
  t.f_high = msoc::Hertz(f_high);
  t.f_sample = msoc::Hertz(fs);
  t.cycles = cycles;
  t.tam_width = width;
  return t;
}

}  // namespace

int main() {
  using namespace msoc;

  // --- assemble the SOC through the API ---
  soc::Soc audio("audio_soc");
  audio.add_digital(digital(1, "dsp_core", 64, 64,
                            {120, 110, 100, 96, 90, 84}, 220));
  audio.add_digital(digital(2, "usb_if", 40, 36, {64, 60}, 140));
  audio.add_digital(digital(3, "sram_bist", 20, 16, {200, 190, 180}, 90));
  audio.add_digital(digital(4, "control", 24, 24, {48}, 60));

  soc::AnalogCore codec_l;
  codec_l.name = "L";
  codec_l.description = "left CODEC channel";
  codec_l.tests = {spec("G_pb", 1e3, 20e3, 640e3, 60000, 1),
                   spec("THD", 1e3, 20e3, 2.46e6, 45000, 1),
                   spec("SNR", 1e3, 20e3, 640e3, 30000, 2)};
  soc::AnalogCore codec_r = codec_l;
  codec_r.name = "R";
  codec_r.description = "right CODEC channel";
  soc::AnalogCore amp;
  amp.name = "PA";
  amp.description = "class-D output amplifier";
  amp.tests = {spec("G", 1e3, 20e3, 1.5e6, 12000, 2),
               spec("efficiency", 1e3, 1e3, 1.5e6, 8000, 1)};
  audio.add_analog(codec_l);
  audio.add_analog(codec_r);
  audio.add_analog(amp);

  // --- round-trip through the .soc format ---
  const std::string text = soc::write_soc_string(audio);
  std::printf("serialized SOC description: %zu bytes\n", text.size());
  const soc::Soc loaded = soc::parse_soc_string(text, "audio_soc.soc");
  std::printf("re-parsed: %zu digital + %zu analog cores\n\n",
              loaded.digital_count(), loaded.analog_count());

  // --- plan at a narrow consumer-grade TAM ---
  plan::FrontierOptions options;
  options.widths = {8, 16};
  options.weights = {0.4, 0.6};  // area matters in this market
  options.exhaustive = true;
  plan::FrontierEngine engine(loaded, options);
  for (const plan::FrontierPoint& best : engine.run().points) {
    const tam::Schedule schedule = engine.schedule(best);
    const testsim::ReplayReport replay = testsim::replay(loaded, schedule);

    std::printf("W=%-2d best plan %-14s cost %.1f, makespan %llu cycles, "
                "%s\n",
                best.tam_width, best.best.label.c_str(), best.best.total,
                static_cast<unsigned long long>(schedule.makespan()),
                replay.clean() ? "replay OK" : "REPLAY FAILED");
  }

  // The identical L/R channels halve the combination count via symmetry:
  const auto combos = mswrap::enumerate_partitions(loaded.analog_cores());
  std::printf("\nsharing combinations after symmetry reduction: %zu\n",
              combos.size());
  return 0;
}
