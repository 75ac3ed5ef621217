// Sensor-node duty-cycling study.
//
// A wireless sensor samples and transmits in duty cycles.  The radio draws
// a fixed current while on; the node is otherwise quiescent.  Energy folk
// wisdom says only the duty cycle matters -- but a kinetic battery also
// cares *how* the on-time is distributed: many short wake-ups leave the
// available-charge well shallowly depleted, while long burst windows drive
// it deep before the bound charge can follow.
//
// This example sweeps the wake-up frequency at a fixed 50% duty cycle and
// reports (a) the deterministic KiBaM lifetime under an exact square wave
// and (b) the lifetime distribution when the wake-ups are random
// (exponential phases, the paper's on/off model), including the spread a
// deployment engineer should plan for.
#include <iostream>
#include <vector>

#include "kibamrm/common/cli.hpp"
#include "kibamrm/battery/kibam.hpp"
#include "kibamrm/battery/lifetime.hpp"
#include "kibamrm/core/simulator.hpp"
#include "kibamrm/io/table.hpp"
#include "kibamrm/workload/onoff_model.hpp"

int run(kibamrm::common::CliArgs& args) {
  args.validate();
  using namespace kibamrm;

  // AA-class cell from the paper's measurements: 7200 As, c = 0.625,
  // k = 4.5e-5/s; radio draw 0.96 A.
  const battery::KibamParameters cell{7200.0, 0.625, 4.5e-5};
  const double radio_current = 0.96;

  std::cout << "Sensor node, 50% duty cycle, radio " << radio_current
            << " A, cell 7200 As (c = 0.625, k = 4.5e-5/s)\n\n";

  io::Table table({"wake-up freq (Hz)", "deterministic lifetime (min)",
                   "random: mean (min)", "random: stddev (min)",
                   "random: 5% quantile (min)"});
  for (double f : {1.0, 0.1, 0.01, 0.001, 0.0001}) {
    // (a) exact square wave.
    battery::KibamBattery deterministic(cell);
    const double det_life =
        battery::compute_lifetime(deterministic,
                                  battery::LoadProfile::square_wave(
                                      f, radio_current),
                                  {.max_time = 1e8})
            .value() /
        60.0;

    // (b) random on/off phases at the same frequency (K = 1).
    const core::KibamRmModel model(
        workload::make_onoff_model({.frequency = f, .erlang_k = 1,
                                    .on_current = radio_current}),
        cell);
    core::MonteCarloSimulator sim(model, {.replications = 600, .seed = 7});
    const auto dist = sim.run();

    table.add_numeric_row({f, det_life, dist.mean() / 60.0,
                           dist.stddev() / 60.0,
                           dist.quantile(0.05) / 60.0},
                          3);
  }
  table.print(std::cout);

  std::cout
      << "\nReadings:\n"
      << "  - The deterministic KiBaM lifetime is frequency-independent at "
         "50% duty until the period approaches the well-relaxation time "
         "1/k' ~ 1.6 h; very slow cycles (0.0001 Hz) strand bound charge "
         "and cost lifetime.\n"
      << "  - Random wake-ups at the same average duty add spread: plan "
         "deployments on the 5% quantile, not the mean.\n";
  return 0;
}

int main(int argc, char** argv) {
  return kibamrm::common::run_main(argc, argv, run);
}
