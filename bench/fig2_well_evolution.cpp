// Reproduces Figure 2: evolution of the available-charge (y1) and
// bound-charge (y2) wells under a square-wave load of f = 0.001 Hz,
// I = 0.96 A, C = 7200 As, c = 0.625, k = 4.5e-5/s.
#include <iostream>

#include "bench_common.hpp"
#include "kibamrm/battery/kibam.hpp"
#include "kibamrm/battery/lifetime.hpp"

int run(kibamrm::common::CliArgs& args) {
  using namespace kibamrm;
  args.declare("csv").declare("full").declare("step");
  args.validate();
  const double step = args.get_double("step", 100.0);

  std::cout << "=== Figure 2: well evolution, f = 0.001 Hz square wave ===\n"
            << "C = 7200 As, c = 0.625, k = 4.5e-5/s, I = 0.96 A\n\n";

  battery::KibamBattery model({7200.0, 0.625, 4.5e-5});
  std::vector<double> times;
  for (double t = 0.0; t <= 12500.0; t += step) times.push_back(t);
  const auto samples = battery::record_trajectory(
      model, battery::LoadProfile::square_wave(0.001, 0.96), times);

  io::Table table({"t (s)", "y1 (As)", "y2 (As)"});
  for (const auto& sample : samples) {
    table.add_numeric_row({sample.time, sample.available, sample.bound}, 1);
  }
  bench::emit(table, args, "fig2.csv");

  std::cout << "Shape checks vs the paper's plot: y1 starts at 4500 and "
               "saw-tooths downward (drops in on-phases, recovers in "
               "off-phases); y2 starts at 2700 and decreases monotonically, "
               "faster over time; depletion shortly after t = 12000 s.\n"
            << "Battery empty at t = " << samples.back().time << " s (y1 = "
            << samples.back().available << ").\n";
  return 0;
}

int main(int argc, char** argv) {
  return kibamrm::common::run_main(argc, argv, run);
}
