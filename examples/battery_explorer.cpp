// battery_explorer: a small CLI around the battery substrate.
//
// Modes (pick one):
//   --lifetime      lifetime of a KiBaM battery under a square wave
//                   (--capacity As --c frac --k 1/s --current A --freq Hz)
//   --trajectory    y1/y2 trace under the same load (--until s --step s)
//   --calibrate     fit k from an observed continuous-load lifetime
//                   (--target-minutes m)
//   --peukert       fit Peukert's law from two (I, L) points and tabulate
//                   (--i1 A --l1 s --i2 A --l2 s)
//
// Defaults reproduce the paper's battery.  Examples:
//   battery_explorer --lifetime --freq 0.01
//   battery_explorer --calibrate --target-minutes 90
#include <iostream>

#include "kibamrm/battery/calibration.hpp"
#include "kibamrm/battery/kibam.hpp"
#include "kibamrm/battery/lifetime.hpp"
#include "kibamrm/battery/peukert.hpp"
#include "kibamrm/common/cli.hpp"
#include "kibamrm/common/units.hpp"
#include "kibamrm/io/table.hpp"

namespace {

using namespace kibamrm;

int run(const common::CliArgs& args) {
  const double capacity = args.get_double("capacity", 7200.0);
  const double c = args.get_double("c", 0.625);
  const double k = args.get_double("k", 4.5e-5);
  const double current = args.get_double("current", 0.96);

  if (args.has("calibrate")) {
    const double target = args.get_double("target-minutes", 90.0);
    const double fitted = battery::calibrate_flow_constant(
        capacity, c, current, units::minutes_to_seconds(target));
    std::cout << "fitted k = " << fitted << " /s for a " << target
              << " min continuous lifetime at " << current << " A\n";
    return 0;
  }

  if (args.has("peukert")) {
    const battery::PeukertLaw law = battery::PeukertLaw::fit(
        args.get_double("i1", 0.5), args.get_double("l1", 16000.0),
        args.get_double("i2", 2.0), args.get_double("l2", 3000.0));
    std::cout << "Peukert fit: a = " << law.a() << ", b = " << law.b()
              << "\n\n";
    io::Table table({"current (A)", "lifetime (s)", "delivered (As)"});
    for (double i : {0.25, 0.5, 1.0, 2.0, 4.0}) {
      table.add_numeric_row({i, law.lifetime(i), law.effective_capacity(i)},
                            1);
    }
    table.print(std::cout);
    return 0;
  }

  const battery::KibamParameters params{capacity, c, c >= 1.0 ? 0.0 : k};
  const double freq = args.get_double("freq", 0.0);
  const battery::LoadProfile profile =
      freq > 0.0 ? battery::LoadProfile::square_wave(freq, current)
                 : battery::LoadProfile::constant(current);

  if (args.has("trajectory")) {
    const double until = args.get_double("until", 12000.0);
    const double step = args.get_double("step", 250.0);
    std::vector<double> times;
    for (double t = 0.0; t <= until; t += step) times.push_back(t);
    battery::KibamBattery model(params);
    io::Table table({"t (s)", "y1 (As)", "y2 (As)"});
    for (const auto& s : battery::record_trajectory(model, profile, times)) {
      table.add_numeric_row({s.time, s.available, s.bound}, 1);
    }
    table.print(std::cout);
    return 0;
  }

  // Default mode: lifetime.
  battery::KibamBattery model(params);
  const auto life =
      battery::compute_lifetime(model, profile, {.max_time = 1e9});
  if (!life) {
    std::cout << "battery survives the 1e9 s horizon under this load\n";
    return 0;
  }
  std::cout << "lifetime: " << *life << " s = "
            << io::format_double(units::seconds_to_minutes(*life), 1)
            << " min (delivered "
            << io::format_double(*life * profile.average_current(*life), 0)
            << " As of " << capacity << " As capacity)\n";
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  return common::run_main(argc, argv, [](common::CliArgs& args) {
    args.declare("lifetime").declare("trajectory").declare("calibrate")
        .declare("peukert").declare("capacity").declare("c").declare("k")
        .declare("current").declare("freq").declare("target-minutes")
        .declare("i1").declare("l1").declare("i2").declare("l2")
        .declare("until").declare("step");
    args.validate();
    return run(args);
  });
}
