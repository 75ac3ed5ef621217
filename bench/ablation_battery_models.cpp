// Ablation: battery-law comparison across the models of Sec. 2/3 plus the
// cited Rakhmatov-Vrudhula diffusion model [2].
//
// All models are normalised to the same total charge (7200 As) and, where
// a recovery parameter exists, calibrated to the same continuous-load
// lifetime at 0.96 A.  The sweep then shows how each law extrapolates to
// other currents and to pulsed operation -- the spread is exactly why the
// paper argues battery-aware evaluation needs a physical model rather than
// a C/I rule.
#include <cmath>
#include <iostream>

#include "bench_common.hpp"
#include "kibamrm/battery/calibration.hpp"
#include "kibamrm/battery/ideal.hpp"
#include "kibamrm/battery/kibam.hpp"
#include "kibamrm/battery/lifetime.hpp"
#include "kibamrm/battery/peukert.hpp"
#include "kibamrm/battery/rakhmatov_vrudhula.hpp"
#include "kibamrm/common/units.hpp"

namespace {

using namespace kibamrm;

double minutes(std::optional<double> seconds) {
  return seconds ? units::seconds_to_minutes(*seconds) : -1.0;
}

}  // namespace

int run(kibamrm::common::CliArgs& args) {
  args.declare("csv").declare("full");
  args.validate();

  std::cout << "=== Ablation: battery laws under equal calibration ===\n"
            << "total charge 7200 As; KiBaM and R-V calibrated to 90 min at "
               "0.96 A continuous\n\n";

  // KiBaM: c from [9], k fitted to 90 min at 0.96 A.
  const double k = battery::calibrate_flow_constant(
      7200.0, 0.625, 0.96, units::minutes_to_seconds(90.0));
  const battery::KibamParameters kibam_params{7200.0, 0.625, k};

  // R-V: beta fitted by bisection to the same anchor.
  double beta_lo = 1e-4;
  double beta_hi = 1.0;
  for (int i = 0; i < 100; ++i) {
    const double beta = std::sqrt(beta_lo * beta_hi);
    const double life = battery::rv_constant_load_lifetime(
                            {7200.0, beta, 20}, 0.96)
                            .value();
    // Larger beta -> faster diffusion -> longer lifetime.
    if (life < units::minutes_to_seconds(90.0)) {
      beta_lo = beta;
    } else {
      beta_hi = beta;
    }
  }
  const battery::RakhmatovVrudhulaParameters rv_params{
      7200.0, std::sqrt(beta_lo * beta_hi), 20};
  std::cout << "fitted R-V beta = " << rv_params.beta << " /sqrt(s)\n";

  // Peukert: fitted through the ideal point at low current and the
  // calibration anchor.
  const battery::PeukertLaw peukert = battery::PeukertLaw::fit(
      0.1, 72000.0, 0.96, units::minutes_to_seconds(90.0));
  std::cout << "fitted Peukert a = " << peukert.a()
            << ", b = " << peukert.b() << "\n\n";

  io::Table table({"load", "ideal C/I (min)", "Peukert (min)", "KiBaM (min)",
                   "R-V (min)"});
  const auto add_constant_row = [&](double current) {
    battery::IdealBattery ideal(7200.0);
    battery::KibamBattery kibam(kibam_params);
    battery::RakhmatovVrudhulaBattery rv(rv_params);
    const auto profile = battery::LoadProfile::constant(current);
    table.add_row({
        "constant " + io::format_double(current, 2) + " A",
        io::format_double(minutes(compute_lifetime(ideal, profile)), 0),
        io::format_double(units::seconds_to_minutes(
                              peukert.lifetime(current)),
                          0),
        io::format_double(minutes(compute_lifetime(kibam, profile)), 0),
        io::format_double(minutes(compute_lifetime(rv, profile)), 0),
    });
  };
  add_constant_row(0.48);
  add_constant_row(0.96);
  add_constant_row(1.92);

  // Pulsed loads: Peukert has no defined answer (the paper's point), so
  // that column shows the average-current fallacy L(a * I_avg^-b).
  for (double f : {1.0, 0.01}) {
    battery::IdealBattery ideal(7200.0);
    battery::KibamBattery kibam(kibam_params);
    battery::RakhmatovVrudhulaBattery rv(rv_params);
    const auto profile = battery::LoadProfile::square_wave(f, 0.96);
    const battery::LifetimeOptions opts{.max_time = 1e8};
    table.add_row({
        "square " + io::format_double(f, 2) + " Hz",
        io::format_double(minutes(compute_lifetime(ideal, profile, opts)), 0),
        io::format_double(
            units::seconds_to_minutes(peukert.lifetime(0.48)), 0),
        io::format_double(minutes(compute_lifetime(kibam, profile, opts)), 0),
        io::format_double(minutes(compute_lifetime(rv, profile, opts)), 0),
    });
  }
  kibamrm::bench::emit(table, args, "battery_models.csv");

  std::cout
      << "Readings: the ideal battery is load-independent (125 min at "
         "0.96 A); Peukert bends the constant-load curve but (applied to "
         "the average current) cannot distinguish pulse frequencies; KiBaM "
         "and R-V agree at the calibration point by construction and both "
         "deliver more charge under pulsed operation, with different "
         "relaxation spectra (single-rate well vs diffusion modes) driving "
         "their remaining disagreement.\n";
  return 0;
}

int main(int argc, char** argv) {
  return kibamrm::common::run_main(argc, argv, run);
}
