// Reproduces Figure 10: lifetime distribution of the simple wireless-device
// model (Fig. 4) under three battery settings:
//   left set   : C = 500 mAh, c = 1      -- Delta in {25, 2} + simulation
//   middle set : C = 800 mAh, c = 0.625  -- Delta in {25, 2} + simulation
//   right curve: C = 800 mAh, c = 1      -- exact (transform solver,
//                 substituting the paper's uniformisation algorithm [25])
//
// Units are mAh and hours; k = 4.5e-5/s converted to per-hour (0.162/h; the
// paper prints 1.96e-2/h, an arithmetic slip -- see DESIGN.md).
#include <iostream>

#include "bench_common.hpp"
#include "kibamrm/common/units.hpp"
#include "kibamrm/core/approx_solver.hpp"
#include "kibamrm/core/exact_c1.hpp"
#include "kibamrm/core/simulator.hpp"
#include "kibamrm/workload/simple_model.hpp"

int run(kibamrm::common::CliArgs& args) {
  using namespace kibamrm;
  args.declare("csv").declare("full").declare("points").declare("runs");
  args.validate();
  const auto runs = static_cast<std::size_t>(args.get_int("runs", 1000));

  std::cout << "=== Figure 10: simple model lifetime CDF ===\n"
            << "lambda = 2/h, mu = 6/h, tau = 1/h; I = {8, 200, 0} mA\n\n";

  const auto simple = workload::make_simple_model();
  const double k_per_hour = units::per_second_to_per_hour(4.5e-5);
  const auto times = core::uniform_grid(
      0.5, 30.0, static_cast<std::size_t>(args.get_int("points", 60)));

  std::vector<std::string> labels;
  std::vector<core::LifetimeCurve> curves;

  const core::KibamRmModel c500(simple, {.capacity = 500.0,
                                         .available_fraction = 1.0,
                                         .flow_constant = 0.0});
  for (double delta : {25.0, 2.0}) {
    core::MarkovianApproximation solver(c500, {.delta = delta});
    curves.push_back(solver.solve(times));
    labels.push_back("C=500 c=1 D=" + io::format_double(delta, 0));
  }
  curves.push_back(core::MonteCarloSimulator(c500, {.replications = runs})
                       .empty_probability_curve(times));
  labels.push_back("C=500 c=1 sim");

  const core::KibamRmModel c800k(simple, {.capacity = 800.0,
                                          .available_fraction = 0.625,
                                          .flow_constant = k_per_hour});
  for (double delta : {25.0, 2.0}) {
    core::MarkovianApproximation solver(c800k, {.delta = delta});
    curves.push_back(solver.solve(times));
    labels.push_back("C=800 c=.625 D=" + io::format_double(delta, 0));
  }
  curves.push_back(core::MonteCarloSimulator(c800k, {.replications = runs})
                       .empty_probability_curve(times));
  labels.push_back("C=800 c=.625 sim");

  const core::KibamRmModel c800(simple, {.capacity = 800.0,
                                         .available_fraction = 1.0,
                                         .flow_constant = 0.0});
  curves.push_back(core::ExactC1Solver(c800).solve(times));
  labels.push_back("C=800 c=1 exact");

  bench::emit(bench::curves_table("t (h)", times, labels, curves), args,
              "fig10.csv");

  std::cout
      << "Shape checks vs Fig. 10 (paper text): the C=500 battery is >99% "
         "empty after ~17 h; the KiBaM battery surely empty after ~23 h; "
         "the fully available 800 mAh battery after ~25 h.  The middle "
         "curves sit closer to the right curve than to the left set, and "
         "the approximation is better for the single-well (left) setting "
         "than for the two-well (middle) one.\n";
  std::cout << "  p_empty(17 h) C=500 set:  "
            << io::format_double(curves[2].probability_at(17.0), 4) << '\n'
            << "  p_empty(23 h) C=800 kibam: "
            << io::format_double(curves[5].probability_at(23.0), 4) << '\n'
            << "  p_empty(25 h) C=800 exact: "
            << io::format_double(curves[6].probability_at(25.0), 4) << '\n';
  return 0;
}

int main(int argc, char** argv) {
  return kibamrm::common::run_main(argc, argv, run);
}
