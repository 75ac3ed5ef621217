// Reproduces Figure 11: lifetime distribution of the simple model vs the
// burst model (C = 800 mAh, c = 0.625, Delta = 5).
//
// The burst model condenses send activity (lambda_burst = 182/h chosen so
// its steady-state send probability matches the simple model's 1/4) and
// sleeps more; its battery outlives the simple model's at every probe in
// the upper half of the distribution (paper: 95% vs 89% empty at 20 h).
#include <iostream>

#include "bench_common.hpp"
#include "kibamrm/common/units.hpp"
#include "kibamrm/core/approx_solver.hpp"
#include "kibamrm/core/simulator.hpp"
#include "kibamrm/markov/steady_state.hpp"
#include "kibamrm/workload/burst_model.hpp"
#include "kibamrm/workload/simple_model.hpp"

int run(kibamrm::common::CliArgs& args) {
  using namespace kibamrm;
  args.declare("csv").declare("full").declare("points").declare("delta");
  args.validate();
  const double delta = args.get_double("delta", 5.0);

  std::cout << "=== Figure 11: simple vs burst model (C = 800 mAh, "
               "c = 0.625, Delta = " << delta << ") ===\n\n";

  const auto simple = workload::make_simple_model();
  const auto burst = workload::make_burst_model();
  std::cout << "Calibration check: burst send probability = "
            << io::format_double(workload::burst_send_probability(burst), 4)
            << " (simple model: 0.25); steady currents "
            << io::format_double(burst.steady_state_current(), 2) << " vs "
            << io::format_double(simple.steady_state_current(), 2)
            << " mA.\n\n";

  const battery::KibamParameters batt{
      800.0, 0.625, units::per_second_to_per_hour(4.5e-5)};
  const auto times = core::uniform_grid(
      0.5, 30.0, static_cast<std::size_t>(args.get_int("points", 60)));

  std::vector<std::string> labels;
  std::vector<core::LifetimeCurve> curves;
  {
    core::MarkovianApproximation solver(core::KibamRmModel(simple, batt),
                                        {.delta = delta});
    curves.push_back(solver.solve(times));
    labels.push_back("simple model");
  }
  {
    core::MarkovianApproximation solver(core::KibamRmModel(burst, batt),
                                        {.delta = delta});
    curves.push_back(solver.solve(times));
    labels.push_back("burst model");
  }

  bench::emit(bench::curves_table("t (h)", times, labels, curves), args,
              "fig11.csv");

  std::cout << "Shape checks vs Fig. 11: the burst curve lies right of the "
               "simple curve over the main rise.\n"
            << "  p_empty(20 h): simple = "
            << io::format_double(curves[0].probability_at(20.0), 4)
            << " (paper ~0.95), burst = "
            << io::format_double(curves[1].probability_at(20.0), 4)
            << " (paper ~0.89)\n";
  return 0;
}

int main(int argc, char** argv) {
  return kibamrm::common::run_main(argc, argv, run);
}
