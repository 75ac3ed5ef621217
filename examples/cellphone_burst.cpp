// Send-buffering policy study for a cell-phone-like device (the question
// behind Fig. 11 of the paper, asked the way a product team would).
//
// Policy A ("eager", the simple model): transmit data as it arrives.
// Policy B ("buffered", the burst model): accumulate data and send it in
// condensed bursts, letting the device sleep between bursts.  Both policies
// move the same average amount of data (the burst rate is calibrated so
// the steady-state send probability matches).
//
// Output: the full lifetime distributions under a KiBaM battery, the
// quantiles a spec sheet would quote, and the policy recommendation.
#include <iostream>

#include "kibamrm/common/cli.hpp"
#include "kibamrm/common/units.hpp"
#include "kibamrm/core/approx_solver.hpp"
#include "kibamrm/io/table.hpp"
#include "kibamrm/markov/steady_state.hpp"
#include "kibamrm/workload/burst_model.hpp"
#include "kibamrm/workload/simple_model.hpp"

int run(kibamrm::common::CliArgs& args) {
  args.validate();
  using namespace kibamrm;

  const auto eager = workload::make_simple_model();
  const auto buffered = workload::make_burst_model();

  std::cout << "Policy comparison: eager vs buffered sending\n"
            << "  same send share: eager 0.25, buffered "
            << io::format_double(workload::burst_send_probability(buffered),
                                 4)
            << '\n'
            << "  average draw:    eager "
            << io::format_double(eager.steady_state_current(), 1)
            << " mA, buffered "
            << io::format_double(buffered.steady_state_current(), 1)
            << " mA (sleep pays)\n\n";

  const battery::KibamParameters battery{
      800.0, 0.625, units::per_second_to_per_hour(4.5e-5)};
  const auto times = core::uniform_grid(1.0, 36.0, 71);

  core::MarkovianApproximation solve_eager(
      core::KibamRmModel(eager, battery), {.delta = 5.0});
  core::MarkovianApproximation solve_buffered(
      core::KibamRmModel(buffered, battery), {.delta = 5.0});
  const auto curve_eager = solve_eager.solve(times);
  const auto curve_buffered = solve_buffered.solve(times);

  io::Table table({"metric", "eager", "buffered"});
  const auto row = [&](const std::string& name, double a, double b) {
    table.add_row({name, io::format_double(a, 2), io::format_double(b, 2)});
  };
  row("median lifetime (h)", curve_eager.median(), curve_buffered.median());
  row("5% quantile (h)", curve_eager.quantile(0.05),
      curve_buffered.quantile(0.05));
  row("95% quantile (h)", curve_eager.quantile(0.95),
      curve_buffered.quantile(0.95));
  row("Pr[dead at 20 h]", curve_eager.probability_at(20.0),
      curve_buffered.probability_at(20.0));
  row("mean lifetime (h)", curve_eager.mean_estimate(),
      curve_buffered.mean_estimate());
  table.print(std::cout);

  std::cout << "\nRecommendation: buffering wins in the upper half of the "
               "distribution (longer typical lifetime thanks to sleep), at "
               "the price of a slightly heavier fast-depletion tail -- the "
               "condensed bursts can hit an unlucky battery hard early.  "
               "Quote the 5% quantile accordingly.\n";
  return 0;
}

int main(int argc, char** argv) {
  return kibamrm::common::run_main(argc, argv, run);
}
