// Reproduces Figure 9: on/off model lifetime distribution under three
// initial-capacity scenarios (paper uses Delta = 5):
//   (a) C = 7200 As, c = 1      -- all charge available,
//   (b) C = 7200 As, c = 0.625  -- KiBaM split, k = 4.5e-5/s,
//   (c) C = 4500 As, c = 1      -- only the available fraction exists.
//
// Expected ordering (paper text): (a) lasts longest, (c) shortest, (b) in
// between but closer to (a) than to (c) at the far end.
#include <iostream>

#include "bench_common.hpp"
#include "kibamrm/core/approx_solver.hpp"
#include "kibamrm/core/simulator.hpp"
#include "kibamrm/workload/onoff_model.hpp"

int run(kibamrm::common::CliArgs& args) {
  using namespace kibamrm;
  args.declare("csv").declare("full").declare("points").declare("delta");
  args.validate();
  // c = 1 chains are single-well and cheap: Delta = 5 is fine by default;
  // the two-well scenario (b) costs minutes at Delta = 5, so without
  // --full it runs at Delta = 25.
  const double delta_single = args.get_double("delta", 5.0);
  const double delta_two_well =
      args.get_double("delta", args.has("full") ? 5.0 : 25.0);

  std::cout << "=== Figure 9: on/off model with different initial "
               "capacities ===\n"
            << "single-well Delta = " << delta_single
            << ", two-well Delta = " << delta_two_well
            << (args.has("full") ? "" : "  (pass --full for Delta = 5)")
            << "\n\n";

  const auto onoff = workload::make_onoff_model(
      {.frequency = 1.0, .erlang_k = 1, .on_current = 0.96});
  const auto times = core::uniform_grid(
      6000.0, 20000.0,
      static_cast<std::size_t>(args.get_int("points", 57)));

  std::vector<std::string> labels;
  std::vector<core::LifetimeCurve> curves;

  {
    core::MarkovianApproximation solver(
        core::KibamRmModel(onoff, {.capacity = 4500.0,
                                   .available_fraction = 1.0,
                                   .flow_constant = 0.0}),
        {.delta = delta_single});
    curves.push_back(solver.solve(times));
    labels.push_back("C=4500, c=1");
  }
  {
    core::MarkovianApproximation solver(
        core::KibamRmModel(onoff, {.capacity = 7200.0,
                                   .available_fraction = 0.625,
                                   .flow_constant = 4.5e-5}),
        {.delta = delta_two_well});
    curves.push_back(solver.solve(times));
    labels.push_back("C=7200, c=0.625");
  }
  {
    core::MarkovianApproximation solver(
        core::KibamRmModel(onoff, {.capacity = 7200.0,
                                   .available_fraction = 1.0,
                                   .flow_constant = 0.0}),
        {.delta = delta_single});
    curves.push_back(solver.solve(times));
    labels.push_back("C=7200, c=1");
  }

  bench::emit(bench::curves_table("t (s)", times, labels, curves), args,
              "fig9.csv");

  std::cout << "Shape checks vs Fig. 9: curves ordered left to right as "
               "(C=4500,c=1), (C=7200,c=0.625), (C=7200,c=1) -- the "
               "bound-charge battery recovers part but not all of the "
               "difference to the fully available battery.\n";
  for (std::size_t i = 0; i < labels.size(); ++i) {
    std::cout << "  median[" << labels[i] << "] = "
              << io::format_double(curves[i].median(), 0) << " s\n";
  }
  return 0;
}

int main(int argc, char** argv) {
  return kibamrm::common::run_main(argc, argv, run);
}
