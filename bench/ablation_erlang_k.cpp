// Ablation: the Erlang-K remark of Sec. 6.1.
//
// "We also evaluated the battery lifetime of the on/off-model for better
// approximations to the deterministic on- and off-times, that is, for
// K > 1 ... While the lifetime distribution obtained from simulation gets
// even closer to a deterministic one for increasing K, the values computed
// by the approximation algorithm do not change visibly."
//
// This bench quantifies both halves: the simulated lifetime's standard
// deviation shrinks with K, while the approximation's curve (at a fixed
// Delta) stays put.
#include <iostream>

#include "bench_common.hpp"
#include "kibamrm/core/approx_solver.hpp"
#include "kibamrm/core/simulator.hpp"
#include "kibamrm/workload/onoff_model.hpp"

int run(kibamrm::common::CliArgs& args) {
  using namespace kibamrm;
  args.declare("csv").declare("full").declare("runs").declare("delta");
  args.validate();
  const auto runs = static_cast<std::size_t>(args.get_int("runs", 1000));
  const double delta = args.get_double("delta", 25.0);

  std::cout << "=== Ablation: Erlang-K on/off phases (Sec. 6.1 remark) "
               "===\n\n";

  const std::vector<int> ks =
      args.has("full") ? std::vector<int>{1, 2, 4, 8, 16}
                       : std::vector<int>{1, 2, 4, 8};

  io::Table table({"K", "sim mean (s)", "sim stddev (s)",
                   "approx median (s)", "approx p(14500)", "approx p(15500)"});
  core::LifetimeCurve* previous = nullptr;
  std::vector<core::LifetimeCurve> kept;
  const auto times = core::uniform_grid(12000.0, 18000.0, 49);
  for (int k : ks) {
    const core::KibamRmModel model(
        workload::make_onoff_model({.frequency = 1.0, .erlang_k = k,
                                    .on_current = 0.96}),
        {.capacity = 7200.0, .available_fraction = 1.0,
         .flow_constant = 0.0});
    core::MonteCarloSimulator sim(model, {.replications = runs});
    const auto dist = sim.run();
    core::MarkovianApproximation approx(model, {.delta = delta});
    kept.push_back(approx.solve(times));
    const auto& curve = kept.back();
    table.add_row({std::to_string(k), io::format_double(dist.mean(), 0),
                   io::format_double(dist.stddev(), 0),
                   io::format_double(curve.median(), 0),
                   io::format_double(curve.probability_at(14500.0), 4),
                   io::format_double(curve.probability_at(15500.0), 4)});
    previous = &kept.back();
  }
  (void)previous;
  bench::emit(table, args, "erlang_k.csv");

  // Maximal pairwise difference between approximation curves across K.
  double worst = 0.0;
  for (std::size_t i = 1; i < kept.size(); ++i) {
    worst = std::max(worst, kept[i].max_difference(kept[0]));
  }
  std::cout << "Simulated stddev shrinks ~ 1/sqrt(K) (deterministic limit); "
               "approximation curves differ by at most "
            << io::format_double(worst, 4)
            << " across K -- 'do not change visibly', as the paper says.\n";
  return 0;
}

int main(int argc, char** argv) {
  return kibamrm::common::run_main(argc, argv, run);
}
