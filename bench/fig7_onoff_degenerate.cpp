// Reproduces Figure 7: battery lifetime distribution for the on/off model
// with the degenerate battery (all charge available): f = 1 Hz, K = 1,
// C = 7200 As, c = 1, k = 0, I = 0.96 A.
//
// Series: Markovian approximation for Delta in {100, 50, 25, 5} and a
// 1000-run simulation, exactly the paper's set.  Also prints the expanded
// state counts and uniformisation iteration counts quoted in Sec. 6.1
// (2882 states and >36000 iterations for t = 17000 at Delta = 5).
// --engine selects the transient backend.
#include <chrono>
#include <iostream>

#include "bench_common.hpp"
#include "kibamrm/core/approx_solver.hpp"
#include "kibamrm/core/exact_c1.hpp"
#include "kibamrm/core/simulator.hpp"
#include "kibamrm/engine/transient_backend.hpp"
#include "kibamrm/workload/onoff_model.hpp"

int run(kibamrm::common::CliArgs& args) {
  using namespace kibamrm;
  args.declare("csv").declare("full").declare("points").declare("delta")
      .declare("runs").declare("engine").declare("json").declare("threads")
      .declare("no-fuse").declare("no-detect").declare("kernels")
      .declare("reorder").declare("tile-mb").declare("spill-dir")
      .declare("shards");
  args.validate();
  bench::apply_kernel_choice(args);
  const std::string engine =
      args.get_choice("engine", "uniformization", engine::backend_names());
  const auto threads =
      static_cast<std::size_t>(args.get_nonnegative_int("threads", 0));

  std::cout << "=== Figure 7: on/off lifetime CDF (C = 7200 As, c = 1, "
               "k = 0; engine = " << engine << ") ===\n\n";

  const core::KibamRmModel model(
      workload::make_onoff_model({.frequency = 1.0, .erlang_k = 1,
                                  .on_current = 0.96}),
      {.capacity = 7200.0, .available_fraction = 1.0, .flow_constant = 0.0});

  const auto times = core::uniform_grid(
      6000.0, 20000.0,
      static_cast<std::size_t>(args.get_int("points", 57)));

  const std::vector<double> deltas =
      args.get_double_list("delta", {100.0, 50.0, 25.0, 5.0});

  bench::BenchReport report("fig7");
  std::vector<std::string> labels;
  std::vector<core::LifetimeCurve> curves;
  for (double delta : deltas) {
    core::ApproximationOptions options{
        .delta = delta, .engine = engine, .threads = threads};
    bench::apply_engine_tuning(args, options);
    const auto run = bench::run_approximation(model, options, times);
    if (run.skipped) continue;
    curves.push_back(*run.curve);
    labels.push_back("Delta=" + io::format_double(delta, 0));
    std::cout << "Delta = " << delta << ": " << run.stats.expanded_states
              << " states, " << run.stats.generator_nonzeros
              << " nonzeros, " << run.stats.uniformization_iterations
              << " iterations (q = "
              << io::format_double(run.stats.uniformization_rate, 3)
              << ")\n";
    bench::add_engine_record(report, run, delta)
        .field("threads", bench::resolved_thread_count(engine, threads));
  }
  std::cout << "Paper quotes for Delta = 5: 2882 states, >3.2e6 nonzeros "
               "(two-well variant), >36000 iterations at t = 17000.\n\n";

  core::MonteCarloSimulator sim(model,
                                {.replications = static_cast<std::size_t>(
                                     args.get_int("runs", 1000))});
  const auto sim_start = std::chrono::steady_clock::now();
  curves.push_back(sim.empty_probability_curve(times));
  const auto sim_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                    sim_start)
          .count();
  labels.push_back("Simulation");
  report.add_record()
      .field("engine", "simulation")
      .field("replications", sim.last_stats().replications)
      .field("events", sim.last_stats().events)
      .field("wall_seconds", sim_seconds);

  // Bonus series the paper could not show: the exact distribution.
  curves.push_back(core::ExactC1Solver(model).solve(times));
  labels.push_back("Exact");

  bench::emit(bench::curves_table("t (s)", times, labels, curves), args,
              "fig7.csv");
  report.write(args);

  std::cout << "Shape checks vs Fig. 7: all curves rise from 0 to 1 around "
               "t ~ 15000 s; the simulation (and exact) curve is nearly a "
               "step -- the lifetime is almost deterministic; smaller Delta "
               "moves the approximation toward it but convergence is slow "
               "(the paper's phase-type-approximation caveat).\n";
  for (std::size_t i = 0; i < labels.size(); ++i) {
    std::cout << "  median[" << labels[i] << "] = "
              << io::format_double(curves[i].median(), 0) << " s\n";
  }
  return 0;
}

int main(int argc, char** argv) {
  return kibamrm::common::run_main(argc, argv, run);
}
