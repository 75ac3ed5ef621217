// Reproduces Figure 8: battery lifetime distribution for the on/off model
// with the full KiBaM battery: f = 1 Hz, K = 1, C = 7200 As, c = 0.625,
// k = 4.5e-5/s, I = 0.96 A.
//
// The paper plots Delta in {100, 50, 25, 10, 5} plus a simulation.  The
// Delta = 10 and Delta = 5 chains have ~2.4e5 / ~9.7e5 states and dominate
// the run time, so they are gated behind --full (the default set still
// shows the convergence direction).  --engine selects the transient
// backend (the dense oracle only fits the coarsest grids); --threads N
// feeds the "parallel" engine's spmv sharding, and --batch solves all
// Delta configurations concurrently through engine::ScenarioBatch instead
// of one after another -- the perf CI compares the resulting per-scenario
// and aggregate wall times across thread counts.
#include <chrono>
#include <iostream>

#include "bench_common.hpp"
#include "kibamrm/core/approx_solver.hpp"
#include "kibamrm/core/simulator.hpp"
#include "kibamrm/engine/transient_backend.hpp"
#include "kibamrm/workload/onoff_model.hpp"

int run(kibamrm::common::CliArgs& args) {
  using namespace kibamrm;
  args.declare("csv").declare("full").declare("points").declare("delta")
      .declare("runs").declare("engine").declare("json").declare("threads")
      .declare("batch").declare("no-fuse").declare("no-detect")
      .declare("kernels").declare("reorder").declare("tile-mb")
      .declare("spill-dir").declare("shards");
  args.validate();
  bench::apply_kernel_choice(args);
  const std::string engine =
      args.get_choice("engine", "uniformization", engine::backend_names());
  const auto threads =
      static_cast<std::size_t>(args.get_nonnegative_int("threads", 0));

  std::cout << "=== Figure 8: on/off lifetime CDF (C = 7200 As, c = 0.625, "
               "k = 4.5e-5/s; engine = " << engine << ") ===\n"
            << (args.has("full")
                    ? ""
                    : "(default resolution; pass --full for the paper's "
                      "Delta = 10 and 5)\n")
            << '\n';

  const core::KibamRmModel model(
      workload::make_onoff_model({.frequency = 1.0, .erlang_k = 1,
                                  .on_current = 0.96}),
      {.capacity = 7200.0, .available_fraction = 0.625,
       .flow_constant = 4.5e-5});

  const auto times = core::uniform_grid(
      6000.0, 20000.0,
      static_cast<std::size_t>(args.get_int("points", 57)));

  const std::vector<double> default_deltas =
      args.has("full") ? std::vector<double>{100.0, 50.0, 25.0, 10.0, 5.0}
                       : std::vector<double>{100.0, 50.0, 25.0};
  const std::vector<double> deltas =
      args.get_double_list("delta", default_deltas);

  bench::BenchReport report("fig8");
  std::vector<std::string> labels;
  std::vector<core::LifetimeCurve> curves;
  if (args.has("batch")) {
    // Batched mode: all Delta scenarios in flight at once; per-scenario
    // wall times overlap, the aggregate record holds the batch wall time.
    std::vector<engine::Scenario> scenarios;
    for (double delta : deltas) {
      scenarios.push_back({"Delta=" + io::format_double(delta, 0), model,
                           delta, times});
    }
    engine::ScenarioBatchOptions batch_options{.engine = engine,
                                               .threads = threads};
    bench::apply_engine_tuning(args, batch_options);
    engine::ScenarioBatch batch(batch_options);
    const auto results = batch.solve_all(scenarios);
    for (std::size_t i = 0; i < results.size(); ++i) {
      const auto& result = results[i];
      if (result.skipped) {
        std::cout << result.label << ": skipped (" << result.skip_reason
                  << ")\n";
        continue;
      }
      if (result.failed) {
        std::cout << result.label << ": failed (" << result.failure_reason
                  << ")\n";
        continue;
      }
      curves.push_back(*result.curve);
      labels.push_back(result.label);
      std::cout << result.label << ": " << result.stats.expanded_states
                << " states, " << result.stats.generator_nonzeros
                << " nonzeros, " << result.stats.uniformization_iterations
                << " iterations, "
                << io::format_double(result.wall_seconds, 1)
                << " s wall clock\n";
      bench::add_scenario_record(report, result, deltas[i])
          .field("threads", batch.last_stats().threads);
    }
    bench::add_batch_record(report, engine, batch.last_stats());
    std::cout << "batch: " << batch.last_stats().scenarios
              << " scenarios on " << batch.last_stats().threads
              << " threads, "
              << io::format_double(batch.last_stats().wall_seconds, 1)
              << " s wall clock ("
              << io::format_double(batch.last_stats().solve_seconds_total, 1)
              << " s summed solve time)\n";
  } else {
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
                << " iterations, " << io::format_double(run.wall_seconds, 1)
                << " s wall clock\n";
      bench::add_engine_record(report, run, delta)
          .field("threads", bench::resolved_thread_count(engine, threads));
    }
  }
  std::cout << "Paper quotes for Delta = 5: ~3.2e6 nonzeros; >2.3e4 "
               "iterations for t = 10000, >4.6e4 for t = 20000.\n\n";

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

  bench::emit(bench::curves_table("t (s)", times, labels, curves), args,
              "fig8.csv");
  report.write(args);

  std::cout << "Shape checks vs Fig. 8: the approximation curves lie left "
               "of (above) the simulation and move right as Delta shrinks, "
               "but remain visibly apart even at Delta = 5 -- the paper's "
               "\"quite far away\" observation.\n";
  for (std::size_t i = 0; i < labels.size(); ++i) {
    std::cout << "  median[" << labels[i] << "] = "
              << io::format_double(curves[i].median(), 0) << " s\n";
  }
  return 0;
}

int main(int argc, char** argv) {
  return kibamrm::common::run_main(argc, argv, run);
}
