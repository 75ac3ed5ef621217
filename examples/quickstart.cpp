// Quickstart: compute the lifetime distribution of a battery-powered
// wireless device in ~30 lines of API use.
//
//   1. Describe the workload as a CTMC with per-state current draw.
//   2. Pick battery parameters (capacity, available fraction c, flow k).
//   3. Combine them into a KibamRmModel and solve with the Markovian
//      approximation; cross-check with Monte-Carlo simulation.
//
// Build & run:
//   ./examples/quickstart [--engine uniformization|adaptive|dense|parallel|
//                                    krylov|ooc|sharded]
//                         [--threads N]
//                         [--kernels auto|scalar|avx2|avx512|mixed]
//                         [--reorder level|none|rcm]    (default level)
//                         [--tile-mb N] [--spill-dir PATH]   (ooc engine)
//                         [--shards N]                    (sharded engine)
//
// The engine flag swaps the transient solver behind the approximation; all
// engines agree within solver tolerance (see tests/test_engine_backends).
// "parallel" shards the uniformisation kernel over N threads (0/absent
// auto-detects the hardware) and reproduces "uniformization" bitwise per
// thread count.  "sharded" forks N worker processes that exchange halo
// rows over shared memory, bitwise identical to "parallel" again.
#include <iostream>

#include "kibamrm/common/cli.hpp"
#include "kibamrm/common/units.hpp"
#include "kibamrm/core/approx_solver.hpp"
#include "kibamrm/core/simulator.hpp"
#include "kibamrm/engine/transient_backend.hpp"
#include "kibamrm/io/table.hpp"
#include "kibamrm/workload/simple_model.hpp"

int run(kibamrm::common::CliArgs& args) {
  using namespace kibamrm;

  args.declare("engine").declare("delta").declare("threads")
      .declare("no-fuse").declare("no-detect").declare("kernels")
      .declare("reorder").declare("tile-mb").declare("spill-dir")
      .declare("shards");
  args.validate();
  const std::string kernels = args.get_choice(
      "kernels", "auto", {"auto", "scalar", "avx2", "avx512", "mixed"});
  const std::string reorder = args.get_choice(
      "reorder", core::ApproximationOptions{}.reorder,
      {"none", "level", "rcm"});
  const std::string engine =
      args.get_choice("engine", "uniformization", engine::backend_names());
  const auto threads =
      static_cast<std::size_t>(args.get_nonnegative_int("threads", 0));
  // Delta = 5 gives an 18k-state chain; the dense oracle needs a coarser
  // default grid to stay under its state limit.
  const double delta = args.get_double("delta", engine == "dense" ? 50.0
                                                                  : 5.0);

  // A phone-like device: idle (8 mA), send (200 mA), sleep (0 mA); rates
  // per hour.  make_simple_model uses the paper's defaults (Fig. 4).
  const workload::WorkloadModel device = workload::make_simple_model();

  // An 800 mAh battery; 62.5% immediately available, the rest bound and
  // released at rate k (converted from the usual per-second data sheets).
  const battery::KibamParameters battery{
      .capacity = 800.0,  // mAh
      .available_fraction = 0.625,
      .flow_constant = units::per_second_to_per_hour(4.5e-5)};

  const core::KibamRmModel model(device, battery);

  // Solve Pr{battery empty at t} on a grid of hours.
  const auto times = core::uniform_grid(1.0, 30.0, 30);
  core::MarkovianApproximation solver(
      model, {.delta = delta,
              .engine = engine,
              .threads = threads,
              // Engine tuning knobs, mirrored by the bench drivers: the
              // fused kernel and steady-state early termination are on by
              // default and --no-fuse / --no-detect switch back to the
              // baseline loop for A/B comparisons.
              .fused_kernels = !args.has("no-fuse"),
              .steady_state_detection = !args.has("no-detect"),
              // --tile-mb / --spill-dir tune the "ooc" engine's streamed
              // tile size and spill-file location; other engines ignore
              // them.
              .tile_bytes = static_cast<std::size_t>(
                                args.get_positive_int("tile-mb", 8))
                            << 20,
              .spill_dir = args.get_directory("spill-dir", ""),
              // --kernels pins the runtime-dispatched vector tier (the
              // double tiers are bitwise identical; scalar is the
              // sanitizer-CI escape hatch) and --reorder renumbers the
              // expanded chain's states (the default, level, packs the
              // runs the SIMD gather tiers want; none is the natural
              // reference numbering; results are inverse-permuted, so the
              // curve is the same either way).
              .kernel_dispatch = kernels,
              .reorder = reorder,
              // --shards forks that many worker processes under the
              // "sharded" engine (each running --threads lanes); other
              // engines ignore it.
              .shards = static_cast<std::size_t>(
                  args.get_positive_int("shards", 1))});
  const core::LifetimeCurve curve = solver.solve(times);

  // Monte-Carlo cross-check (1000 runs).
  core::MonteCarloSimulator sim(model, {.replications = 1000});
  const core::LifetimeCurve mc = sim.empty_probability_curve(times);

  io::Table table({"t (h)", "Pr[empty] approx", "Pr[empty] simulation"});
  for (std::size_t i = 0; i < times.size(); i += 3) {
    table.add_numeric_row(
        {times[i], curve.probabilities()[i], mc.probabilities()[i]}, 4);
  }
  table.print(std::cout);

  std::cout << "\nMedian lifetime:  " << curve.median() << " h (approx), "
            << mc.median() << " h (simulation)\n"
            << "5% of batteries die before " << curve.quantile(0.05)
            << " h; 95% are dead by " << curve.quantile(0.95) << " h.\n"
            << "Expanded chain: " << solver.last_stats().expanded_states
            << " states, engine " << solver.last_stats().engine << ", "
            << solver.last_stats().uniformization_iterations
            << " iterations.\n";
  return 0;
}

int main(int argc, char** argv) {
  return kibamrm::common::run_main(argc, argv, run);
}
