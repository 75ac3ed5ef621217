// Reproduces Table 1: experimental vs KiBaM vs modified-KiBaM lifetimes for
// a continuous 0.96 A load and 1 Hz / 0.2 Hz square waves.
//
// Columns:
//   Experimental     -- the measured values the paper quotes from Rao et
//                       al. [9] (90 / 193 / 230 min), reference constants.
//   KiBaM            -- analytical KiBaM, k calibrated as in the paper so
//                       the continuous lifetime matches 90 min.
//   Mod. stochastic  -- our discrete-recovery stochastic model (mean of
//                       --runs replications), the substitute for [9]'s
//                       stochastic modified KiBaM.
//   Mod. numerical   -- modified KiBaM (height-scaled recovery) integrated
//                       deterministically with RK4.
//
// The paper's qualitative findings to check in the output: the KiBaM
// columns are frequency-independent (203/203 in the paper; the experiment
// said 193 vs 230), and the deterministic modified model stays frequency-
// independent as well.
//
// A second block solves the three workloads as one engine::ScenarioBatch
// through the Markovian approximation (the stochastic Erlang-1 on/off
// analogue of the square waves) and reports the median lifetimes --
// --engine/--threads select the backend and concurrency, and the timings
// land in BENCH_table1.json for the perf-trajectory CI.
#include <iostream>
#include <optional>
#include <vector>

#include "bench_common.hpp"
#include "kibamrm/battery/calibration.hpp"
#include "kibamrm/battery/kibam.hpp"
#include "kibamrm/battery/lifetime.hpp"
#include "kibamrm/battery/modified_kibam.hpp"
#include "kibamrm/battery/stochastic_battery.hpp"
#include "kibamrm/common/random.hpp"
#include "kibamrm/common/units.hpp"
#include "kibamrm/stats/empirical.hpp"
#include "kibamrm/workload/onoff_model.hpp"

namespace {

using namespace kibamrm;
using battery::LoadProfile;

double lifetime_minutes(battery::BatteryModel& model,
                        const LoadProfile& profile) {
  const auto life =
      battery::compute_lifetime(model, profile, {.max_time = 1e8});
  return units::seconds_to_minutes(life.value());
}

double stochastic_mean_minutes(const LoadProfile& profile, int runs,
                               common::RandomStream& rng) {
  // Calibrated like the paper calibrates the KiBaM: the directly usable
  // charge is what the continuous 0.96 A load delivers in the experimental
  // 90 min (5184 As); the remainder of the 7200 As capacity is bound and
  // only reachable through idle-slot recovery.
  battery::StochasticBatteryParameters params;
  params.charge_per_unit = 4.8;
  params.available_units = 1080;  // 5184 As
  params.bound_units = 420;       // 2016 As
  params.slot_duration = 0.5;
  params.recovery_decay = 4.0;
  params.base_recovery_probability = 0.05;
  std::vector<double> lives;
  lives.reserve(static_cast<std::size_t>(runs));
  for (int i = 0; i < runs; ++i) {
    battery::StochasticBattery batteryModel(params, rng.split());
    lives.push_back(units::seconds_to_minutes(
        battery::compute_lifetime(batteryModel, profile, {.max_time = 1e8})
            .value()));
  }
  return stats::EmpiricalDistribution(std::move(lives)).mean();
}

}  // namespace

int run(kibamrm::common::CliArgs& args) {
  args.declare("csv").declare("full").declare("runs").declare("engine")
      .declare("threads").declare("delta").declare("json")
      .declare("no-fuse").declare("no-detect").declare("kernels")
      .declare("reorder").declare("tile-mb").declare("spill-dir")
      .declare("shards");
  args.validate();
  bench::apply_kernel_choice(args);
  const int runs = args.get_int("runs", args.has("full") ? 200 : 50);
  const std::string engine =
      args.get_choice("engine", "uniformization", engine::backend_names());
  const auto threads =
      static_cast<std::size_t>(args.get_nonnegative_int("threads", 0));
  const double delta = args.get_double("delta", 100.0);

  std::cout << "=== Table 1: experimental and computed lifetimes (min) ===\n"
            << "Battery: C = 7200 As, c = 0.625 (from [9]); k calibrated so "
               "the continuous lifetime is 90 min.\n\n";

  // Calibration exactly as described in Sec. 3.
  const double k = battery::calibrate_flow_constant(
      7200.0, 0.625, 0.96, units::minutes_to_seconds(90.0));
  std::cout << "calibrated flow constant k = " << k
            << " /s (paper quotes ~4.5e-5 /s)\n\n";
  const battery::KibamParameters params{7200.0, 0.625, k};

  const std::vector<std::pair<std::string, LoadProfile>> workloads = {
      {"Continuous", LoadProfile::constant(0.96)},
      {"1 Hz", LoadProfile::square_wave(1.0, 0.96)},
      {"0.2 Hz", LoadProfile::square_wave(0.2, 0.96)},
  };
  // The experimental column quoted by the paper from [9].
  const std::vector<double> experimental = {90.0, 193.0, 230.0};

  common::RandomStream rng(2025);
  io::Table table({"Frequency", "Exp. lifetime", "KiBaM", "Mod. stochastic",
                   "Mod. numerical"});
  for (std::size_t i = 0; i < workloads.size(); ++i) {
    const auto& [label, profile] = workloads[i];
    battery::KibamBattery kibam(params);
    battery::ModifiedKibamBattery modified(params, 0.25);
    table.add_row({label, io::format_double(experimental[i], 0),
                   io::format_double(lifetime_minutes(kibam, profile), 0),
                   io::format_double(
                       stochastic_mean_minutes(profile, runs, rng), 0),
                   io::format_double(lifetime_minutes(modified, profile), 0)});
  }
  kibamrm::bench::emit(table, args, "table1.csv");

  // Batched Markovian block: the same three loads as CTMC workloads (the
  // continuous draw is a one-state chain, the square waves their Erlang-1
  // on/off analogues), solved concurrently through the engine layer.
  workload::WorkloadBuilder continuous_builder;
  continuous_builder.set_initial_state(
      continuous_builder.add_state("on", 0.96));
  const battery::KibamParameters markov_battery{7200.0, 0.625, k};
  const auto markov_times = core::uniform_grid(3000.0, 21000.0, 37);
  std::vector<engine::Scenario> scenarios;
  scenarios.push_back({"Continuous",
                       core::KibamRmModel(continuous_builder.build(),
                                          markov_battery),
                       delta, markov_times});
  for (const double frequency : {1.0, 0.2}) {
    scenarios.push_back(
        {io::format_double(frequency, 1) + " Hz",
         core::KibamRmModel(
             workload::make_onoff_model({.frequency = frequency,
                                         .erlang_k = 1,
                                         .on_current = 0.96}),
             markov_battery),
         delta, markov_times});
  }
  engine::ScenarioBatchOptions batch_options{.engine = engine,
                                             .threads = threads};
  bench::apply_engine_tuning(args, batch_options);
  engine::ScenarioBatch batch(batch_options);
  const auto batch_results = batch.solve_all(scenarios);

  bench::BenchReport report("table1");
  std::cout << "Markovian approximation (batch of " << scenarios.size()
            << " scenarios, engine = " << engine << ", Delta = " << delta
            << ", " << batch.last_stats().threads << " threads):\n";
  for (const auto& result : batch_results) {
    if (result.skipped) {
      std::cout << "  " << result.label << ": skipped ("
                << result.skip_reason << ")\n";
      continue;
    }
    if (result.failed) {
      std::cout << "  " << result.label << ": failed ("
                << result.failure_reason << ")\n";
      continue;
    }
    std::cout << "  median[" << result.label << "] = "
              << io::format_double(
                     units::seconds_to_minutes(result.curve->median()), 0)
              << " min (" << result.stats.expanded_states << " states, "
              << io::format_double(result.wall_seconds, 2) << " s)\n";
    bench::add_scenario_record(report, result, delta)
        .field("threads", batch.last_stats().threads);
  }
  bench::add_batch_record(report, engine, batch.last_stats());
  report.write(args);
  std::cout << '\n';

  std::cout << "Paper's Table 1 for comparison (min):\n"
            << "  Continuous  90 |  91 |  90 |  89\n"
            << "  1 Hz       193 | 203 | 193 | 193\n"
            << "  0.2 Hz     230 | 203 | 226 | 193\n"
            << "Check: both deterministic columns are frequency-independent "
               "(the paper's central observation); the stochastic column is "
               "our substituted recovery model, not [9]'s exact law.\n";
  return 0;
}

int main(int argc, char** argv) {
  return kibamrm::common::run_main(argc, argv, run);
}
