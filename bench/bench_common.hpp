// Shared helpers for the bench binaries: option handling, curve printing
// and machine-readable result records.
//
// Every bench accepts:
//   --csv <path>    also write the printed series as CSV
//   --full          run the expensive full-resolution configurations
//   --points N      number of curve points (where applicable)
//   --json <path>   where to write the BENCH_*.json record file
//   --engine NAME   transient engine (where the bench solves chains)
//   --threads N     engine/batch execution lanes (0/absent = auto-detect)
//   --batch         solve all configurations through engine::ScenarioBatch
//   --no-fuse       run the pre-fusion baseline uniformisation loop (the
//                   measured reference of the CI fused-speedup gate)
//   --no-detect     disable steady-state early termination
//   --tile-mb N     streamed tile size in MB for --engine ooc (default 8)
//   --spill-dir P   directory for the ooc engine's tile spill file
//                   (default $TMPDIR, falling back to /tmp); must exist
//   --shards N      worker processes for --engine sharded (default 1;
//                   each worker additionally runs --threads lanes, so
//                   shards x threads composes)
//   --kernels T     pin the vector-kernel tier:
//                   scalar | avx2 | avx512 | mixed | auto
//                   (default auto = CPUID; the double tiers are bitwise
//                   identical, mixed trades float32 operand rounding for
//                   throughput; the pin is for measurement and for
//                   sanitizer runs.  An unavailable SIMD tier falls back
//                   to the best supported one with a stderr note.)
//   --reorder R     state ordering of the expanded chain:
//                   none | level | rcm (default: the library default,
//                   level, which packs the charge-major runs the SIMD
//                   gather tiers vectorise across; none is the natural
//                   reference numbering, rcm minimises bandwidth.
//                   Results are inverse-permuted: level curves equal
//                   none bitwise on two-well chains, rcm agrees within
//                   10 eps)
#pragma once

#include <chrono>
#include <cstdint>
#include <fstream>
#include <iostream>
#include <optional>
#include <sstream>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "kibamrm/common/cli.hpp"
#include "kibamrm/common/error.hpp"
#include "kibamrm/common/resource.hpp"
#include "kibamrm/common/thread_pool.hpp"
#include "kibamrm/core/approx_solver.hpp"
#include "kibamrm/core/lifetime_distribution.hpp"
#include "kibamrm/engine/scenario_batch.hpp"
#include "kibamrm/io/table.hpp"
#include "kibamrm/linalg/kernels.hpp"

namespace kibamrm::bench {

/// The --kernels choice, validated; "auto" when absent.
inline std::string kernel_choice(const common::CliArgs& args) {
  return args.get_choice("kernels", "auto",
                         {"auto", "scalar", "avx2", "avx512", "mixed"});
}

/// The --reorder choice, validated; the library default
/// (core::ApproximationOptions::reorder) when absent.
inline std::string reorder_choice(const common::CliArgs& args) {
  return args.get_choice("reorder", core::ApproximationOptions{}.reorder,
                         {"none", "level", "rcm"});
}

/// Applies --kernels to the process-global dispatch immediately (so even
/// code paths that never see an options struct -- simulators, direct
/// TransientSolver users -- run the requested tier).
inline void apply_kernel_choice(const common::CliArgs& args) {
  linalg::kernels::apply_dispatch(kernel_choice(args));
}

/// Tier the kernels actually run, for the "kernels" record field.
inline std::string active_kernel_name() {
  return std::string(
      linalg::kernels::dispatch_name(linalg::kernels::active_dispatch()));
}

/// Prints one table and optionally mirrors it to CSV.
inline void emit(const io::Table& table, const common::CliArgs& args,
                 const std::string& default_csv_name) {
  table.print(std::cout);
  std::cout << '\n';
  if (args.has("csv")) {
    const std::string path = args.get("csv", default_csv_name);
    table.write_csv_file(path);
    std::cout << "[csv written to " << path << "]\n\n";
  }
}

/// Builds a table with a time column and one labelled probability column
/// per curve (all curves share the time grid).
inline io::Table curves_table(const std::string& time_header,
                              const std::vector<double>& times,
                              const std::vector<std::string>& labels,
                              const std::vector<core::LifetimeCurve>& curves) {
  std::vector<std::string> headers = {time_header};
  headers.insert(headers.end(), labels.begin(), labels.end());
  io::Table table(headers);
  for (std::size_t i = 0; i < times.size(); ++i) {
    std::vector<double> row = {times[i]};
    for (const auto& curve : curves) row.push_back(curve.probabilities()[i]);
    table.add_numeric_row(row, 4);
  }
  return table;
}

/// One machine-readable benchmark record: ordered key -> rendered-JSON-value
/// pairs.  Use the typed field() overloads; strings are escaped minimally
/// (the fields benches emit are identifiers and numbers).
class BenchRecord {
 public:
  BenchRecord& field(const std::string& key, const std::string& value) {
    std::string escaped;
    for (char c : value) {
      if (c == '"' || c == '\\') escaped += '\\';
      escaped += c;
    }
    return raw(key, '"' + escaped + '"');
  }
  BenchRecord& field(const std::string& key, const char* value) {
    return field(key, std::string(value));
  }
  BenchRecord& field(const std::string& key, double value) {
    std::ostringstream rendered;
    rendered.precision(17);
    rendered << value;
    return raw(key, rendered.str());
  }
  // One template for every integer type: size_t, uint64_t and int are
  // distinct (and overlapping) types across platforms, so fixed overloads
  // would be ambiguous somewhere.
  template <typename Int>
    requires std::is_integral_v<Int>
  BenchRecord& field(const std::string& key, Int value) {
    return raw(key, std::to_string(value));
  }

  void render(std::ostream& out) const {
    out << '{';
    for (std::size_t i = 0; i < fields_.size(); ++i) {
      if (i > 0) out << ", ";
      out << '"' << fields_[i].first << "\": " << fields_[i].second;
    }
    out << '}';
  }

 private:
  BenchRecord& raw(const std::string& key, std::string rendered) {
    fields_.emplace_back(key, std::move(rendered));
    return *this;
  }
  std::vector<std::pair<std::string, std::string>> fields_;
};

/// Collects BenchRecords for one bench and writes them as BENCH_<name>.json
/// (path overridable with --json), so the perf trajectory of the repo can
/// accumulate machine-readable data points across runs.
class BenchReport {
 public:
  explicit BenchReport(std::string name) : name_(std::move(name)) {}

  BenchRecord& add_record() { return records_.emplace_back(); }

  void write(const common::CliArgs& args) const {
    const std::string path =
        args.get("json", "BENCH_" + name_ + ".json");
    std::ofstream out(path);
    KIBAMRM_REQUIRE(out.good(), "cannot open bench json file: " + path);
    out << "{\"bench\": \"" << name_ << "\", \"records\": [";
    for (std::size_t i = 0; i < records_.size(); ++i) {
      if (i > 0) out << ", ";
      records_[i].render(out);
    }
    out << "]}\n";
    KIBAMRM_REQUIRE(out.good(), "failed writing bench json file: " + path);
    std::cout << "[bench json written to " << path << "]\n";
  }

 private:
  std::string name_;
  std::vector<BenchRecord> records_;
};

/// Lanes a run will actually use, for the "threads" record field: the
/// serial engines always run 1, and the 0 = auto-detect sentinel resolves
/// to the hardware count -- so trajectory tooling never groups wall times
/// under a fictitious thread count 0.
inline std::size_t resolved_thread_count(const std::string& engine,
                                         std::size_t requested) {
  // The sharded engine reads 0 as one lane per worker (auto-detecting
  // inside N forked workers would oversubscribe N-fold).
  if (engine == "sharded") return requested == 0 ? 1 : requested;
  if (engine != "parallel" && engine != "krylov" && engine != "ooc") {
    return 1;
  }
  return requested == 0 ? common::ThreadPool::hardware_thread_count()
                        : requested;
}

/// Engine-tuning flags shared by every solver driver: --no-fuse selects
/// the pre-fusion baseline loop, --no-detect disables steady-state early
/// termination (uniformisation engines; other engines ignore both),
/// --tile-mb N and --spill-dir PATH size and place the "ooc" engine's
/// streamed tile store (other engines ignore them).
inline void apply_engine_tuning(const common::CliArgs& args,
                                core::ApproximationOptions& options) {
  options.fused_kernels = !args.has("no-fuse");
  options.steady_state_detection = !args.has("no-detect");
  options.kernel_dispatch = kernel_choice(args);
  options.reorder = reorder_choice(args);
  options.tile_bytes =
      static_cast<std::size_t>(args.get_positive_int("tile-mb", 8)) << 20;
  options.spill_dir = args.get_directory("spill-dir", "");
  options.shards =
      static_cast<std::size_t>(args.get_positive_int("shards", 1));
}

inline void apply_engine_tuning(const common::CliArgs& args,
                                engine::ScenarioBatchOptions& options) {
  options.fused_kernels = !args.has("no-fuse");
  options.steady_state_detection = !args.has("no-detect");
  options.kernel_dispatch = kernel_choice(args);
  options.reorder = reorder_choice(args);
  options.tile_bytes =
      static_cast<std::size_t>(args.get_positive_int("tile-mb", 8)) << 20;
  options.spill_dir = args.get_directory("spill-dir", "");
  options.shards =
      static_cast<std::size_t>(args.get_positive_int("shards", 1));
}

/// One engine-backed approximation solve for the sweep drivers: constructs
/// the solver, times the solve, and turns an engine refusal
/// (engine::UnsupportedChainError, e.g. dense over its state limit) into a
/// printed skip instead of a lost sweep.  Genuine solver errors propagate.
struct EngineRun {
  bool skipped = false;
  core::ApproximationStats stats;
  double wall_seconds = 0.0;
  std::optional<core::LifetimeCurve> curve;
};

inline EngineRun run_approximation(const core::KibamRmModel& model,
                                   const core::ApproximationOptions& options,
                                   const std::vector<double>& times) {
  EngineRun run;
  const auto start = std::chrono::steady_clock::now();
  core::MarkovianApproximation solver(model, options);
  try {
    run.curve = solver.solve(times);
  } catch (const engine::UnsupportedChainError& error) {
    std::cout << "Delta = " << options.delta << ": skipped ("
              << error.what() << ")\n";
    run.skipped = true;
  }
  run.wall_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();
  run.stats = solver.last_stats();
  return run;
}

/// Work rate of the uniformisation kernel: stored entries of the matrix
/// the loop actually iterated (active_nonzeros -- the compacted transpose
/// when fused, the full transpose otherwise; generator nonzeros as a
/// fallback for engines that do not report it) times DTMC steps per wall
/// second.  Tracks kernel-level regressions the wall time alone hides
/// (e.g. an iteration-count change masking a slower spmv, or a grown
/// reachable closure masquerading as one).  0 when the run did no
/// iterations or took no measurable time.
inline double spmv_throughput(const core::ApproximationStats& stats,
                              double wall_seconds) {
  if (wall_seconds <= 0.0 || stats.iterations == 0) return 0.0;
  const std::uint64_t nonzeros = stats.active_nonzeros != 0
                                     ? stats.active_nonzeros
                                     : stats.generator_nonzeros;
  return static_cast<double>(nonzeros) *
         static_cast<double>(stats.iterations) / wall_seconds;
}

/// The fields every per-configuration record shares after its labels:
/// delta, the chain's size, the engine counters (read through the
/// embedded engine::BackendStats), spmv throughput, peak RSS, wall time.
inline BenchRecord& add_solve_fields(BenchRecord& record,
                                     const core::ApproximationStats& stats,
                                     double delta, double wall_seconds) {
  const engine::BackendStats& backend = stats;
  return record.field("delta", delta)
      .field("states", stats.expanded_states)
      .field("nonzeros", stats.generator_nonzeros)
      .field("iterations", backend.iterations)
      .field("iterations_saved", backend.iterations_saved)
      .field("active_states", backend.active_states)
      .field("active_nonzeros", backend.active_nonzeros)
      .field("matrix_bandwidth", backend.matrix_bandwidth)
      .field("groupable_rows", backend.groupable_rows)
      .field("longest_uniform_run", backend.longest_uniform_run)
      .field("diagonal_rows", backend.diagonal_rows)
      .field("longest_diagonal_run", backend.longest_diagonal_run)
      .field("krylov_dim", backend.krylov_dim)
      .field("substeps", backend.substeps)
      .field("hessenberg_expms", backend.hessenberg_expms)
      .field("krylov_ortho_work", backend.krylov_ortho_work)
      .field("ooc_tiles", backend.ooc_tiles)
      .field("ooc_tile_reads", backend.ooc_tile_reads)
      .field("ooc_prefetch_hits", backend.ooc_prefetch_hits)
      .field("ooc_bytes_streamed", backend.ooc_bytes_streamed)
      .field("ooc_spill_bytes", backend.ooc_spill_bytes)
      .field("shards", backend.shards)
      .field("halo_bytes_per_step", backend.halo_bytes_per_step)
      .field("halo_wait_ns", backend.halo_wait_ns)
      .field("shard_nnz_imbalance", backend.shard_nnz_imbalance)
      .field("spmv_throughput", spmv_throughput(stats, wall_seconds))
      .field("peak_rss_bytes", common::peak_rss_bytes())
      .field("wall_seconds", wall_seconds);
}

/// Appends the standard per-configuration record (engine, delta, states,
/// nonzeros, iterations, early-termination savings, effective spmv
/// throughput, wall time); returns it for driver-specific extra fields.
inline BenchRecord& add_engine_record(BenchReport& report,
                                      const EngineRun& run, double delta) {
  BenchRecord& record = report.add_record()
                            .field("engine", run.stats.engine)
                            .field("kernels", active_kernel_name())
                            .field("reorder", run.stats.reorder);
  return add_solve_fields(record, run.stats, delta, run.wall_seconds);
}

/// Per-scenario record of a batched solve: same fields as
/// add_engine_record plus the scenario label, so the trajectory tooling
/// reads batched and sequential runs uniformly.
inline BenchRecord& add_scenario_record(BenchReport& report,
                                        const engine::ScenarioResult& result,
                                        double delta) {
  BenchRecord& record = report.add_record()
                            .field("engine", result.stats.engine)
                            .field("kernels", active_kernel_name())
                            .field("reorder", result.stats.reorder)
                            .field("scenario", result.label);
  return add_solve_fields(record, result.stats, delta, result.wall_seconds);
}

/// Aggregate record of one ScenarioBatch::solve_all: batch wall-clock vs
/// summed per-scenario time is the achieved scenario-level parallelism.
inline BenchRecord& add_batch_record(BenchReport& report,
                                     const std::string& engine,
                                     const engine::BatchStats& stats) {
  return report.add_record()
      .field("engine", engine)
      .field("batch", "aggregate")
      .field("scenarios", stats.scenarios)
      .field("skipped", stats.skipped)
      .field("failed", stats.failed)
      .field("threads", stats.threads)
      .field("batch_wall_seconds", stats.wall_seconds)
      .field("solve_seconds_total", stats.solve_seconds_total)
      .field("iterations", stats.iterations_total)
      .field("iterations_saved", stats.iterations_saved_total)
      .field("plans_built", stats.plans_built)
      .field("plans_reused", stats.plans_reused)
      .field("peak_rss_bytes", common::peak_rss_bytes());
}

}  // namespace kibamrm::bench
