// The paper's tailored algorithm (Sec. 5): Markovian approximation of the
// battery lifetime distribution.
//
// Pipeline: discretise the two accumulated rewards with step Delta
// (level_grid), build the expanded pure CTMC Q* (expanded_ctmc), solve it
// transiently through a pluggable engine (engine/transient_backend) and read
// off Pr{battery empty at t} as the probability mass in the absorbing
// j1 = 0 layer.  The default engine is the paper's uniformisation; the
// adaptive ODE stepper and the dense matrix exponential are selectable by
// name for small chains and cross-validation.  Complexity of the default is
// O(N^2 q t (u1/Delta)(u2/Delta)) as analysed in Sec. 5.3; the solver
// reports the actual state/non-zero/iteration counts so the complexity
// experiments of Sec. 6.1 can be reproduced.
#pragma once

#include <cstdint>
#include <memory>
#include <string>

#include "kibamrm/core/expanded_ctmc.hpp"
#include "kibamrm/core/lifetime_distribution.hpp"
#include "kibamrm/engine/transient_backend.hpp"

namespace kibamrm::core {

struct ApproximationOptions {
  /// Reward discretisation step Delta (charge units).
  double delta = 1.0;
  /// Transient-solver accuracy (truncation error per time increment for
  /// uniformisation, local-error tolerance for the adaptive stepper).
  double epsilon = 1e-10;
  /// Transient engine name; see engine::backend_names().
  std::string engine = "uniformization";
  /// Refusal threshold of the dense engine (states).
  std::size_t dense_state_limit = 1024;
  /// Execution lanes of the "parallel" engine; 0 auto-detects.  Ignored by
  /// the serial engines.
  std::size_t threads = 0;
  /// Fused spmv+accumulate kernels of the uniformisation engines; false
  /// keeps the pre-fusion loop as the measured baseline.
  bool fused_kernels = true;
  /// Steady-state / absorption early termination inside each Poisson
  /// window (uniformisation engines; requires fused_kernels).
  bool steady_state_detection = true;
  /// "ooc" engine: serialized-size target per streamed tile and the
  /// spill-file directory (empty selects $TMPDIR, falling back to /tmp);
  /// forwarded to engine::BackendOptions.  Ignored by other engines.
  std::size_t tile_bytes = 8ull << 20;
  std::string spill_dir = "";
  /// Vector-kernel tier pin ("auto" / "scalar" / "avx2" / "avx512" /
  /// "mixed"), forwarded to engine::BackendOptions::kernel_dispatch
  /// (process-global; the double tiers are bitwise identical, the mixed
  /// tier trades float32 gather traffic for ~1e-6-level accuracy).
  std::string kernel_dispatch = "auto";
  /// State ordering of the expanded chain ("none" / "level" / "rcm", see
  /// core::StateOrdering).  The default "level" renumbers the states so
  /// the gather kernels see uniform row runs (~2x per DTMC step on fig8)
  /// and is a pure memory-layout change: two-well curves are bitwise
  /// equal to "none", single-well curves agree within a few ulp.  "none"
  /// is the natural reference numbering; "rcm" stays within 10 eps.  The
  /// ExpandedChain carries the permutation for anything that reads raw
  /// distributions.
  std::string reorder = "level";
  /// Worker processes of the "sharded" engine (level-banded multi-process
  /// uniformisation); forwarded to engine::BackendOptions::shards.
  /// Ignored by the other engines.
  std::size_t shards = 1;
};

/// Cost/shape diagnostics of one approximation run: the engine's counters
/// of the last solve (engine::BackendStats) plus the chain they ran on.
struct ApproximationStats : engine::BackendStats {
  std::size_t expanded_states = 0;
  std::size_t generator_nonzeros = 0;
  /// Engine that produced the last curve.
  std::string engine;
  /// State ordering the expanded chain was built with ("none" when the
  /// natural numbering was kept).
  std::string reorder = "none";
  /// Equals `iterations`; the name the Sec. 6.1 experiments and their
  /// tests read.
  std::uint64_t uniformization_iterations = 0;

  /// Takes the engine's counters of a finished solve and keeps the
  /// `uniformization_iterations` alias in step; the chain fields stay.
  void assign(const engine::BackendStats& backend);
};

class MarkovianApproximation {
 public:
  /// Builds the expanded chain and instantiates the selected engine;
  /// throws InvalidArgument for unknown engine names.
  MarkovianApproximation(const KibamRmModel& model,
                         ApproximationOptions options);

  /// Pr{battery empty at t} for every t in `times` (ascending).
  LifetimeCurve solve(const std::vector<double>& times);

  const ApproximationStats& last_stats() const { return stats_; }
  const ExpandedChain& expanded_chain() const { return expanded_; }

 private:
  ApproximationOptions options_;
  ExpandedChain expanded_;
  std::unique_ptr<engine::TransientBackend> backend_;
  ApproximationStats stats_;
};

/// One-shot convenience; `engine` selects the transient backend.
LifetimeCurve approximate_lifetime_distribution(
    const KibamRmModel& model, double delta, const std::vector<double>& times,
    const std::string& engine = "uniformization");

/// The shared tail of every approximation pipeline: streams Pr{empty at t}
/// for the expanded chain through `backend`, clamps solver round-off (the
/// tolerance policy lives here and only here) and builds the curve.  Both
/// MarkovianApproximation::solve and engine::ScenarioBatch call this, so
/// batched and sequential solves of the same scenario cannot diverge.
LifetimeCurve solve_empty_probability_curve(const ExpandedChain& expanded,
                                            engine::TransientBackend& backend,
                                            const std::vector<double>& times,
                                            double epsilon);

}  // namespace kibamrm::core
