// The one uniformisation loop every in-process engine runs.
//
// Given a CTMC with generator Q and an initial distribution pi(0), the
// transient distribution is
//     pi(t) = sum_{n>=0} Pois(q t; n) * pi(0) P^n,   P = I + Q/q,
// truncated with Fox-Glynn windows.  This is the computational core of the
// paper's Markovian approximation (Sec. 5).  Multiple time points are
// handled *incrementally*: pi(t_{k+1}) is computed from pi(t_k) over the
// increment t_{k+1} - t_k, so a whole lifetime curve costs about as many
// matrix-vector products as its final time point alone.
//
// UniformizationDriver owns everything about that loop that does not
// depend on where P lives: the Fox-Glynn window per increment (memoised,
// so a uniform time grid computes one window per curve), the n = 0 term,
// the per-step Poisson weights, steady-state detection and its residual
// fold, the cost counters, renormalisation, and the expansion of the
// loop vector back to full-chain states for results and callbacks.  The
// matrix side is a StepOperator: the in-memory gather operators in
// markov/uniformization.hpp (inline or pool-sharded) and the out-of-core
// tile stream in engine/ooc_backend.cpp.  The sharded engine keeps its own
// worker protocol but takes its rate and its detection verdicts from here.
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <span>
#include <vector>

#include "kibamrm/markov/ctmc.hpp"
#include "kibamrm/markov/fox_glynn.hpp"

namespace kibamrm::markov {

struct TransientOptions {
  /// Total truncation error budget per time increment.
  double epsilon = 1e-10;
  /// Uniformisation rate; 0 selects 1.02 * max_exit_rate automatically.
  /// (A rate slightly above the maximum keeps the diagonal of P positive,
  /// which damps oscillation in stiff chains.)
  double uniformization_rate = 0.0;
  /// Re-normalise the distribution after every time increment to counter
  /// accumulated round-off on long curves.
  bool renormalize = true;
  /// When false, solve() returns an empty vector: callers that stream
  /// points through the callback skip the time_points * states copy.
  bool collect_results = true;
  /// Fused gather kernels (FusedGatherStep: one pass per step computes
  /// the product, the Poisson-weighted accumulation and the steady-state
  /// delta).  False selects the pre-fusion reference (GatherReferenceStep:
  /// plain gather spmv plus a separate axpy over the full transpose), kept
  /// as the measured baseline and as a cross-check.
  bool fused_kernels = true;
  /// Steady-state / absorption early termination (SteadyStateDetector).
  /// Needs a step operator that reports the step delta; the pre-fusion
  /// reference does not, so detection is off there.
  bool steady_state_detection = true;
};

/// Cost counters of one transient solve (Sec. 5.3 / Sec. 6.1 quote
/// iteration counts; bench/ablation_complexity reproduces them).
/// engine::BackendStats extends this record, so every engine reports the
/// loop counters under the same names.
struct TransientStats {
  /// Work unit of the solve: DTMC steps (= matrix products) for
  /// uniformisation; the other engines count their own unit here.
  std::uint64_t iterations = 0;
  std::uint64_t time_points = 0;  // number of requested outputs
  /// The uniformisation rate actually used; 0 for other engines.
  double uniformization_rate = 0.0;
  /// Poisson terms short-circuited by steady-state detection; iterations +
  /// iterations_saved equals the full Fox-Glynn term count, independent of
  /// whether and where detection fired.
  std::uint64_t iterations_saved = 0;
  /// Time increments on which detection fired.
  std::uint64_t steady_state_hits = 0;
  /// Fox-Glynn windows computed / served from the plan cache this solve;
  /// a uniform time grid computes exactly one.
  std::uint64_t windows_computed = 0;
  std::uint64_t windows_reused = 0;
  /// States the loop iterates: the reachable closure of the initial
  /// support for the fused and tiled operators, the full state count for
  /// the pre-fusion reference.
  std::uint64_t active_states = 0;
  /// Stored entries of the matrix the loop iterates -- the honest
  /// per-step work unit for throughput metrics.
  std::uint64_t active_nonzeros = 0;
  /// Structure of the iterated matrix (0 where the operator does not
  /// know it): maximal |col - row|, rows inside >= 4-row equal-length
  /// runs (the metric state reordering exists to raise) and the longest
  /// such run.
  std::uint64_t matrix_bandwidth = 0;
  std::uint64_t groupable_rows = 0;
  std::uint64_t longest_uniform_run = 0;
  /// Rows repeating the previous row's full offset pattern (diagonal
  /// runs) and the longest such run; see linalg::StructureStats.
  std::uint64_t diagonal_rows = 0;
  std::uint64_t longest_diagonal_run = 0;
};

/// Called with (index, time, distribution) as soon as each requested time
/// point is ready.
using PointCallback =
    std::function<void(std::size_t, double, const std::vector<double>&)>;

/// `requested`, or 1.02 * max_exit_rate when it is 0 (1 for an
/// all-absorbing generator).  Throws InvalidArgument when the rate is
/// below the maximal exit rate.
double resolve_uniformization_rate(const Ctmc& chain, double requested);

/// Shared argument validation of every transient solver: `initial` is a
/// probability vector over the chain's states, `times` ascending and >= 0.
/// Throws InvalidArgument otherwise.
void check_transient_arguments(const Ctmc& chain,
                               const std::vector<double>& initial,
                               const std::vector<double>& times);

/// Indices of the non-zero entries of `initial` -- the seeds of the
/// reachable closure the loop iterates.
std::vector<std::uint32_t> support_of(const std::vector<double>& initial);

/// Steady-state / absorption short circuit: once
///     (window.right - n) * ||pi P^n - pi P^(n-1)||_inf <= epsilon / 2
/// holds on two consecutive steps, the rest of the window collapses onto
/// the converged vector by folding the whole remaining Poisson tail mass
/// into the accumulator.  The bound is a triangle inequality over the
/// remaining steps assuming the per-step changes keep shrinking -- the
/// classic PRISM/MRMC steady-state heuristic with a budgeted bound in
/// place of the usual absolute cut (a uniformised P is row-stochastic,
/// which does not contract the sup norm in general).  The
/// consecutive-step guard protects against a transient lull, and the
/// detection-on/off agreement tests pin the accuracy.  The detection
/// error is charged against the same per-increment budget as the
/// Fox-Glynn truncation, so the overall guarantee keeps its order.
class SteadyStateDetector {
 public:
  /// Throws InvalidArgument unless 0 < epsilon < 1.
  explicit SteadyStateDetector(double epsilon);

  /// Starts a new window.
  void reset() { calm_steps_ = 0; }

  /// Verdict after step n of `window` with sup-norm step change `delta`:
  /// the Poisson tail mass sum_{m > n} weight(m) to fold onto the current
  /// vector when the rest of the window is short-circuited, nullopt to
  /// keep stepping.  Never fires at n == window.right.
  std::optional<double> verdict(const PoissonWindow& window, std::uint64_t n,
                                double delta);

 private:
  double threshold_;
  std::uint64_t calm_steps_ = 0;  // consecutive steps inside the budget
};

/// The matrix side of one uniformisation loop.  The operator owns the
/// power iterate pi(t_k) P^n in the loop's state space; the driver owns
/// the accumulator.
class StepOperator {
 public:
  StepOperator() = default;
  StepOperator(const StepOperator&) = delete;
  StepOperator& operator=(const StepOperator&) = delete;
  StepOperator(StepOperator&&) = delete;
  StepOperator& operator=(StepOperator&&) = delete;
  virtual ~StepOperator() = default;

  /// Adds what the operator knows about its matrix (active_nonzeros and
  /// the structure fields) to `stats`.
  virtual void describe(TransientStats& stats) const = 0;

  /// Starts an increment: the power iterate becomes `current`.
  virtual void load(const std::vector<double>& current) = 0;

  /// One DTMC step: power <- power * P, then accum += weight * power
  /// (skipped for weight == 0).  Returns the sup-norm change of the power
  /// iterate, max |power_new - power_old|.
  virtual double step(double weight, std::vector<double>& accum) = 0;

  /// accum += residual * power (the steady-state tail fold).
  virtual void fold(double residual, std::vector<double>& accum) = 0;

  /// False when step() returns no usable delta; detection stays off.
  virtual bool reports_delta() const { return true; }
};

/// Runs the incremental uniformisation loop over a StepOperator.  One
/// driver serves any number of solves; Fox-Glynn windows stay memoised
/// across them.
class UniformizationDriver {
 public:
  /// Throws InvalidArgument unless 0 < options.epsilon < 1.
  explicit UniformizationDriver(TransientOptions options);

  /// Computes pi(t) for each t in `times` (validated by the caller, see
  /// check_transient_arguments) at uniformisation rate `rate`.  The loop
  /// runs in the operator's state space: `reachable` maps loop index to
  /// full-chain state (sorted), or is empty when the loop runs over every
  /// state.  `initial` and every emitted distribution are full-chain
  /// vectors.  Returns one distribution per time point when
  /// options.collect_results, and calls `on_point` as each point is ready.
  /// Resets the loop counters of `stats` and adds the operator's
  /// description; other fields are left alone.
  std::vector<std::vector<double>> run(StepOperator& op, double rate,
                                       std::span<const std::uint32_t> reachable,
                                       const std::vector<double>& initial,
                                       const std::vector<double>& times,
                                       const PointCallback& on_point,
                                       TransientStats& stats);

  const TransientOptions& options() const { return options_; }

 private:
  TransientOptions options_;
  SteadyStateDetector detector_;
  UniformizationPlan plan_;
  // Scratch reused across increments and solves: a whole lifetime curve
  // performs zero per-increment allocations.
  std::vector<double> accum_;
  std::vector<double> full_point_;
};

}  // namespace kibamrm::markov
