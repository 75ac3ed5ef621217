#include "kibamrm/engine/krylov_backend.hpp"

#include <algorithm>
#include <cmath>
#include <numbers>
#include <optional>
#include <string>

#include "kibamrm/common/error.hpp"
#include "kibamrm/linalg/arnoldi.hpp"
#include "kibamrm/linalg/expm.hpp"
#include "kibamrm/linalg/kernels.hpp"
#include "kibamrm/linalg/permutation.hpp"
#include "kibamrm/linalg/vector_ops.hpp"

namespace kibamrm::engine {

namespace {

// EXPOKIT-style controller constants: safety on the a-posteriori step
// update, clamped growth/shrink so one noisy estimate cannot fling tau.
constexpr double kSafety = 0.9;
constexpr double kMaxGrow = 5.0;
constexpr double kMinShrink = 0.1;
// Rejections on one Arnoldi factorisation before the solve gives up; the
// step shrinks at least 10% per rejection, so 60 means tau fell by > 500x
// without the estimate improving -- the projection is not converging.
constexpr std::size_t kMaxRejections = 60;
// Relative mass drift beyond which a sub-step is a blow-up, not noise.
// Stiff-chain matvecs carry round-off ~ eps * ||A|| per unit time (the
// fast terms cancel), so proportional drift up to ~1e-5 tau is expected
// and handled by the mass projection below; drift at the per-mille level
// means exp(tau H) diverged and the step must shrink instead.
constexpr double kMassBlowup = 1e-3;

// Adaptive-dimension floor: below four Krylov vectors the a-posteriori
// estimate loses its second-order term and the controller flails.
constexpr std::size_t kMinKrylovDim = 4;
// Grow/shrink quantum: a quarter of the current dimension (at least two),
// with shrinks gated on two consecutive steps of order-of-magnitude
// error-budget slack so one benign step cannot trigger a resize.
std::size_t dim_step(std::size_t m) { return std::max<std::size_t>(2, m / 4); }
constexpr double kSlackFraction = 0.01;

double l2_norm(const std::vector<double>& v) {
  return linalg::kernels::nrm2(v.data(), v.size());
}

}  // namespace

KrylovBackend::KrylovBackend(BackendOptions options)
    : options_(options),
      pool_(std::make_unique<common::ThreadPool>(options.threads)) {
  KIBAMRM_REQUIRE(options_.epsilon > 0.0 && options_.epsilon < 1.0,
                  "krylov epsilon must lie in (0,1)");
  KIBAMRM_REQUIRE(options_.krylov_dim >= 1,
                  "krylov subspace dimension must be >= 1");
  KIBAMRM_REQUIRE(options_.krylov_max_substeps >= 1,
                  "krylov sub-step budget must be >= 1");
}

std::vector<std::vector<double>> KrylovBackend::solve(
    const markov::Ctmc& chain, const std::vector<double>& initial,
    const std::vector<double>& times, const PointCallback& on_point) {
  markov::check_transient_arguments(chain, initial, times);

  stats_ = BackendStats{};
  stats_.time_points = times.size();

  // Row-vector evolution pi' = pi Q becomes the column problem
  // w' = Q^T w; the transposed matvec is a gather over rows of Q^T, so
  // disjoint row ranges write disjoint outputs and the pool shard is
  // bitwise independent of the partition (same argument as the parallel
  // uniformisation backend).
  //
  // Like the fused uniformisation engines, the whole solve runs in the
  // reachable closure of the initial support: probability mass can never
  // leave it, so restricting Q^T to closure x closure is exact -- and
  // the expanded battery chains reach only about half their states from
  // the standard full-charge start, which halves every matvec AND every
  // m^2 n orthogonalisation sweep.  The closure is thread-independent,
  // so the bitwise-determinism guarantee is untouched.
  std::vector<std::uint32_t> seeds;
  for (std::size_t i = 0; i < initial.size(); ++i) {
    if (initial[i] != 0.0) seeds.push_back(static_cast<std::uint32_t>(i));
  }
  const std::vector<std::uint32_t> reachable =
      chain.generator().reachable_rows(seeds);
  const bool compacted = reachable.size() < chain.state_count();
  const linalg::CsrMatrix qt =
      compacted ? chain.generator().transposed_submatrix(reachable)
                : chain.generator().transposed();
  const std::size_t n = qt.rows();
  stats_.active_states = n;
  stats_.active_nonzeros = qt.nonzeros();
  const linalg::StructureStats structure = linalg::structure_stats(qt);
  stats_.matrix_bandwidth = structure.bandwidth;
  stats_.groupable_rows = structure.groupable_rows;
  stats_.longest_uniform_run = structure.longest_uniform_run;
  stats_.diagonal_rows = structure.diagonal_rows;
  stats_.longest_diagonal_run = structure.longest_diagonal_run;
  // ||Q^T||_1 = max_i sum_j |Q(i,j)| = 2 max_i exit_rate(i), exactly, for
  // a generator: the scale of the step-size heuristics.
  const double anorm = 2.0 * chain.max_exit_rate();
  m_cap_ = std::min<std::size_t>(options_.krylov_dim, n);
  m_floor_ = std::min(kMinKrylovDim, m_cap_);
  // Each solve starts at the cap (the fixed-m behaviour) and earns its
  // way down; the learned dimension persists across the increments of
  // this solve, like the controller step.
  current_m_ = m_cap_;
  slack_streak_ = 0;

  const GatherShardPlan shards =
      plan_gather_shards(qt, pool_->thread_count());
  const auto matvec = [&](const std::vector<double>& in,
                          std::vector<double>& out) {
    if (shards.use_pool) {
      pool_->parallel_for(shards.shard_count(),
                          [&](std::size_t shard, std::size_t /*lane*/) {
                            qt.multiply_range(in, out, shards.ranges[shard],
                                              shards.ranges[shard + 1]);
                          });
    } else {
      qt.multiply_range(in, out, 0, n);
    }
    ++stats_.iterations;
  };

  basis_.resize(m_cap_ + 1);
  for (auto& vector : basis_) vector.assign(n, 0.0);
  hess_ = linalg::DenseReal(m_cap_ + 1, m_cap_);
  residual_.assign(n, 0.0);
  stepped_.assign(n, 0.0);
  previous_tau_ = 0.0;

  std::vector<std::vector<double>> results;
  if (options_.collect_distributions) results.reserve(times.size());

  std::vector<double> current;  // pi(t_k), in closure space
  if (compacted) {
    current.resize(n);
    for (std::size_t i = 0; i < n; ++i) current[i] = initial[reachable[i]];
    full_point_.assign(initial.size(), 0.0);
  } else {
    current = initial;
  }
  // Expands the compacted state into full_point_ for results and
  // callbacks; pass-through without compaction.  Unreachable entries are
  // zero forever, so only the closure entries are ever rewritten.
  const auto emit_view =
      [&](const std::vector<double>& point) -> const std::vector<double>& {
    if (!compacted) return point;
    for (std::size_t i = 0; i < n; ++i) {
      full_point_[reachable[i]] = point[i];
    }
    return full_point_;
  };

  double current_time = 0.0;
  for (std::size_t idx = 0; idx < times.size(); ++idx) {
    const double dt = times[idx] - current_time;
    if (dt > 0.0) {
      if (anorm > 0.0) {
        integrate(matvec, current, dt, anorm);
      }  // all-absorbing generator: exp(Q t) = I, the state carries over
      if (options_.renormalize) {
        linalg::normalize_probability(current);
      }
      current_time = times[idx];
    }
    if (options_.collect_distributions || on_point) {
      const std::vector<double>& point = emit_view(current);
      if (options_.collect_distributions) results.push_back(point);
      if (on_point) on_point(idx, times[idx], point);
    }
  }
  return results;
}

void KrylovBackend::integrate(
    const std::function<void(const std::vector<double>&,
                             std::vector<double>&)>& matvec,
    std::vector<double>& state, double dt, double anorm) {
  // Error budget per unit time: accepted sub-steps charge err <= tau * tol
  // so the whole increment stays within `epsilon` -- the same per-increment
  // contract the uniformisation engines honour.
  const double tol = options_.epsilon / dt;
  // Arnoldi declares a happy breakdown when the residual is at round-off
  // scale *relative to the current matvec* -- a couple of decades above
  // machine epsilon, so reorthogonalised round-off cannot fake slow
  // couplings, while genuine invariance (absorbed mass, n <= m chains)
  // is still caught.
  constexpr double kBreakdownRelative = 1e-14;

  double beta = l2_norm(state);
  if (beta == 0.0) return;

  double tau;
  if (previous_tau_ > 0.0) {
    // The controller's converged sub-step from the previous increment:
    // uniform curve grids repeat the same increment, so the ramp-up from
    // the a-priori guess is paid once per solve, not once per point.
    tau = previous_tau_;
  } else {
    // EXPOKIT's initial tau: equate the leading truncation term of the
    // m-term Krylov series, (anorm tau)^m / m!, with the budget.  The
    // controller refines from there, so only the order of magnitude
    // counts.
    const double md = static_cast<double>(current_m_);
    const double fact = std::pow((md + 1.0) / std::exp(1.0), md + 1.0) *
                        std::sqrt(2.0 * std::numbers::pi * (md + 1.0));
    tau = (1.0 / anorm) *
          std::pow(fact * tol / (4.0 * beta * anorm), 1.0 / md);
    if (!std::isfinite(tau) || tau <= 0.0) tau = dt;
  }

  double t_done = 0.0;
  std::size_t substeps_taken = 0;
  while (t_done < dt) {
    // Round-off tail: once the remainder is negligible relative to the
    // increment, it cannot move the distribution within the budget.
    if (dt - t_done <= 1e-12 * dt) break;
    if (++substeps_taken > options_.krylov_max_substeps) {
      throw NumericalError(
          "krylov engine: sub-step budget exhausted after " +
          std::to_string(options_.krylov_max_substeps) +
          " steps (raise krylov_max_substeps or epsilon)");
    }

    // The subspace dimension this factorisation runs at (adapted between
    // sub-steps, see below); the controller exponents follow it.
    const std::size_t m = current_m_;
    const double md = static_cast<double>(m);
    const double xm_default = 1.0 / md;

    beta = l2_norm(state);
    if (beta == 0.0) return;
    basis_[0] = state;
    linalg::scale(basis_[0], 1.0 / beta);
    const linalg::ArnoldiResult arn = linalg::arnoldi(
        matvec, basis_, hess_, m, kBreakdownRelative, pool_.get(),
        &arnoldi_ws_);
    stats_.krylov_dim = std::max<std::uint64_t>(stats_.krylov_dim, arn.dim);
    stats_.krylov_ortho_work +=
        static_cast<std::uint64_t>(arn.dim) * arn.dim;
    const std::size_t k = arn.dim;

    // Happy breakdown: K_k is invariant, the projected exponential is
    // exact, so the error estimate is zero and every trial is accepted
    // (tau still grows geometrically through the controller instead of
    // jumping to the full remainder -- the residual is only zero to
    // round-off, and bounded growth keeps that error incremental).
    double avnorm = 0.0;
    std::optional<linalg::ScaledExpmCache> cache;
    if (arn.happy_breakdown) {
      linalg::DenseReal hk(k, k);
      for (std::size_t i = 0; i < k; ++i) {
        for (std::size_t j = 0; j < k; ++j) hk(i, j) = hess_(i, j);
      }
      cache.emplace(hk);
    } else {
      // EXPOKIT's augmented matrix: the (m+1) x m Hessenberg (its last
      // row is h_{m+1,m} e_m^T) plus the chain entry e_{m+2} e_{m+1}^T.
      // Rows m+1 and m+2 of its exponential deliver the first- and
      // second-order terms of the a-posteriori error expansion; the
      // zero final column is implied by the tall shape (the cache pads).
      linalg::DenseReal augmented(m + 2, m + 1);
      for (std::size_t i = 0; i <= m; ++i) {
        for (std::size_t j = 0; j < m; ++j) augmented(i, j) = hess_(i, j);
      }
      augmented(m + 1, m) = 1.0;
      cache.emplace(augmented);
      matvec(basis_[m], residual_);
      avnorm = l2_norm(residual_);
    }

    std::size_t rejections = 0;
    for (;;) {
      // The attempted sub-step is clipped to the increment boundary; the
      // clip must not feed back into the controller step tau below.
      const double attempted = std::min(tau, dt - t_done);
      if (!(t_done + attempted > t_done)) {
        throw NumericalError(
            "krylov engine: sub-step size underflow (error estimate not "
            "converging; raise krylov_dim or epsilon)");
      }
      const linalg::DenseReal f = cache->expm(attempted);
      ++stats_.hessenberg_expms;

      double err = 0.0;
      double xm = xm_default;
      if (!arn.happy_breakdown) {
        const double p1 = std::abs(beta * f(m, 0));
        const double p2 = std::abs(beta * f(m + 1, 0)) * avnorm;
        if (p1 > 10.0 * p2) {
          err = p2;
        } else if (p1 > p2) {
          err = p1 * p2 / (p1 - p2);
        } else {
          err = p1;
          if (m > 1) xm = 1.0 / (md - 1.0);
        }
      }

      double factor;  // the controller's proposed tau multiplier
      if (!std::isfinite(err)) {
        factor = kMinShrink;  // overflow in the estimate: back off hard
      } else if (err > 0.0) {
        factor = kSafety * std::pow(attempted * tol / err, xm);
      } else {
        factor = kMaxGrow;
      }
      double proposed = attempted * std::clamp(factor, kMinShrink, kMaxGrow);

      bool accepted = std::isfinite(err) && err <= attempted * tol;
      if (accepted) {
        // Tentatively build the step: EXPOKIT's corrected scheme spends
        // one more column than the plain projection -- F(m+1,1) pairs
        // with v_{m+1}.
        const std::size_t columns = arn.happy_breakdown ? k : m + 1;
        linalg::fill(stepped_, 0.0);
        for (std::size_t j = 0; j < columns; ++j) {
          linalg::axpy(beta * f(j, 0), basis_[j], stepped_);
        }
        // Mass handling: columns of Q^T sum to zero, so the true flow
        // preserves sum(w) exactly.  The Krylov step does not inherit
        // the invariant: stiff matvecs cancel +-||A||-scale terms and
        // leave noise ~ eps ||A|| per unit time, which would otherwise
        // random-walk the total mass by percents over a long horizon
        // (and the asymptotic p1/p2 estimate is blind to it).  Small
        // drift is *projected out* by rescaling onto the mass shell;
        // drift at the kMassBlowup level means the projected exponential
        // genuinely diverged -- reject and back off hard.
        const double target_mass = linalg::sum(state);
        const double stepped_mass = linalg::sum(stepped_);
        const double drift = std::abs(stepped_mass - target_mass);
        if (drift <= kMassBlowup * std::abs(target_mass)) {
          if (drift > 0.0) {
            linalg::scale(stepped_, target_mass / stepped_mass);
          }
        } else {
          accepted = false;
          proposed = attempted * 0.25;
        }
      }

      if (accepted) {
        state.swap(stepped_);
        // kibamrm-lint: allow(reduction-contract) sequential time-marching sum; step sizes arrive one at a time, order is the control flow itself
        t_done += attempted;
        ++stats_.substeps;
        // A boundary-clipped accepted step says nothing against the
        // larger controller step; keep whichever is bigger (the policy
        // the adaptive backend uses for the same clip).
        tau = attempted < tau ? std::max(tau, proposed) : proposed;
        // Adapt the next factorisation's dimension off what this sub-step
        // learned.  The accept test above is untouched, so these moves
        // trade matvecs/orthogonalisation against re-stepping without
        // ever loosening the error contract.
        if (options_.krylov_adaptive_dim) {
          if (arn.happy_breakdown) {
            // The subspace closed at k; the state moves, so keep a small
            // margin rather than pinning m = k.
            current_m_ = std::clamp(k + 2, m_floor_, m_cap_);
            slack_streak_ = 0;
          } else if (rejections > 0) {
            // Accuracy-limited: a deeper subspace lifts the attainable
            // step faster than tau-shrinking re-trials converge.
            current_m_ = std::min(m_cap_, m + dim_step(m));
            slack_streak_ = 0;
          } else if (err <= kSlackFraction * attempted * tol) {
            // Order-of-magnitude budget slack: a shallower subspace
            // would have passed too.  Two consecutive slack steps guard
            // against a transient lull; an over-shrink is repaired by
            // the rejection branch above.
            if (++slack_streak_ >= 2) {
              current_m_ =
                  std::max(m_floor_, m - std::min(m - m_floor_, dim_step(m)));
              slack_streak_ = 0;
            }
          } else {
            slack_streak_ = 0;
          }
        }
        break;
      }

      ++rejections;
      if (rejections > kMaxRejections) {
        throw NumericalError(
            "krylov engine: " + std::to_string(kMaxRejections) +
            " consecutive sub-steps rejected (chain too stiff for the "
            "configured krylov_dim; raise it or epsilon)");
      }
      tau = std::min(proposed, attempted * kSafety);  // guaranteed shrink
    }
  }
  previous_tau_ = tau;
}

}  // namespace kibamrm::engine
