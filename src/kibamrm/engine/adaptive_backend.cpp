#include "kibamrm/engine/adaptive_backend.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

#include "kibamrm/common/error.hpp"
#include "kibamrm/linalg/vector_ops.hpp"

namespace kibamrm::engine {

namespace {

// Dormand-Prince 5(4) tableau (the RK45 of MATLAB's ode45).  The 5th-order
// weights b are also the last stage row (FSAL): k7 of an accepted step is
// k1 of the next.
constexpr double kA21 = 1.0 / 5.0;
constexpr double kA31 = 3.0 / 40.0, kA32 = 9.0 / 40.0;
constexpr double kA41 = 44.0 / 45.0, kA42 = -56.0 / 15.0, kA43 = 32.0 / 9.0;
constexpr double kA51 = 19372.0 / 6561.0, kA52 = -25360.0 / 2187.0,
                 kA53 = 64448.0 / 6561.0, kA54 = -212.0 / 729.0;
constexpr double kA61 = 9017.0 / 3168.0, kA62 = -355.0 / 33.0,
                 kA63 = 46732.0 / 5247.0, kA64 = 49.0 / 176.0,
                 kA65 = -5103.0 / 18656.0;
constexpr double kB1 = 35.0 / 384.0, kB3 = 500.0 / 1113.0,
                 kB4 = 125.0 / 192.0, kB5 = -2187.0 / 6784.0,
                 kB6 = 11.0 / 84.0;
// Error weights: b - b_hat (4th-order embedded solution).
constexpr double kE1 = kB1 - 5179.0 / 57600.0;
constexpr double kE3 = kB3 - 7571.0 / 16695.0;
constexpr double kE4 = kB4 - 393.0 / 640.0;
constexpr double kE5 = kB5 - -92097.0 / 339200.0;
constexpr double kE6 = kB6 - 187.0 / 2100.0;
constexpr double kE7 = -1.0 / 40.0;

constexpr double kSafety = 0.9;
constexpr double kMinShrink = 0.2;
constexpr double kMaxGrow = 5.0;

}  // namespace

AdaptiveBackend::AdaptiveBackend(BackendOptions options) : options_(options) {
  KIBAMRM_REQUIRE(options_.epsilon > 0.0 && options_.epsilon < 1.0,
                  "adaptive epsilon must lie in (0,1)");
}

std::vector<std::vector<double>> AdaptiveBackend::solve(
    const markov::Ctmc& chain, const std::vector<double>& initial,
    const std::vector<double>& times, const PointCallback& on_point) {
  markov::check_transient_arguments(chain, initial, times);

  stats_ = BackendStats{};
  stats_.time_points = times.size();

  stages_.assign(7, std::vector<double>(initial.size(), 0.0));
  trial_.assign(initial.size(), 0.0);
  first_same_as_last_valid_ = false;
  previous_step_ = 0.0;

  std::vector<std::vector<double>> results;
  results.reserve(times.size());

  std::vector<double> current = initial;
  double current_time = 0.0;
  for (std::size_t idx = 0; idx < times.size(); ++idx) {
    if (times[idx] > current_time) {
      integrate(chain, current, current_time, times[idx]);
      if (options_.renormalize) {
        linalg::normalize_probability(current);
        first_same_as_last_valid_ = false;  // renormalisation moved the state
      }
      current_time = times[idx];
    }
    if (options_.collect_distributions) results.push_back(current);
    if (on_point) on_point(idx, times[idx], current);
  }
  return results;
}

void AdaptiveBackend::integrate(const markov::Ctmc& chain,
                                std::vector<double>& state, double t_from,
                                double t_to) {
  const auto& q = chain.generator();
  const double rtol = options_.epsilon;
  const double atol = std::max(1e-14, rtol * 1e-4);

  auto rhs = [&](const std::vector<double>& y, std::vector<double>& dy) {
    q.left_multiply(y, dy);
    ++stats_.iterations;
  };

  auto& k1 = stages_[0];
  auto& k2 = stages_[1];
  auto& k3 = stages_[2];
  auto& k4 = stages_[3];
  auto& k5 = stages_[4];
  auto& k6 = stages_[5];
  auto& k7 = stages_[6];

  double t = t_from;
  // Initial step: the controller's converged step from the previous
  // increment when available, else the exit-rate scale (the transient
  // decays on ~1/q; the controller refines from there).
  double h = t_to - t_from;
  if (previous_step_ > 0.0) {
    h = std::min(h, previous_step_);
  } else {
    const double rate_scale = chain.max_exit_rate();
    if (rate_scale > 0.0) h = std::min(h, 0.5 / rate_scale);
  }

  if (!first_same_as_last_valid_) {
    rhs(state, k1);
    first_same_as_last_valid_ = true;
  }

  const std::size_t n = state.size();
  while (t < t_to) {
    // Round-off guard: once the remaining span is negligible relative to
    // the target the increment is done (avoids a denormal final step).
    if (t_to - t <= 1e-12 * std::max(1.0, std::abs(t_to))) break;
    // The attempted step is clipped to the output boundary; the clip must
    // not feed back into the controller step h below.
    const double step = std::min(h, t_to - t);
    // Step-size underflow: the step can no longer advance the clock, or
    // it is below the remaining span times machine epsilon -- finishing
    // the increment would then take more than ~1/eps steps, so the
    // stepper cannot succeed no matter how long it runs.  (The clock
    // test alone only fires at t ~ step/eps, which stiff chains never
    // reach in bounded work.)
    if (!(t + step > t) ||
        step <= std::numeric_limits<double>::epsilon() * (t_to - t)) {
      throw NumericalError(
          "adaptive engine: step size underflow (chain too stiff for the "
          "explicit stepper; use the krylov or uniformization engine)");
    }

    // Stage cascade; trial_ holds the running argument.
    for (std::size_t i = 0; i < n; ++i) {
      trial_[i] = state[i] + step * kA21 * k1[i];
    }
    rhs(trial_, k2);
    for (std::size_t i = 0; i < n; ++i) {
      trial_[i] = state[i] + step * (kA31 * k1[i] + kA32 * k2[i]);
    }
    rhs(trial_, k3);
    for (std::size_t i = 0; i < n; ++i) {
      trial_[i] = state[i] + step * (kA41 * k1[i] + kA42 * k2[i] +
                                     kA43 * k3[i]);
    }
    rhs(trial_, k4);
    for (std::size_t i = 0; i < n; ++i) {
      trial_[i] = state[i] + step * (kA51 * k1[i] + kA52 * k2[i] +
                                     kA53 * k3[i] + kA54 * k4[i]);
    }
    rhs(trial_, k5);
    for (std::size_t i = 0; i < n; ++i) {
      trial_[i] = state[i] + step * (kA61 * k1[i] + kA62 * k2[i] +
                                     kA63 * k3[i] + kA64 * k4[i] +
                                     kA65 * k5[i]);
    }
    rhs(trial_, k6);
    // 5th-order solution (also the 7th stage argument, FSAL).
    for (std::size_t i = 0; i < n; ++i) {
      trial_[i] = state[i] + step * (kB1 * k1[i] + kB3 * k3[i] +
                                     kB4 * k4[i] + kB5 * k5[i] +
                                     kB6 * k6[i]);
    }
    rhs(trial_, k7);

    // Scaled max-norm of the embedded error estimate.  A NaN component
    // (overflowed stages cancelling Inf - Inf) must force a rejection
    // explicitly: std::max(err, NaN) keeps err, so NaN would otherwise
    // vanish from the estimate and the broken step would be *accepted*.
    double err = 0.0;
    for (std::size_t i = 0; i < n; ++i) {
      const double e = step * (kE1 * k1[i] + kE3 * k3[i] + kE4 * k4[i] +
                               kE5 * k5[i] + kE6 * k6[i] + kE7 * k7[i]);
      const double scale =
          atol + rtol * std::max(std::abs(state[i]), std::abs(trial_[i]));
      const double component = std::abs(e) / scale;
      if (!std::isfinite(component)) {
        err = std::numeric_limits<double>::infinity();
        break;
      }
      err = std::max(err, component);
    }

    const bool accepted = err <= 1.0;
    if (accepted) {
      t += step;
      state.swap(trial_);
      k1.swap(k7);  // FSAL: the last stage is the next first stage
    } else {
      ++stats_.rejected_steps;
    }
    // A non-finite estimate (overflowed stages on violently stiff
    // chains) must shrink the step: the `err > 0.0` test alone let NaN
    // select kMaxGrow, growing the step on every rejection -- an
    // infinite loop instead of the documented underflow failure.
    const double factor = !std::isfinite(err) ? kMinShrink
                          : err > 0.0         ? kSafety * std::pow(err, -0.2)
                                              : kMaxGrow;
    const double proposed = step * std::clamp(factor, kMinShrink, kMaxGrow);
    if (accepted && step < h) {
      // A boundary-clipped accepted step says nothing against the larger
      // controller step; keep whichever is bigger.
      h = std::max(h, proposed);
    } else {
      h = proposed;
    }
  }
  previous_step_ = h;
}

}  // namespace kibamrm::engine
