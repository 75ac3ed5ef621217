#include "kibamrm/markov/uniformization_driver.hpp"

#include <algorithm>

#include "kibamrm/common/error.hpp"
#include "kibamrm/linalg/vector_ops.hpp"

namespace kibamrm::markov {

double resolve_uniformization_rate(const Ctmc& chain, double requested) {
  double rate = requested;
  if (rate == 0.0) {
    rate = 1.02 * chain.max_exit_rate();
    if (rate == 0.0) rate = 1.0;  // generator is all-absorbing
  }
  KIBAMRM_REQUIRE(rate * (1.0 + 1e-12) >= chain.max_exit_rate(),
                  "uniformization rate below maximal exit rate");
  return rate;
}

void check_transient_arguments(const Ctmc& chain,
                               const std::vector<double>& initial,
                               const std::vector<double>& times) {
  KIBAMRM_REQUIRE(initial.size() == chain.state_count(),
                  "initial distribution has wrong dimension");
  KIBAMRM_REQUIRE(linalg::is_probability_vector(initial, 1e-6),
                  "initial vector is not a probability distribution");
  KIBAMRM_REQUIRE(std::is_sorted(times.begin(), times.end()),
                  "time points must be sorted ascending");
  KIBAMRM_REQUIRE(times.empty() || times.front() >= 0.0,
                  "time points must be non-negative");
}

std::vector<std::uint32_t> support_of(const std::vector<double>& initial) {
  std::vector<std::uint32_t> seeds;
  for (std::size_t i = 0; i < initial.size(); ++i) {
    if (initial[i] != 0.0) seeds.push_back(static_cast<std::uint32_t>(i));
  }
  return seeds;
}

SteadyStateDetector::SteadyStateDetector(double epsilon)
    : threshold_(epsilon / 2.0) {
  KIBAMRM_REQUIRE(epsilon > 0.0 && epsilon < 1.0,
                  "transient epsilon must lie in (0,1)");
}

std::optional<double> SteadyStateDetector::verdict(
    const PoissonWindow& window, std::uint64_t n, double delta) {
  if (n >= window.right ||
      !(static_cast<double>(window.right - n) * delta <= threshold_)) {
    calm_steps_ = 0;
    return std::nullopt;
  }
  if (++calm_steps_ < 2) return std::nullopt;
  double residual = 0.0;  // remaining tail mass, summed in ascending m
  for (std::uint64_t m = n + 1; m <= window.right; ++m) {
    residual += window.weight(m);
  }
  return residual;
}

UniformizationDriver::UniformizationDriver(TransientOptions options)
    : options_(options), detector_(options.epsilon) {}

std::vector<std::vector<double>> UniformizationDriver::run(
    StepOperator& op, double rate, std::span<const std::uint32_t> reachable,
    const std::vector<double>& initial, const std::vector<double>& times,
    const PointCallback& on_point, TransientStats& stats) {
  const bool compact = !reachable.empty();
  stats.iterations = 0;
  stats.iterations_saved = 0;
  stats.steady_state_hits = 0;
  stats.uniformization_rate = rate;
  stats.time_points = times.size();
  stats.active_states = compact ? reachable.size() : initial.size();
  op.describe(stats);
  const std::uint64_t windows_computed_before = plan_.windows_computed();
  const std::uint64_t windows_reused_before = plan_.windows_reused();
  const bool detect = options_.steady_state_detection && op.reports_delta();

  std::vector<double> current;  // pi(t_k), in loop space
  if (compact) {
    current.resize(reachable.size());
    for (std::size_t i = 0; i < reachable.size(); ++i) {
      current[i] = initial[reachable[i]];
    }
    // Unreachable entries are zero forever, so only the compacted
    // entries are ever rewritten.
    full_point_.assign(initial.size(), 0.0);
  } else {
    current = initial;
  }
  accum_.assign(current.size(), 0.0);

  std::vector<std::vector<double>> results;
  if (options_.collect_results) results.reserve(times.size());
  double current_time = 0.0;
  for (std::size_t idx = 0; idx < times.size(); ++idx) {
    const double dt = times[idx] - current_time;
    if (dt > 0.0) {
      const std::shared_ptr<const PoissonWindow> window_ptr =
          plan_.window(rate * dt, options_.epsilon);
      const PoissonWindow& window = *window_ptr;
      linalg::fill(accum_, 0.0);
      op.load(current);
      // n = 0 term: current == pi(t_k) exactly, in full precision on
      // every operator.
      if (window.left == 0) {
        linalg::axpy(window.weight(0), current, accum_);
      }
      detector_.reset();
      for (std::uint64_t n = 1; n <= window.right; ++n) {
        const double weight = n >= window.left ? window.weight(n) : 0.0;
        const double delta = op.step(weight, accum_);
        ++stats.iterations;
        if (!detect) continue;
        if (const std::optional<double> residual =
                detector_.verdict(window, n, delta)) {
          if (*residual > 0.0) op.fold(*residual, accum_);
          stats.iterations_saved += window.right - n;
          ++stats.steady_state_hits;
          break;
        }
      }
      current.swap(accum_);
      if (options_.renormalize) {
        linalg::normalize_probability(current);
      }
      current_time = times[idx];
    }
    if (options_.collect_results || on_point) {
      if (compact) {
        for (std::size_t i = 0; i < reachable.size(); ++i) {
          full_point_[reachable[i]] = current[i];
        }
      }
      const std::vector<double>& point = compact ? full_point_ : current;
      if (options_.collect_results) results.push_back(point);
      if (on_point) on_point(idx, times[idx], point);
    }
  }
  stats.windows_computed = plan_.windows_computed() - windows_computed_before;
  stats.windows_reused = plan_.windows_reused() - windows_reused_before;
  return results;
}

}  // namespace kibamrm::markov
