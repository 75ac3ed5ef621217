#include "kibamrm/engine/dense_expm_backend.hpp"

#include <cmath>
#include <string>
#include <utility>
#include <vector>

#include "kibamrm/common/error.hpp"
#include "kibamrm/linalg/expm.hpp"
#include "kibamrm/linalg/vector_ops.hpp"

namespace kibamrm::engine {

DenseExpmBackend::DenseExpmBackend(BackendOptions options)
    : options_(options) {
  KIBAMRM_REQUIRE(options_.dense_state_limit > 0,
                  "dense engine: state limit must be positive");
}

std::vector<std::vector<double>> DenseExpmBackend::solve(
    const markov::Ctmc& chain, const std::vector<double>& initial,
    const std::vector<double>& times, const PointCallback& on_point) {
  markov::check_transient_arguments(chain, initial, times);
  if (chain.state_count() > options_.dense_state_limit) {
    throw UnsupportedChainError(
        "dense engine: chain has " + std::to_string(chain.state_count()) +
        " states, above the dense_state_limit of " +
        std::to_string(options_.dense_state_limit) +
        "; use the uniformization engine");
  }

  stats_ = BackendStats{};
  stats_.time_points = times.size();

  const linalg::DenseReal q = chain.dense_generator();

  // Uniform grids repeat the same increment; cache propagators per dt.
  std::vector<std::pair<double, linalg::DenseReal>> propagators;
  const auto propagator_for = [&](double dt) -> const linalg::DenseReal& {
    for (const auto& [cached_dt, e] : propagators) {
      if (std::abs(cached_dt - dt) <= 1e-12 * std::max(1.0, dt)) return e;
    }
    propagators.emplace_back(dt, linalg::expm(q.scaled(dt)));
    ++stats_.iterations;  // one dense exponential evaluated
    return propagators.back().second;
  };

  std::vector<std::vector<double>> results;
  results.reserve(times.size());

  std::vector<double> current = initial;
  double current_time = 0.0;
  for (std::size_t idx = 0; idx < times.size(); ++idx) {
    const double dt = times[idx] - current_time;
    if (dt > 0.0) {
      current = propagator_for(dt).left_multiply(current);
      if (options_.renormalize) {
        linalg::normalize_probability(current);
      }
      current_time = times[idx];
    }
    if (options_.collect_distributions) results.push_back(current);
    if (on_point) on_point(idx, times[idx], current);
  }
  return results;
}

}  // namespace kibamrm::engine
