#include "kibamrm/markov/uniformization.hpp"

#include <algorithm>

#include "kibamrm/common/error.hpp"
#include "kibamrm/linalg/kernels.hpp"
#include "kibamrm/linalg/vector_ops.hpp"

namespace kibamrm::markov {

namespace {

/// Runs range_step(begin, end) over every range -- as pool tasks when a
/// pool is given and there is more than one range, inline otherwise --
/// and returns the max of the results.
template <typename RangeStep>
double for_each_range(common::ThreadPool* pool,
                      const std::vector<std::size_t>& ranges,
                      std::vector<double>& partials, RangeStep&& range_step) {
  if (pool == nullptr || ranges.size() <= 2) {
    return range_step(ranges.front(), ranges.back());
  }
  pool->parallel_for(partials.size(),
                     [&](std::size_t shard, std::size_t /*lane*/) {
                       partials[shard] =
                           range_step(ranges[shard], ranges[shard + 1]);
                     });
  double delta = 0.0;
  for (const double partial : partials) delta = std::max(delta, partial);
  return delta;
}

}  // namespace

std::shared_ptr<const CachedGatherPlan> build_cached_gather_plan(
    const linalg::CsrMatrix& generator, double rate,
    std::span<const std::uint32_t> seeds) {
  auto cached = std::make_shared<CachedGatherPlan>();
  linalg::CsrMatrix p = generator.uniformized(rate);
  cached->reachable = p.reachable_rows(seeds);
  linalg::CsrMatrix pt = p.transposed_submatrix(cached->reachable);
  p = linalg::CsrMatrix(1, 1);  // only needed for setup
  cached->structure = linalg::structure_stats(pt);
  cached->nonzeros = pt.nonzeros();
  const std::size_t n = pt.rows();
  const std::span<const std::uint32_t> row_ptr = pt.row_pointers();
  const std::span<const std::uint32_t> col_idx = pt.column_indices();
  cached->row_entry_counts.assign(n, 0);
  cached->row_col_lo.assign(n, 0);
  cached->row_col_hi.assign(n, 0);
  for (std::size_t r = 0; r < n; ++r) {
    const std::uint32_t entries = row_ptr[r + 1] - row_ptr[r];
    cached->row_entry_counts[r] = entries;
    if (entries > 0) {
      // CSR columns are sorted: first/last stored column bound the row's
      // gather footprint.
      cached->row_col_lo[r] = col_idx[row_ptr[r]];
      cached->row_col_hi[r] = col_idx[row_ptr[r + 1] - 1];
    }
  }
  cached->plan = linalg::FusedGatherPlan::build(pt);
  if (cached->plan) {
    // The packed layout replaces the CSR copy; chains that fit neither
    // compressed layout keep the transpose as the kernel fallback.
    pt = linalg::CsrMatrix(1, 1);
  }
  cached->transpose = std::move(pt);
  return cached;
}

FusedGatherStep::FusedGatherStep(const CachedGatherPlan& setup,
                                 common::ThreadPool* pool,
                                 std::vector<std::size_t> ranges)
    : setup_(setup),
      // The mixed tier applies only where a float32 kernel exists (the
      // row-offset gather plan); other chains silently run the double
      // kernels -- "mixed" is a throughput hint, not a semantic switch.
      mixed_(setup.plan && setup.plan->mixed_supported() &&
             linalg::kernels::active_dispatch() ==
                 linalg::kernels::Dispatch::kMixed),
      pool_(pool),
      ranges_(std::move(ranges)),
      shard_deltas_(ranges_.size() - 1, 0.0) {
  const std::size_t n = setup_.rows();
  if (mixed_) {
    power_f_.resize(n);
    next_f_.resize(n);
  } else {
    power_.resize(n);
    next_.resize(n);
  }
}

void FusedGatherStep::describe(TransientStats& stats) const {
  stats.active_nonzeros = setup_.nonzeros;
  stats.matrix_bandwidth = setup_.structure.bandwidth;
  stats.groupable_rows = setup_.structure.groupable_rows;
  stats.longest_uniform_run = setup_.structure.longest_uniform_run;
  stats.diagonal_rows = setup_.structure.diagonal_rows;
  stats.longest_diagonal_run = setup_.structure.longest_diagonal_run;
}

void FusedGatherStep::load(const std::vector<double>& current) {
  if (mixed_) {
    for (std::size_t i = 0; i < current.size(); ++i) {
      power_f_[i] = static_cast<float>(current[i]);
    }
  } else {
    std::copy(current.begin(), current.end(), power_.begin());
  }
}

double FusedGatherStep::step(double weight, std::vector<double>& accum) {
  const double delta = for_each_range(
      pool_, ranges_, shard_deltas_, [&](std::size_t begin, std::size_t end) {
        if (mixed_) {
          return setup_.plan->multiply_fused_range_mixed(
              power_f_, next_f_, accum, weight, begin, end);
        }
        return setup_.plan ? setup_.plan->multiply_fused_range(
                                 power_, next_, accum, weight, begin, end)
                           : setup_.transpose.multiply_fused_range(
                                 power_, next_, accum, weight, begin, end);
      });
  if (mixed_) {
    power_f_.swap(next_f_);
  } else {
    power_.swap(next_);
  }
  return delta;
}

void FusedGatherStep::fold(double residual, std::vector<double>& accum) {
  if (!mixed_) {
    linalg::axpy(residual, power_, accum);
    return;
  }
  for (std::size_t i = 0; i < accum.size(); ++i) {
    accum[i] += residual * static_cast<double>(power_f_[i]);
  }
}

GatherReferenceStep::GatherReferenceStep(linalg::CsrMatrix transpose,
                                         common::ThreadPool* pool,
                                         std::vector<std::size_t> ranges)
    : transpose_(std::move(transpose)),
      pool_(pool),
      ranges_(std::move(ranges)),
      shard_deltas_(ranges_.size() - 1, 0.0),
      power_(transpose_.rows(), 0.0),
      next_(transpose_.rows(), 0.0) {}

void GatherReferenceStep::describe(TransientStats& stats) const {
  stats.active_nonzeros = transpose_.nonzeros();
}

void GatherReferenceStep::load(const std::vector<double>& current) {
  power_ = current;
}

double GatherReferenceStep::step(double weight, std::vector<double>& accum) {
  for_each_range(pool_, ranges_, shard_deltas_,
                 [&](std::size_t begin, std::size_t end) {
                   transpose_.multiply_range(power_, next_, begin, end);
                   return 0.0;
                 });
  power_.swap(next_);
  if (weight != 0.0) linalg::axpy(weight, power_, accum);
  return 0.0;
}

void GatherReferenceStep::fold(double residual, std::vector<double>& accum) {
  linalg::axpy(residual, power_, accum);
}

TransientSolver::TransientSolver(const Ctmc& chain, TransientOptions options)
    : chain_(chain),
      rate_(resolve_uniformization_rate(chain, options.uniformization_rate)),
      driver_(options) {}

std::vector<std::vector<double>> TransientSolver::solve(
    const std::vector<double>& initial, const std::vector<double>& times,
    const PointCallback& on_point) {
  check_transient_arguments(chain_, initial, times);
  stats_ = TransientStats{};
  if (!driver_.options().fused_kernels) {
    if (!reference_) {
      reference_.emplace(chain_.generator().uniformized(rate_).transposed(),
                         nullptr,
                         std::vector<std::size_t>{0, chain_.state_count()});
    }
    return driver_.run(*reference_, rate_, {}, initial, times, on_point,
                       stats_);
  }
  std::vector<std::uint32_t> seeds = support_of(initial);
  const auto covered = [&](std::uint32_t state) {
    return std::binary_search(setup_->reachable.begin(),
                              setup_->reachable.end(), state);
  };
  if (!setup_ || !std::all_of(seeds.begin(), seeds.end(), covered)) {
    if (setup_) {
      seeds.insert(seeds.end(), setup_->reachable.begin(),
                   setup_->reachable.end());
      std::sort(seeds.begin(), seeds.end());
      seeds.erase(std::unique(seeds.begin(), seeds.end()), seeds.end());
    }
    setup_ = build_cached_gather_plan(chain_.generator(), rate_, seeds);
  }
  FusedGatherStep op(*setup_, nullptr, {0, setup_->rows()});
  return driver_.run(op, rate_, setup_->reachable, initial, times, on_point,
                     stats_);
}

std::vector<double> transient_distribution(const Ctmc& chain,
                                           const std::vector<double>& initial,
                                           double time,
                                           TransientOptions options) {
  TransientSolver solver(chain, options);
  return solver.solve(initial, {time}).front();
}

}  // namespace kibamrm::markov
