#include "kibamrm/engine/parallel_backend.hpp"

#include "kibamrm/engine/plan_cache.hpp"
#include "kibamrm/markov/uniformization.hpp"

namespace kibamrm::engine {

ParallelBackend::ParallelBackend(BackendOptions options, std::string_view name)
    : options_(std::move(options)),
      name_(name),
      pool_(std::make_unique<common::ThreadPool>(options_.threads)),
      driver_(transient_options(options_)) {}

std::vector<std::vector<double>> ParallelBackend::solve(
    const markov::Ctmc& chain, const std::vector<double>& initial,
    const std::vector<double>& times, const PointCallback& on_point) {
  markov::check_transient_arguments(chain, initial, times);
  const double rate =
      markov::resolve_uniformization_rate(chain, options_.uniformization_rate);
  stats_ = BackendStats{};
  const std::size_t lanes = pool_->thread_count();
  if (!options_.fused_kernels) {
    linalg::CsrMatrix pt = chain.generator().uniformized(rate).transposed();
    GatherShardPlan shards = plan_gather_shards(pt, lanes);
    markov::GatherReferenceStep step(std::move(pt),
                                     shards.use_pool ? pool_.get() : nullptr,
                                     std::move(shards.ranges));
    return driver_.run(step, rate, {}, initial, times, on_point, stats_);
  }
  const std::vector<std::uint32_t> seeds = markov::support_of(initial);
  const std::shared_ptr<const CachedGatherPlan> cached =
      options_.plan_cache
          ? options_.plan_cache->obtain(chain.generator(), rate, seeds)
          : build_cached_gather_plan(chain.generator(), rate, seeds);
  GatherShardPlan shards = plan_gather_shards(
      cached->row_entry_counts, cached->nonzeros, 0, cached->rows(), lanes);
  // A shard boundary inside a uniform segment costs partial SIMD groups at
  // both shard edges; snapping only moves work, never changes a bit.
  if (cached->plan && shards.use_pool) {
    cached->plan->align_ranges_to_segments(shards.ranges);
  }
  markov::FusedGatherStep step(*cached,
                               shards.use_pool ? pool_.get() : nullptr,
                               std::move(shards.ranges));
  return driver_.run(step, rate, cached->reachable, initial, times, on_point,
                     stats_);
}

}  // namespace kibamrm::engine
