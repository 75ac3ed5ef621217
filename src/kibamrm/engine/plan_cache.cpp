#include "kibamrm/engine/plan_cache.hpp"

#include <cstring>

#include "kibamrm/common/spill_io.hpp"

namespace kibamrm::engine {

std::uint64_t gather_plan_key(const linalg::CsrMatrix& generator, double rate,
                              std::span<const std::uint32_t> seeds) {
  const std::span<const std::uint32_t> row_ptr = generator.row_pointers();
  const std::span<const std::uint32_t> col_idx = generator.column_indices();
  const std::span<const double> values = generator.values();
  const std::uint64_t rows = generator.rows();
  std::uint64_t key = common::fnv1a64(&rows, sizeof(rows));
  key = common::fnv1a64(row_ptr.data(), row_ptr.size_bytes(), key);
  key = common::fnv1a64(col_idx.data(), col_idx.size_bytes(), key);
  key = common::fnv1a64(values.data(), values.size_bytes(), key);
  key = common::fnv1a64(&rate, sizeof(rate), key);
  key = common::fnv1a64(seeds.data(), seeds.size_bytes(), key);
  return key;
}

std::shared_ptr<const CachedGatherPlan> GatherPlanCache::obtain(
    const linalg::CsrMatrix& generator, double rate,
    std::span<const std::uint32_t> seeds) {
  const std::uint64_t key = gather_plan_key(generator, rate, seeds);
  {
    common::MutexLock lock(mutex_);
    const auto it = entries_.find(key);
    if (it != entries_.end() &&
        it->second->reachable.size() <= generator.rows()) {
      ++reused_;
      return it->second;
    }
  }
  // Build outside the lock: plan construction walks the whole generator,
  // and concurrent lanes building distinct chains must not serialise.
  std::shared_ptr<const CachedGatherPlan> built =
      build_cached_gather_plan(generator, rate, seeds);
  common::MutexLock lock(mutex_);
  std::shared_ptr<const CachedGatherPlan>& slot = entries_[key];
  if (slot && slot->reachable.size() <= generator.rows()) {
    // A racing lane inserted first; adopt its copy (byte-identical --
    // the build is deterministic).
    ++reused_;
    return slot;
  }
  slot = built;
  ++built_;
  return built;
}

std::uint64_t GatherPlanCache::plans_built() const {
  common::MutexLock lock(mutex_);
  return built_;
}

std::uint64_t GatherPlanCache::plans_reused() const {
  common::MutexLock lock(mutex_);
  return reused_;
}

}  // namespace kibamrm::engine
