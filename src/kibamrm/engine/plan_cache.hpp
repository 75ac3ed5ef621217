// Cross-scenario cache of solve-plan setup for the fused uniformisation
// engines.
//
// A ScenarioBatch sweep (Fig. 8: one curve per Delta; Table 1: one per
// workload) repeatedly expands chains with *identical* Q*-structure --
// same sparsity, same rates, same initial support -- differing only in
// the time grid.  Each solve used to rebuild the reachable closure, the
// compacted transpose and the FusedGatherPlan from scratch; this cache
// keys that immutable setup on a content hash of (generator structure +
// values, uniformisation rate, initial support) and shares one
// CachedGatherPlan across every lane and solve that matches -- the first
// stepping stone toward ROADMAP item 1's cross-request plan cache.
//
// Sharing is safe because everything cached is immutable after build:
// the consuming backends only read the plan (FusedGatherPlan kernels are
// const), and shared_ptr keeps an entry alive across concurrent lanes.
// Bitwise determinism is untouched -- a cached plan is byte-identical to
// the one the solve would have rebuilt, so curves cannot change.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <span>
#include <vector>

#include "kibamrm/common/thread_annotations.hpp"
#include "kibamrm/linalg/csr_matrix.hpp"
#include "kibamrm/markov/uniformization.hpp"

namespace kibamrm::engine {

/// The immutable per-chain setup of a fused uniformisation solve and its
/// builder live next to the step operator that reads them.
using markov::CachedGatherPlan;
using markov::build_cached_gather_plan;

/// Content hash the cache keys on: generator structure arrays and values
/// (exact bytes), the uniformisation rate bits and the seed set.  Chains
/// whose hashes collide would share a plan wrongly; at 64 bits over
/// full-content hashing that is vanishingly unlikely, and lookup()
/// additionally rejects entries whose cheap invariants (state count,
/// closure seed count) disagree.
std::uint64_t gather_plan_key(const linalg::CsrMatrix& generator, double rate,
                              std::span<const std::uint32_t> seeds);

/// Thread-safe keyed store of CachedGatherPlans, shared by every lane of
/// a ScenarioBatch through BackendOptions::plan_cache.
class GatherPlanCache {
 public:
  /// Returns the cached plan for `key`, or builds + inserts one from the
  /// given chain data.  Concurrent lanes may race to build the same key;
  /// the first insert wins and later builders adopt it (the builds are
  /// deterministic, so either copy is byte-identical).
  std::shared_ptr<const CachedGatherPlan> obtain(
      const linalg::CsrMatrix& generator, double rate,
      std::span<const std::uint32_t> seeds);

  /// Counters for telemetry and tests.
  std::uint64_t plans_built() const;
  std::uint64_t plans_reused() const;

 private:
  mutable common::Mutex mutex_;
  std::map<std::uint64_t, std::shared_ptr<const CachedGatherPlan>> entries_
      KIBAMRM_GUARDED_BY(mutex_);
  std::uint64_t built_ KIBAMRM_GUARDED_BY(mutex_) = 0;
  std::uint64_t reused_ KIBAMRM_GUARDED_BY(mutex_) = 0;
};

}  // namespace kibamrm::engine
