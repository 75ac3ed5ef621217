// In-memory uniformisation backend: markov::UniformizationDriver over the
// in-memory gather step operators, sharded across a thread pool.  It
// serves two registry names: "parallel" (threads lanes) and
// "uniformization" (pinned to one lane, the serial default).
//
// The step runs on the transposed transition matrix,
//     next[j] = sum_k P^T(j,k) * power[k]  =  (power * P)[j],
// a *gather*: each output entry is one row dot product, so disjoint row
// ranges write disjoint outputs and need no synchronisation.  Ranges are
// balanced by non-zero count, snapped to uniform-segment edges, and
// claimed dynamically from a common::ThreadPool.
//
// Because every out[j] is summed in the fixed storage order of its row,
// the result is bitwise identical for every thread count and shard
// partition -- "--threads 8" reproduces "--threads 1" and
// "uniformization" exactly, which the determinism tests in
// tests/test_engine_parallel.cpp pin down.  Per-shard steady-state deltas
// reduce by max (order independent), so detection decides identically at
// every thread count.
//
// With fused_kernels the loop runs markov::FusedGatherStep over the
// reachable closure of the initial support (setup shared through
// BackendOptions::plan_cache when given); without, the pre-fusion
// markov::GatherReferenceStep over the full transpose.
#pragma once

#include <memory>
#include <string_view>

#include "kibamrm/common/thread_pool.hpp"
#include "kibamrm/engine/transient_backend.hpp"
#include "kibamrm/markov/uniformization_driver.hpp"

namespace kibamrm::engine {

class ParallelBackend final : public TransientBackend {
 public:
  /// `name` is the registry name the backend reports.
  ParallelBackend(BackendOptions options, std::string_view name);

  std::string_view name() const override { return name_; }

  std::vector<std::vector<double>> solve(
      const markov::Ctmc& chain, const std::vector<double>& initial,
      const std::vector<double>& times,
      const PointCallback& on_point = nullptr) override;

  const BackendStats& last_stats() const override { return stats_; }

  /// Lanes the pool actually runs (after auto-detection).
  std::size_t thread_count() const { return pool_->thread_count(); }

 private:
  BackendOptions options_;
  std::string_view name_;
  BackendStats stats_;
  std::unique_ptr<common::ThreadPool> pool_;
  markov::UniformizationDriver driver_;
};

}  // namespace kibamrm::engine
