// Sharded uniformisation backend: the fused transient solve partitioned
// across *processes*, one contiguous band of charge levels per worker.
//
// The parallel backend scales until the compacted transpose and its three
// iteration vectors saturate one node's shared cache hierarchy.  This
// backend forks N workers per solve; worker s owns rows
// [band.row_begin, band.row_end) of the compacted transpose (cut by the
// same entry-scaled fair-share walk the tile store and the thread-level
// shard split use, linalg::ShardPlan) and iterates only that band.  The
// gather reads power[k] for k in the band's column footprint; because the
// chain is banded in charge level, the footprint exceeds the band by a
// thin *halo* of boundary rows, which owners push to subscribers through
// pre-forked shared-memory rings (common::ShmChannel) once per product.
//
// Process model.  Everything immutable -- the gather plan, the shard plan,
// the time grid -- is built before fork() and inherited copy-on-write, so
// workers share those pages physically.  Only the halo rows, one delta
// scalar per step, and one band slice per output point cross the channel.
// Workers die with the coordinator (PR_SET_PDEATHSIG) and always leave via
// _exit(); a worker that crashes mid-solve fails *this scenario* with
// common::IpcError -- the coordinator's alive-poll notices the death within
// a poll slice, reaps the remaining workers, and the batch layer maps the
// error onto one failed scenario, never the whole batch.  The rings are
// anonymous MAP_SHARED mappings: nothing is ever created under /dev/shm,
// so there is nothing to leak.
//
// Determinism.  Every per-row dot product runs the same fused kernel over
// the same operands in the same order as the parallel backend; band and
// lane boundaries only move rows between executors.  The steady-state
// decision input (max of per-band deltas) and the renormalisation total
// (the correctly rounded linalg::sum over the assembled vector, computed
// on the coordinator only) are reduced exactly as the single-process
// solver reduces them, so curves are bitwise identical to `parallel` at
// every shards x threads combination -- tests/test_engine_sharded.cpp
// pins this down.
//
// Requires fused_kernels (the band loop is built on the gather plan);
// throws UnsupportedChainError otherwise.  The float32 mixed tier is not
// forwarded -- workers always run the double path, so curves match the
// parallel backend's default tier regardless of --kernels.
#pragma once

#include <cstddef>
#include <string_view>
#include <vector>

#include "kibamrm/engine/transient_backend.hpp"
#include "kibamrm/markov/fox_glynn.hpp"
#include "kibamrm/markov/uniformization_driver.hpp"

namespace kibamrm::engine {

class ShardedBackend final : public TransientBackend {
 public:
  explicit ShardedBackend(BackendOptions options);

  std::string_view name() const override { return "sharded"; }

  std::vector<std::vector<double>> solve(
      const markov::Ctmc& chain, const std::vector<double>& initial,
      const std::vector<double>& times,
      const PointCallback& on_point = nullptr) override;

  const BackendStats& last_stats() const override { return stats_; }

  /// Worker processes a solve forks (>= 1; options.shards clamped below).
  std::size_t shard_count() const { return shards_; }

 private:
  BackendOptions options_;
  BackendStats stats_;
  std::size_t shards_;
  // Compacted current distribution assembled from worker band slices, and
  // the full-dimension buffer it expands into for results and callbacks.
  std::vector<double> assembled_;
  std::vector<double> full_point_;
  // Fox-Glynn windows memoised across increments and solve() calls; the
  // coordinator keeps the iteration bookkeeping off this plan while
  // workers recompute identical windows locally.
  markov::UniformizationPlan plan_;
  // The steady-state rule of markov::UniformizationDriver.
  markov::SteadyStateDetector detector_;
};

}  // namespace kibamrm::engine
