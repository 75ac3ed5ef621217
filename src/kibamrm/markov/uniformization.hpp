// Transient solution of CTMCs by uniformisation, in memory.
//
// The loop itself (Fox-Glynn windows, weights, steady-state detection,
// renormalise, emit) is markov::UniformizationDriver.  This header holds
// the in-memory side:
//
//   * CachedGatherPlan -- the immutable per-chain setup of a fused solve:
//     the reachable closure of the initial support (the paper's expanded
//     battery chains reach only ~half their states from the full-charge
//     start), the compacted transpose of P and its compressed gather plan.
//   * FusedGatherStep -- the production step operator: each output entry
//     is one short gather over the compacted transpose, finished in the
//     same pass with the Poisson-weighted accumulation and the
//     steady-state delta; double or float32 ("mixed") tier; inline or
//     sharded across a thread pool with a max-reduce of the deltas.
//   * GatherReferenceStep -- the pre-fusion reference (plain gather spmv
//     plus a separate axpy over the full transpose), selected by
//     fused_kernels = false.
//   * TransientSolver -- the serial front door: driver + one of the two
//     operators on one lane.
//
// Every output entry is summed in the fixed storage order of its row, so
// the result is bitwise identical for every thread count and shard
// partition.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <vector>

#include "kibamrm/common/thread_pool.hpp"
#include "kibamrm/linalg/csr_matrix.hpp"
#include "kibamrm/linalg/fused_gather.hpp"
#include "kibamrm/linalg/permutation.hpp"
#include "kibamrm/markov/ctmc.hpp"
#include "kibamrm/markov/uniformization_driver.hpp"

namespace kibamrm::markov {

/// The immutable per-chain setup of a fused uniformisation solve.  Built
/// once (build_cached_gather_plan), then only read -- so it can be shared
/// across solves and threads (engine::GatherPlanCache).
struct CachedGatherPlan {
  /// Sorted reachable closure of the initial support (full-chain state
  /// ids); the loop dimension is reachable.size().
  std::vector<std::uint32_t> reachable;
  /// Per-row stored-entry counts of the compacted transpose, plus each
  /// row's first/last stored column -- enough to shard and partition
  /// without keeping the CSR arrays alive (linalg::ShardPlan and the
  /// gather shard split both run off these).
  std::vector<std::uint32_t> row_entry_counts;
  std::vector<std::uint32_t> row_col_lo;
  std::vector<std::uint32_t> row_col_hi;
  std::uint64_t nonzeros = 0;
  linalg::StructureStats structure;
  /// Compressed kernel plan; nullopt when the chain fits neither layout.
  std::optional<linalg::FusedGatherPlan> plan;
  /// CSR fallback, retained only when `plan` could not build (the
  /// compressed layout otherwise replaces it).
  linalg::CsrMatrix transpose{1, 1};

  std::size_t rows() const { return row_entry_counts.size(); }
};

/// Uniformises `generator` at `rate`, compacts to the reachable closure
/// of `seeds` and builds the gather plan.
std::shared_ptr<const CachedGatherPlan> build_cached_gather_plan(
    const linalg::CsrMatrix& generator, double rate,
    std::span<const std::uint32_t> seeds);

/// In-memory fused step over a CachedGatherPlan (the compressed plan, or
/// its CSR fallback).  `ranges` partitions the rows (ascending, front 0,
/// back rows()); with a non-null `pool` and more than one range, every
/// step runs the ranges as pool tasks and reduces their deltas by max
/// (order independent, so detection decides identically at every
/// partition).  The float32 mixed tier engages when the active kernel
/// dispatch is "mixed" and the plan carries a float kernel; the power
/// iteration then streams float32 while the accumulator stays double.
class FusedGatherStep final : public StepOperator {
 public:
  FusedGatherStep(const CachedGatherPlan& setup, common::ThreadPool* pool,
                  std::vector<std::size_t> ranges);

  void describe(TransientStats& stats) const override;
  void load(const std::vector<double>& current) override;
  double step(double weight, std::vector<double>& accum) override;
  void fold(double residual, std::vector<double>& accum) override;

 private:
  const CachedGatherPlan& setup_;
  bool mixed_;
  common::ThreadPool* pool_;
  std::vector<std::size_t> ranges_;
  std::vector<double> shard_deltas_;
  std::vector<double> power_;
  std::vector<double> next_;
  std::vector<float> power_f_;
  std::vector<float> next_f_;
};

/// Pre-fusion reference step over the full transpose of P: gather spmv
/// (pool-sharded like FusedGatherStep), then accum += weight * power.
/// Reports no delta, so steady-state detection stays off.
class GatherReferenceStep final : public StepOperator {
 public:
  GatherReferenceStep(linalg::CsrMatrix transpose, common::ThreadPool* pool,
                      std::vector<std::size_t> ranges);

  void describe(TransientStats& stats) const override;
  void load(const std::vector<double>& current) override;
  double step(double weight, std::vector<double>& accum) override;
  void fold(double residual, std::vector<double>& accum) override;
  bool reports_delta() const override { return false; }

 private:
  linalg::CsrMatrix transpose_;
  common::ThreadPool* pool_;
  std::vector<std::size_t> ranges_;
  std::vector<double> shard_deltas_;  // unused results of the range runs
  std::vector<double> power_;
  std::vector<double> next_;
};

/// Computes pi(t) for each t in `times` (must be sorted ascending, >= 0)
/// on one lane.  Returns one distribution per time point.  `on_point`,
/// when given, is called with (index, time, distribution) as soon as each
/// point is ready.
class TransientSolver {
 public:
  explicit TransientSolver(const Ctmc& chain, TransientOptions options = {});

  std::vector<std::vector<double>> solve(
      const std::vector<double>& initial, const std::vector<double>& times,
      const PointCallback& on_point = nullptr);

  const TransientStats& last_stats() const { return stats_; }

 private:
  const Ctmc& chain_;
  double rate_;
  UniformizationDriver driver_;
  // Fused setup, rebuilt only when a new initial escapes its closure (the
  // closure then grows monotonically, so earlier initials stay covered).
  std::shared_ptr<const CachedGatherPlan> setup_;
  // Reference operator of fused_kernels = false, built on its first solve.
  std::optional<GatherReferenceStep> reference_;
  TransientStats stats_;
};

/// One-shot convenience: transient distribution at a single time point.
/// Callers that solve the same chain at several times should construct
/// one TransientSolver and pass all times to one solve().
std::vector<double> transient_distribution(const Ctmc& chain,
                                           const std::vector<double>& initial,
                                           double time,
                                           TransientOptions options = {});

}  // namespace kibamrm::markov
