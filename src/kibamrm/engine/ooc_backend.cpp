#include "kibamrm/engine/ooc_backend.hpp"

#include <algorithm>
#include <atomic>
#include <limits>
#include <thread>

#include "kibamrm/common/spill_io.hpp"
#include "kibamrm/common/thread_annotations.hpp"
#include "kibamrm/linalg/tile_store.hpp"
#include "kibamrm/linalg/vector_ops.hpp"

namespace kibamrm::engine {

namespace {
constexpr std::size_t kNoTile = std::numeric_limits<std::size_t>::max();

/// The tile-stream step operator: one DTMC step sweeps every tile of the
/// spill store once, out = power * P in compact space with the fused
/// Poisson accumulation, and returns the sup-norm delta (max over shards
/// -- partition- and lane-independent).
class TileStream final : public markov::StepOperator {
 public:
  TileStream(linalg::TileStore& store, common::ThreadPool& pool,
             BackendStats& stats)
      : store_(store),
        pool_(pool),
        stats_(stats),
        tile_count_(store.tile_count()),
        lanes_(pool.thread_count()),
        // Same pool-engagement policy as plan_gather_shards: below ~16k
        // stored entries one step costs less than waking the pool.
        use_pool_(lanes_ > 1 && store.nonzeros() + store.rows() >= 16384),
        parts_per_tile_(use_pool_ ? 4 * lanes_ : 1),
        tile_ranges_(tile_count_),
        tile_ready_(std::make_unique<std::atomic<std::uint32_t>[]>(
            tile_count_)),
        tile_claim_(
            std::make_unique<std::atomic<std::size_t>[]>(tile_count_)),
        tile_done_(
            std::make_unique<std::atomic<std::size_t>[]>(tile_count_)),
        tile_stalled_(std::make_unique<std::atomic<std::uint32_t>[]>(
            tile_count_)),
        lane_deltas_(lanes_, 0.0),
        power_(store.rows(), 0.0),
        next_(store.rows(), 0.0) {}

  void describe(markov::TransientStats& stats) const override {
    stats.active_nonzeros = store_.nonzeros();
    stats.matrix_bandwidth = store_.build_stats().bandwidth;
    stats.diagonal_rows = store_.build_stats().diagonal_rows;
    stats.longest_diagonal_run = store_.build_stats().longest_diagonal_run;
  }

  void load(const std::vector<double>& current) override { power_ = current; }

  double step(double weight, std::vector<double>& accum) override {
    const double delta =
        use_pool_ ? pooled_sweep(weight, accum) : inline_sweep(weight, accum);
    power_.swap(next_);
    return delta;
  }

  void fold(double residual, std::vector<double>& accum) override {
    linalg::axpy(residual, power_, accum);
  }

 private:
  void load_into(std::size_t tile, std::size_t buffer);
  template <typename Ready>
  bool wait_until(Ready&& ready);
  double inline_sweep(double weight, std::vector<double>& accum);
  double pooled_sweep(double weight, std::vector<double>& accum);

  linalg::TileStore& store_;
  common::ThreadPool& pool_;
  BackendStats& stats_;
  const std::size_t tile_count_;
  const std::size_t lanes_;
  const bool use_pool_;
  const std::size_t parts_per_tile_;
  // Tile residency state for the double-buffered stream.  Tile t always
  // lives in buffer t % 2, so consecutive tiles occupy alternating
  // buffers and "buffer t % 2 is free" is exactly "tile t - 2 is done".
  // buffers_[i] holds tile held_[i] (kNoTile when empty).
  common::AlignedBuffer buffers_[2];
  std::size_t held_[2] = {kNoTile, kNoTile};
  // Entry-balanced local row ranges per tile, computed at first load (the
  // per-row entry table lives in the slab).
  std::vector<std::vector<std::size_t>> tile_ranges_;
  // Per-tile pipeline state of one streamed step, shared by the single
  // pool dispatch that runs the whole sweep: tile_ready_ flips when the
  // IO role has the tile in its buffer, tile_claim_/tile_done_ hand out
  // and retire compute shards, tile_stalled_ records that a compute lane
  // had to wait (the complement of a prefetch hit).
  //
  // KIBAMRM_LOCK_FREE: the pipeline is a release-acquire hand-off chain.
  // The IO lane decodes tile t into buffers_[t%2] and then STORES
  // tile_ready_[t] with release; a compute lane LOADS it with acquire
  // before touching the buffer, so the decoded slab happens-before every
  // shard that reads it.  tile_claim_ hands out disjoint shard indices
  // (fetch_add, relaxed -- same argument as ThreadPool::next_);
  // tile_done_ retires them with release so the IO lane's acquire spin
  // on it sees all shard writes before recycling the buffer for tile
  // t+2.  tile_stalled_ is a relaxed telemetry flag (its value never
  // gates an access).  Any mutex here would serialise the very overlap
  // the double buffer exists to create.
  std::unique_ptr<std::atomic<std::uint32_t>[]> tile_ready_
      KIBAMRM_LOCK_FREE("release publish of the decoded slab, see above");
  std::unique_ptr<std::atomic<std::size_t>[]> tile_claim_
      KIBAMRM_LOCK_FREE("disjoint shard claims, relaxed fetch_add");
  std::unique_ptr<std::atomic<std::size_t>[]> tile_done_
      KIBAMRM_LOCK_FREE("release retire / acquire spin recycles buffers");
  std::unique_ptr<std::atomic<std::uint32_t>[]> tile_stalled_
      KIBAMRM_LOCK_FREE("telemetry only; never gates an access");
  // First failure inside the pipeline; waits abort on it so a throwing
  // read (corrupt spill file) can never deadlock the step.
  std::atomic<bool> step_abort_{false} KIBAMRM_LOCK_FREE(
      "monotonic abort flag; the failure itself rides the pool's rethrow");
  // Per-lane sup-norm partials of one streamed step (reduced by max, so
  // the result is independent of which lane ran which shard).
  std::vector<double> lane_deltas_;
  std::vector<double> power_;
  std::vector<double> next_;
};

void TileStream::load_into(std::size_t tile, std::size_t buffer) {
  store_.read_tile(tile, buffers_[buffer]);
  held_[buffer] = tile;
  ++stats_.ooc_tile_reads;
  stats_.ooc_bytes_streamed += store_.tile_slab_bytes(tile);
  if (tile_ranges_[tile].empty()) {
    // Shards scale with the tile's stored entries: a small tile split
    // into 4 * lanes slivers costs more in dispatch than the multiply,
    // and the partition never changes results (each row's value is
    // partition-independent, the step delta is a max over shards).
    const std::size_t parts = std::min<std::size_t>(
        parts_per_tile_,
        std::max<std::size_t>(1, store_.tile_entries(tile) / 2048));
    tile_ranges_[tile] =
        store_.balanced_tile_ranges(tile, buffers_[buffer], parts);
  }
}

// Spin-then-yield wait; bails (returning false) once a pipeline role
// recorded a failure, so a throwing tile read cannot deadlock the step.
template <typename Ready>
bool TileStream::wait_until(Ready&& ready) {
  for (std::uint32_t spins = 0; !ready(); ++spins) {
    if (step_abort_.load(std::memory_order_acquire)) return false;
    if (spins > 64) std::this_thread::yield();
  }
  return true;
}

// Sequential sweep; the two buffers still retain a one- or two-tile store
// across steps.
double TileStream::inline_sweep(double weight, std::vector<double>& accum) {
  double delta = 0.0;
  for (std::size_t t = 0; t < tile_count_; ++t) {
    const std::size_t buffer = t % 2;
    if (held_[buffer] == t) {
      ++stats_.ooc_prefetch_hits;
    } else {
      if (tile_count_ > 1) store_.prefetch_tile(t);
      load_into(t, buffer);
    }
    const std::vector<std::size_t>& ranges = tile_ranges_[t];
    for (std::size_t s = 0; s + 1 < ranges.size(); ++s) {
      delta = std::max(delta, store_.multiply_fused_tile(
                                  t, buffers_[buffer], power_, next_, accum,
                                  weight, ranges[s], ranges[s + 1]));
    }
  }
  return delta;
}

// ONE parallel_for for the whole sweep.  The first role is the IO driver
// -- it streams tile t into buffer t % 2 as soon as the buffer's previous
// occupant (tile t - 2) retires, then joins compute.  The remaining roles
// claim compute shards tile by tile as tiles become ready.  Dispatching
// per step instead of per tile keeps the pool wake-up cost amortised even
// when tiles are small.
double TileStream::pooled_sweep(double weight, std::vector<double>& accum) {
  step_abort_.store(false, std::memory_order_relaxed);
  for (std::size_t t = 0; t < tile_count_; ++t) {
    // Tiles already sitting in their buffer skip the IO role entirely.
    // Only the first two tiles may be treated as resident: any later
    // tile's buffer is recycled by the sweep before compute reaches it,
    // so a leftover from the previous step's tail is not reusable.
    tile_ready_[t].store(t < 2 && held_[t % 2] == t ? 1 : 0,
                         std::memory_order_relaxed);
    tile_claim_[t].store(0, std::memory_order_relaxed);
    tile_done_[t].store(0, std::memory_order_relaxed);
    tile_stalled_[t].store(0, std::memory_order_relaxed);
  }
  std::fill(lane_deltas_.begin(), lane_deltas_.end(), 0.0);

  const auto compute_role = [&](std::size_t lane) {
    double delta = lane_deltas_[lane];
    for (std::size_t t = 0; t < tile_count_; ++t) {
      if (tile_ready_[t].load(std::memory_order_acquire) == 0) {
        tile_stalled_[t].store(1, std::memory_order_relaxed);
        if (!wait_until([&] {
              return tile_ready_[t].load(std::memory_order_acquire) != 0;
            })) {
          break;
        }
      }
      const std::vector<std::size_t>& ranges = tile_ranges_[t];
      const std::size_t shard_count = ranges.size() - 1;
      while (true) {
        const std::size_t shard =
            tile_claim_[t].fetch_add(1, std::memory_order_relaxed);
        if (shard >= shard_count) break;
        delta = std::max(delta, store_.multiply_fused_tile(
                                    t, buffers_[t % 2], power_, next_, accum,
                                    weight, ranges[shard], ranges[shard + 1]));
        tile_done_[t].fetch_add(1, std::memory_order_release);
      }
    }
    lane_deltas_[lane] = delta;
  };

  pool_.parallel_for(lanes_, [&](std::size_t role, std::size_t lane) {
    if (role == 0) {
      try {
        for (std::size_t t = 0; t < tile_count_; ++t) {
          if (tile_ready_[t].load(std::memory_order_relaxed) != 0) {
            continue;  // resident from the previous step
          }
          if (t >= 2) {
            // Buffer t % 2 frees once every shard of tile t - 2 retired.
            const std::size_t prior_shards = tile_ranges_[t - 2].size() - 1;
            if (!wait_until([&] {
                  return tile_done_[t - 2].load(std::memory_order_acquire) ==
                         prior_shards;
                })) {
              return;
            }
          }
          store_.prefetch_tile(t);
          load_into(t, t % 2);
          tile_ready_[t].store(1, std::memory_order_release);
        }
      } catch (...) {
        step_abort_.store(true, std::memory_order_release);
        throw;  // parallel_for rethrows the first failure
      }
    }
    compute_role(lane);
  });

  double delta = 0.0;
  for (std::size_t lane = 0; lane < lanes_; ++lane) {
    delta = std::max(delta, lane_deltas_[lane]);
  }
  for (std::size_t t = 0; t < tile_count_; ++t) {
    if (tile_stalled_[t].load(std::memory_order_relaxed) == 0) {
      ++stats_.ooc_prefetch_hits;
    }
  }
  return delta;
}

}  // namespace

OutOfCoreBackend::OutOfCoreBackend(BackendOptions options)
    : options_(std::move(options)),
      pool_(std::make_unique<common::ThreadPool>(options_.threads)),
      driver_(transient_options(options_)) {
  KIBAMRM_REQUIRE(options_.tile_bytes >= 1,
                  "ooc tile_bytes must be positive");
}

std::vector<std::vector<double>> OutOfCoreBackend::solve(
    const markov::Ctmc& chain, const std::vector<double>& initial,
    const std::vector<double>& times, const PointCallback& on_point) {
  markov::check_transient_arguments(chain, initial, times);
  const double rate =
      markov::resolve_uniformization_rate(chain, options_.uniformization_rate);

  // Reachable closure over P's sparsity pattern without materialising P
  // (bitwise equal to uniformized(rate).reachable_rows; the diagonal
  // never adds reachability).
  const std::vector<std::uint32_t> reachable =
      linalg::tile_store_reachable_rows(chain.generator(),
                                        markov::support_of(initial), rate);

  // Encode the compacted transposed P band by band into the spill file.
  // Peak transient memory here is the generator (owned by the caller's
  // chain either way) plus O(states) index arrays plus one tile -- the
  // allocation profile that lets this backend finish under address-space
  // caps where the in-memory backends cannot construct P at all.
  const std::string spill_path = common::unique_spill_path(
      common::resolve_spill_dir(options_.spill_dir), "kibamrm-tiles");
  linalg::TileStoreOptions store_options;
  store_options.tile_bytes = options_.tile_bytes;
  store_options.direct_io = options_.spill_direct_io;
  linalg::TileStore store = linalg::TileStore::build(
      chain.generator(), reachable, rate, store_options, spill_path);
  store.unlink_keeping_open();  // space reclaims even on abnormal exit

  stats_ = BackendStats{};
  stats_.ooc_tiles = store.tile_count();
  stats_.ooc_spill_bytes = store.file_bytes();
  TileStream stream(store, *pool_, stats_);
  return driver_.run(stream, rate, reachable, initial, times, on_point,
                     stats_);
}

}  // namespace kibamrm::engine
