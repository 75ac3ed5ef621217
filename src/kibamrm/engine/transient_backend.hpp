// The pluggable transient-engine layer: one interface over every way this
// library can push a probability distribution through time.
//
// The paper's tailored algorithm (Sec. 5) fixes a single pipeline --
// discretise, build the expanded CTMC Q*, solve by uniformisation.  The
// engine layer decouples the last step: a TransientBackend computes pi(t)
// for a CTMC on a sorted time grid, and callers (core/approx_solver, the
// bench drivers, examples) select an implementation by name:
//
//   "uniformization"  incremental uniformisation with Fox-Glynn windows:
//                     the "parallel" engine pinned to one lane, the
//                     production default for the expanded battery chains
//   "adaptive"        embedded Runge-Kutta (Dormand-Prince 5(4)) with
//                     adaptive step control on pi' = pi Q -- complements the
//                     transform solver in core/exact_c1 for small stiff
//                     chains and for rate regimes where the Poisson window
//                     grows degenerate
//   "dense"           dense Pade matrix exponential (linalg/expm) with
//                     increment caching -- cross-validation oracle for
//                     chains below a configurable state threshold
//   "parallel"        uniformisation with the fused gather step sharded
//                     across a ThreadPool (nnz-balanced row ranges) --
//                     bitwise deterministic across thread counts; the
//                     multi-core production path
//   "krylov"          Arnoldi projection of exp(Q^T t) v onto a small
//                     Krylov subspace with EXPOKIT-style adaptive
//                     sub-step splitting -- the stiff-chain path: its
//                     cost scales with how fast the *solution* moves,
//                     not with the spectral radius that defeats the
//                     explicit stepper and bloats the Poisson window
//   "ooc"             out-of-core uniformisation: the compacted transposed
//                     matrix is encoded band-by-band into a tiled spill
//                     file at solve start and streamed back per DTMC step
//                     through a double-buffered prefetch pipeline --
//                     bitwise identical curves to the fused in-memory
//                     backends at every tile size and thread count, with
//                     a working set of two tiles plus O(states) vectors
//
// "uniformization", "parallel" and "ooc" run one loop,
// markov::UniformizationDriver, over different step operators (in-memory
// gather, tile stream).  The last engine keeps its own worker loop but
// takes its rate and steady-state verdicts from the driver's code:
//
//   "sharded"         multi-process uniformisation: a coordinator forks
//                     one worker per shard, each owning a contiguous
//                     level band of the compacted transpose
//                     (linalg::ShardPlan); workers run the fused gather
//                     kernels on their band and exchange only the halo
//                     rows per DTMC step over shared-memory rings
//                     (common/shm_channel) -- bitwise identical curves
//                     to "parallel" at every (shard count, thread
//                     count), with N shards x T threads composing
//
// New backends (GPU, MPI) register through register_backend() without
// another restructure of the call sites.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "kibamrm/common/error.hpp"
#include "kibamrm/linalg/csr_matrix.hpp"
#include "kibamrm/markov/ctmc.hpp"
#include "kibamrm/markov/uniformization_driver.hpp"

namespace kibamrm::engine {

class GatherPlanCache;  // engine/plan_cache.hpp

/// How a pool-sharded gather matvec splits its rows; shared by the
/// parallel and krylov backends so the engagement threshold and the
/// oversubscription factor stay tuned in exactly one place.
struct GatherShardPlan {
  /// False when one lane (or a matrix too small to amortise waking the
  /// pool) makes the inline loop the faster path.
  bool use_pool = false;
  /// Shard boundaries: ranges[i]..ranges[i+1] is shard i; always at
  /// least {0, rows}.
  std::vector<std::size_t> ranges;

  std::size_t shard_count() const { return ranges.size() - 1; }
};

/// Splits `matrix` for a gather matvec over `lanes` pool lanes.  Below
/// ~16k stored entries one spmv costs less than waking the pool, so the
/// plan stays inline; otherwise rows are nnz-balanced into 4x-lane
/// shards (the oversubscription lets the atomic claim loop absorb cost
/// imbalance a static split cannot see).
GatherShardPlan plan_gather_shards(const linalg::CsrMatrix& matrix,
                                   std::size_t lanes);

/// Same policy from per-row entry counts alone (what the plan cache
/// retains after the CSR arrays are dropped); `row_begin`/`row_end`
/// restrict the split to one shard band for the sharded backend's inner
/// thread ranges.
GatherShardPlan plan_gather_shards(std::span<const std::uint32_t> row_counts,
                                   std::uint64_t nonzeros,
                                   std::size_t row_begin, std::size_t row_end,
                                   std::size_t lanes);

/// Thrown when a backend cannot solve a given chain *by design* (e.g. the
/// dense backend refusing a chain above its state limit) -- as opposed to
/// failing on one.  Sweep drivers catch exactly this to skip a
/// configuration without masking genuine solver errors.
class UnsupportedChainError : public InvalidArgument {
 public:
  using InvalidArgument::InvalidArgument;
};

/// Options understood by every backend; fields irrelevant to a given
/// backend are ignored (documented per field).
struct BackendOptions {
  /// Accuracy knob: uniformisation truncation error per time increment,
  /// or the relative local-error tolerance of the adaptive stepper.  The
  /// dense backend is accurate to the Pade approximant and ignores it.
  double epsilon = 1e-10;
  /// Uniformisation rate; 0 selects 1.02 * max_exit_rate automatically.
  /// Uniformisation backend only.
  double uniformization_rate = 0.0;
  /// Re-normalise the distribution after every output point to counter
  /// accumulated round-off on long curves.
  bool renormalize = true;
  /// The dense backend refuses chains above this state count (its cost is
  /// O(states^3) per distinct increment).
  std::size_t dense_state_limit = 1024;
  /// Execution lanes of the parallel uniformisation backend; 0 auto-detects
  /// the hardware thread count.  "uniformization" always runs one lane.
  std::size_t threads = 0;
  /// When false, solve() returns an empty vector and delivers points only
  /// through the callback -- curve consumers on million-state chains avoid
  /// materialising time_points * states doubles they never read.
  bool collect_distributions = true;
  /// Fused spmv+accumulate kernels ("uniformization", "parallel"): one
  /// pass per iteration computes the product, the accumulation and the
  /// steady-state delta.  False runs the pre-fusion reference (gather
  /// spmv plus axpy over the full transpose) as the measured baseline;
  /// "ooc" ignores it and "sharded" refuses it.
  bool fused_kernels = true;
  /// Steady-state / absorption early termination inside the Poisson window
  /// (uniformisation engines; requires fused_kernels).  The detection
  /// error is charged against `epsilon`, so accuracy guarantees keep
  /// their order.  Other backends ignore it.
  bool steady_state_detection = true;
  /// Krylov backend: Arnoldi subspace dimension cap m.  Larger subspaces
  /// permit larger sub-steps at O(m) extra matvecs and an O(m^3) small
  /// exponential per step; ~30 is the EXPOKIT sweet spot for chains of
  /// this stiffness.  Other backends ignore it.
  std::size_t krylov_dim = 30;
  /// Krylov backend: cap on adaptive sub-steps per time increment before
  /// the solve fails with NumericalError -- a runaway-splitting guard, not
  /// a tuning knob (stiff battery chains finish in tens to hundreds of
  /// sub-steps).  Other backends ignore it.
  std::size_t krylov_max_substeps = 500000;
  /// Krylov backend: adapt the Arnoldi subspace dimension between
  /// sub-steps within [4, krylov_dim] -- grow when trial steps get
  /// rejected, shrink on sustained error-budget slack or an early
  /// invariant subspace -- so easy chains stop paying the worst-case
  /// m^2 n orthogonalisation and stiff chains stop re-stepping.  False
  /// pins m = krylov_dim (the fixed-dimension A/B baseline).  Other
  /// backends ignore it.
  bool krylov_adaptive_dim = true;
  /// Out-of-core backend: serialized-size target per streamed tile of the
  /// compacted transposed matrix (the "ooc" engine's working set is two
  /// such tiles plus O(active states) vectors).  Other backends ignore it.
  std::size_t tile_bytes = 8ull << 20;
  /// Out-of-core backend: directory for the tile spill file; empty selects
  /// $TMPDIR (falling back to /tmp).  The file is unlinked while open, so
  /// it never outlives the solve.  Other backends ignore it.
  std::string spill_dir = "";
  /// Out-of-core backend: attempt O_DIRECT when streaming tiles back
  /// (silently falls back to buffered reads plus posix_fadvise readahead
  /// on filesystems that refuse the flag, e.g. tmpfs).  Off by default:
  /// buffered streaming lets the page cache absorb whatever part of the
  /// tile file fits -- cache pages are kernel memory, so they count
  /// against neither RSS nor an address-space cap -- while O_DIRECT turns
  /// every re-streamed tile into a device round trip.  Turn it on for
  /// working sets that genuinely dwarf RAM, where cache hits are rare and
  /// cache pollution hurts the rest of the machine.  Results are bitwise
  /// identical either way.  Other backends ignore it.
  bool spill_direct_io = false;
  /// Kernel dispatch for the linalg::kernels vector layer, applied
  /// process-globally by make_backend(): "auto" keeps the current process
  /// setting (CPUID-detected unless already pinned), "scalar" / "avx2" /
  /// "avx512" pin a double tier (results are bitwise identical across
  /// them; an unavailable tier falls back to the best supported one with
  /// a stderr note), "mixed" selects the float32-gather throughput tier
  /// of the fused uniformisation kernels (deterministic, ~1e-6-level
  /// accuracy instead of bitwise).  See linalg/kernels.hpp.
  std::string kernel_dispatch = "auto";
  /// Sharded backend: worker processes the solve forks, each owning one
  /// contiguous level band of the compacted transpose.  1 still forks a
  /// single worker (the full coordinator/worker protocol runs, which is
  /// what the 1-vs-N shard perf comparison should measure).  With
  /// `threads` > 1 every worker additionally runs its own pool of that
  /// many lanes, so shards x threads composes; for this backend
  /// `threads` == 0 means one lane per worker (auto-detecting inside N
  /// workers would oversubscribe N-fold).  Other backends ignore it.
  std::size_t shards = 1;
  /// Optional cross-scenario cache of reachable closures + gather plans
  /// (engine/plan_cache.hpp), shared across the lanes of a ScenarioBatch.
  /// Null solves build their plan privately.  Honoured by the fused
  /// in-memory uniformisation engines ("uniformization", "parallel",
  /// "sharded"); results are bitwise independent of cache hits.
  std::shared_ptr<GatherPlanCache> plan_cache = nullptr;
};

/// Cost counters, populated by every backend after each solve().  The
/// loop counters (iterations, windows, detection, active states and
/// matrix structure) are markov::TransientStats, documented there; the
/// adaptive, dense and krylov engines count their own work unit in
/// `iterations` and report active_states/active_nonzeros where they
/// compact.
struct BackendStats : markov::TransientStats {
  /// Adaptive backend: steps whose error estimate forced a retry.
  std::uint64_t rejected_steps = 0;
  /// Krylov backend: largest Arnoldi subspace dimension used during the
  /// last solve (the configured cap, or less after happy breakdowns on
  /// near-invariant starts); 0 elsewhere.
  std::uint64_t krylov_dim = 0;
  /// Krylov backend: accepted adaptive sub-steps over the whole solve
  /// (each one Arnoldi factorisation); 0 elsewhere.
  std::uint64_t substeps = 0;
  /// Krylov backend: sum of dim^2 over all Arnoldi factorisations -- the
  /// orthogonalisation cost of the solve in units of the state count
  /// (the m^2 n term that dominates 1e5+-state chains), and the metric
  /// the adaptive dimension controller actually optimises; 0 elsewhere.
  std::uint64_t krylov_ortho_work = 0;
  /// Krylov backend: small Hessenberg exponentials evaluated, including
  /// rejected trial steps (each one cached-Pade evaluation); 0 elsewhere.
  std::uint64_t hessenberg_expms = 0;
  /// Out-of-core backend: tiles in the spill store, tile reads issued
  /// over the whole solve, reads satisfied by the prefetched back buffer
  /// or an already-resident tile, total slab bytes streamed from disk,
  /// and the spill file's on-disk size; 0 for in-memory backends.
  std::uint64_t ooc_tiles = 0;
  std::uint64_t ooc_tile_reads = 0;
  std::uint64_t ooc_prefetch_hits = 0;
  std::uint64_t ooc_bytes_streamed = 0;
  std::uint64_t ooc_spill_bytes = 0;
  /// Sharded backend: worker processes forked, static halo exchange
  /// volume per DTMC step (8 bytes per halo row summed over every
  /// pairwise span), nanoseconds workers spent blocked on halo receives
  /// (summed over workers; the scaling-loss signal) and the band
  /// nnz imbalance max/mean (1.0 = perfectly balanced).  0 for other
  /// backends.
  std::uint64_t shards = 0;
  std::uint64_t halo_bytes_per_step = 0;
  std::uint64_t halo_wait_ns = 0;
  double shard_nnz_imbalance = 0.0;
};

/// Called with (index, time, distribution) as soon as each requested time
/// point is ready; curve consumers stream points this way instead of
/// holding all distributions.
using PointCallback = markov::PointCallback;

/// The uniformisation-loop settings of `options` (what
/// markov::UniformizationDriver consumes).
markov::TransientOptions transient_options(const BackendOptions& options);

/// Interface of a transient CTMC solver.  Implementations are stateless
/// between solve() calls except for last_stats() and internal scratch.
class TransientBackend {
 public:
  virtual ~TransientBackend() = default;

  /// Registry name of this backend ("uniformization", "adaptive", ...).
  virtual std::string_view name() const = 0;

  /// Computes pi(t) for each t in `times` (sorted ascending, >= 0) starting
  /// from the distribution `initial`.  Returns one distribution per time
  /// point and invokes `on_point` incrementally when given.
  virtual std::vector<std::vector<double>> solve(
      const markov::Ctmc& chain, const std::vector<double>& initial,
      const std::vector<double>& times,
      const PointCallback& on_point = nullptr) = 0;

  /// Counters of the most recent solve().
  virtual const BackendStats& last_stats() const = 0;
};

/// Factory signature for register_backend().
using BackendFactory =
    std::function<std::unique_ptr<TransientBackend>(const BackendOptions&)>;

/// Instantiates a registered backend by name; throws InvalidArgument naming
/// the known backends otherwise.
std::unique_ptr<TransientBackend> make_backend(
    std::string_view name, const BackendOptions& options = {});

/// Names of all registered backends, sorted; the built-ins are always
/// present.
std::vector<std::string> backend_names();

/// True iff `name` is a registered backend.
bool is_backend_name(std::string_view name);

/// Registers an additional backend under `name` (replacing any previous
/// registration of that name).  Built-ins are pre-registered.
void register_backend(std::string name, BackendFactory factory);

}  // namespace kibamrm::engine
