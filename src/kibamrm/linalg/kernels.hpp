// Runtime-dispatched dense vector kernels with a deterministic reduction
// contract -- the shared substrate of every hot loop in the library.
//
// Four implementation tiers exist behind one entry point each: a portable
// scalar tier, an AVX2 tier, an AVX-512 tier (picked at runtime via CPUID,
// see common/cpu_features) and a mixed-precision throughput tier.  The
// three double tiers honour the same arithmetic contract, so a solver's
// result is bitwise identical whichever of them executes it:
//
//   * Element-wise kernels (axpy, scale) round each element independently;
//     scalar and SIMD agree bitwise by construction.  Both tiers are built
//     with FP contraction off -- a fused multiply-add would skip the
//     intermediate rounding the contract fixes.
//
//   * Reductions (dot, nrm2) follow a fixed-block pairwise-summation
//     order: the input splits into blocks of kBlockDoubles elements; each
//     block accumulates into sixteen interleaved lanes (element i feeds
//     lane i mod 16 -- four AVX2 registers of four lanes, enough chained
//     accumulators to hide the add latency), a four-lane cleanup group and
//     a sequential tail; lanes fold register-pairwise, block partials then
//     combine through a balanced pairwise tree.  The order depends only on
//     the element count, never on thread count or tier: the scalar tier
//     walks the same sixteen lanes the AVX2 registers hold.
//
//   * Sharded reductions expose the block partials directly (dot_blocks +
//     reduce_pairwise): threads fill disjoint block ranges of one partial
//     array and the caller reduces the whole array -- the result is the
//     single-thread dot() bit for bit, for every shard partition that
//     splits on block boundaries.
//
//   * The AVX-512 tier holds the same sixteen reduction lanes in two zmm
//     registers and folds them through the identical register-pairwise
//     tree, so it stays inside the bitwise contract; its masked-tail
//     loops only appear in the element-wise kernels, where per-element
//     rounding makes order irrelevant.
//
// The mixed tier (Dispatch::kMixed) is the exception by design: sparse
// row kernels that have a float32 path (FusedGatherPlan's row-offset
// layout) stream float operands and accumulate every product in double
// (float x float promotes exactly, so only the operand rounding is lost
// -- ~1e-7 relative per entry).  It is deterministic across threads and
// run-to-run, but NOT bitwise comparable to the double tiers; dense
// kernels under kMixed simply run the best double tier
// (double_tier()).  Solvers that opt in widen their sanity tolerances.
//
// The active tier is process-global: CPUID picks the default, the
// KIBAMRM_KERNELS environment variable ("scalar" / "avx2" / "avx512" /
// "mixed" / "auto") overrides it at startup, and set_dispatch() pins it
// programmatically (CLI --kernels, BackendOptions::kernel_dispatch,
// sanitizer CI).
#pragma once

#include <cstddef>
#include <optional>
#include <string_view>

namespace kibamrm::linalg::kernels {

/// Elements per reduction block of the fixed-block summation contract.
/// Part of the ABI of every stored result: changing it changes bits.
inline constexpr std::size_t kBlockDoubles = 256;

enum class Dispatch {
  kScalar = 0,  ///< portable tier, no ISA requirements
  kAvx2 = 1,    ///< AVX2 gather/vector tier (requires AVX2+FMA CPUID bits)
  kAvx512 = 2,  ///< AVX-512 tier (requires the F/DQ/VL/BW CPUID bits)
  kMixed = 3,   ///< float32-operand sparse rows, double accumulation
};

/// Best double-precision tier the executing CPU supports (cached CPUID
/// probe), before any override.  Never returns kMixed -- mixed precision
/// is a deliberate accuracy trade that must be requested explicitly.
Dispatch detected_dispatch();

/// Tier the kernels will actually run: the pinned override if one is set
/// (set_dispatch or KIBAMRM_KERNELS), else detected_dispatch().
Dispatch active_dispatch();

/// Double-precision tier a given dispatch executes the dense kernels
/// with: identity for the double tiers, detected_dispatch() for kMixed
/// (mixed precision only changes the sparse row kernels that have a
/// float path).
Dispatch double_tier(Dispatch dispatch);

/// Pins the active tier process-wide.  Pinning a SIMD tier the CPU lacks
/// throws InvalidArgument (use apply_dispatch for the forgiving CLI/env
/// behaviour).  kMixed is always accepted: its sparse kernels have a
/// scalar implementation and its dense kernels run the detected double
/// tier.  Thread-safe; takes effect on the next kernel call.
void set_dispatch(Dispatch dispatch);

/// Clears any pin (set_dispatch or KIBAMRM_KERNELS): back to CPUID.
void clear_dispatch();

/// "scalar" / "avx2" / "avx512" / "mixed".
std::string_view dispatch_name(Dispatch dispatch);

/// Parses "scalar" / "avx2" / "avx512" / "mixed" / "auto"; "auto" ->
/// nullopt (no pin), anything else throws InvalidArgument listing the
/// choices.
std::optional<Dispatch> parse_dispatch(std::string_view name);

/// Applies a BackendOptions/CLI-style dispatch string: "auto" clears any
/// earlier pin (back to CPUID), a tier name pins it via set_dispatch().
/// Unlike set_dispatch, a SIMD tier the CPU cannot run does not throw: it
/// falls back to the best supported tier and says so once on stderr --
/// one build's flags/scripts stay portable across heterogeneous fleets.
void apply_dispatch(std::string_view name);

/// Blocks covering n elements: ceil(n / kBlockDoubles) (0 for n == 0).
std::size_t block_count(std::size_t n);

/// Blocked pairwise dot product (the contract above).
double dot(const double* a, const double* b, std::size_t n);

/// sqrt(dot(v, v, n)) -- the Euclidean norm under the same contract.
double nrm2(const double* v, std::size_t n);

/// y[i] += alpha * x[i] (element-wise; bitwise tier-independent).
void axpy(double alpha, const double* x, double* y, std::size_t n);

/// v[i] *= alpha (element-wise; bitwise tier-independent).
void scale(double* v, double alpha, std::size_t n);

/// Writes the block partials partials[b] for b in [block_begin, block_end)
/// of the dot product over vectors of n elements.  Disjoint block ranges
/// touch disjoint partials entries, so ranges shard across threads freely;
/// reduce_pairwise over all block_count(n) partials reproduces dot()
/// bit for bit.
void dot_blocks(const double* a, const double* b, std::size_t n,
                std::size_t block_begin, std::size_t block_end,
                double* partials);

/// Balanced pairwise tree over partials[0..count): the deterministic
/// combine of the sharded reduction contract (depends on count only).
double reduce_pairwise(const double* partials, std::size_t count);

}  // namespace kibamrm::linalg::kernels
