// Private interface between the dispatching kernel entry points and the
// SIMD translation units (kernels_avx2.cpp with -mavx2, kernels_avx512.cpp
// with -mavx512{f,dq,vl,bw}, both with FP contraction off).  Not
// installed; include only from linalg/*.cpp.
//
// Every avx2_*/avx512_* double-precision function implements exactly the
// canonical arithmetic order documented at its scalar counterpart -- the
// bitwise-parity tests in tests/test_linalg_kernels.cpp hold the tiers
// together.  The *_mixed functions implement the mixed-precision contract
// (float operands, every product promoted to double before accumulation
// in the canonical order); they are deterministic but not bitwise
// comparable to the double tiers.
#pragma once

#include <cstddef>
#include <cstdint>

// The SIMD tiers exist only on x86-64 GCC/Clang builds; elsewhere the
// dispatcher never leaves the scalar tier and the SIMD .cpp files compile
// to empty TUs.
#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
#define KIBAMRM_HAVE_AVX2_TIER 1
#define KIBAMRM_HAVE_AVX512_TIER 1
#else
#define KIBAMRM_HAVE_AVX2_TIER 0
#define KIBAMRM_HAVE_AVX512_TIER 0
#endif

namespace kibamrm::linalg::kernels::detail {

#if KIBAMRM_HAVE_AVX2_TIER

/// Block partials of the fixed-block pairwise dot (contract in
/// kernels.hpp), blocks [block_begin, block_end).
void avx2_dot_blocks(const double* a, const double* b, std::size_t n,
                     std::size_t block_begin, std::size_t block_end,
                     double* partials);

void avx2_axpy(double alpha, const double* x, double* y, std::size_t n);

void avx2_scale(double* v, double alpha, std::size_t n);

/// Fused uniformisation step over one uniform segment: rows
/// [row_begin, row_end) all store `length` entries (1..4) at the shared
/// column offsets `offsets[0..length)`, so x loads are contiguous across
/// rows.  `ids_t` is the segment's entry-major transposed dictionary-id
/// slab (ids_t[e * seg_rows + r] = entry e of segment-local row r) and
/// `local_begin` is row_begin's index within the segment.  Per-row
/// arithmetic follows the canonical per-length order; returns the
/// range-local sup-norm delta.
double avx2_plan_uniform_rows(std::uint32_t length,
                              const std::int16_t* offsets,
                              const std::uint16_t* ids_t,
                              std::size_t seg_rows, std::size_t local_begin,
                              const double* dictionary, const double* x,
                              double* out, double* accum, double weight,
                              std::size_t row_begin, std::size_t row_end);

/// Mixed-precision uniform segment: float operands, products promoted to
/// double and accumulated in the canonical per-length order; out is
/// float, accum stays double.
double avx2_plan_uniform_rows_mixed(
    std::uint32_t length, const std::int16_t* offsets,
    const std::uint16_t* ids_t, std::size_t seg_rows,
    std::size_t local_begin, const float* dictionary, const float* x,
    float* out, double* accum, double weight, std::size_t row_begin,
    std::size_t row_end);

#endif  // KIBAMRM_HAVE_AVX2_TIER

#if KIBAMRM_HAVE_AVX512_TIER

/// AVX-512 twins of the avx2_* kernels above; same contracts.  The
/// reduction holds the sixteen contract lanes in two zmm registers and
/// folds through the identical pairwise tree, so dot partials stay
/// bitwise equal to the scalar and AVX2 tiers.
void avx512_dot_blocks(const double* a, const double* b, std::size_t n,
                       std::size_t block_begin, std::size_t block_end,
                       double* partials);

void avx512_axpy(double alpha, const double* x, double* y, std::size_t n);

void avx512_scale(double* v, double alpha, std::size_t n);

double avx512_plan_uniform_rows(std::uint32_t length,
                                const std::int16_t* offsets,
                                const std::uint16_t* ids_t,
                                std::size_t seg_rows,
                                std::size_t local_begin,
                                const double* dictionary, const double* x,
                                double* out, double* accum, double weight,
                                std::size_t row_begin, std::size_t row_end);

double avx512_plan_uniform_rows_mixed(
    std::uint32_t length, const std::int16_t* offsets,
    const std::uint16_t* ids_t, std::size_t seg_rows,
    std::size_t local_begin, const float* dictionary, const float* x,
    float* out, double* accum, double weight, std::size_t row_begin,
    std::size_t row_end);

#endif  // KIBAMRM_HAVE_AVX512_TIER

}  // namespace kibamrm::linalg::kernels::detail
