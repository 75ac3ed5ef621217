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
//
// The row-offset FusedGatherPlan kernels share one scalar row loop and
// one range walk, defined below with internal linkage so that every TU
// -- each built for its own ISA -- keeps its own copy.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <type_traits>

#include "kibamrm/linalg/fused_gather.hpp"

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

/// Read-only view of a row-offset FusedGatherPlan: the arrays the scalar
/// row loop and the SIMD range kernels read.
struct RowOffsetPlan {
  const std::uint8_t* lengths = nullptr;
  const std::uint32_t* entry_start = nullptr;  // rows + 1 entries
  const std::int16_t* offsets = nullptr;
  const std::uint16_t* value_ids = nullptr;
  const double* dictionary = nullptr;
  const float* dictionary_f = nullptr;  // float32 shadow (mixed tier)
  std::size_t prefetch_distance = 0;    // 0: no software prefetch
  const FusedGatherPlan::UniformSegment* segments = nullptr;
  std::size_t segment_count = 0;
  const double* segment_values = nullptr;  // value slabs of the segments
};

namespace {

/// Canonical fused rows [row_begin, row_end): out[row] = dot(row, x),
/// accum[row] += weight * out[row] (skipped for weight == 0), returns the
/// max |out[row] - x[row]|.  For Value = double the casts are no-ops; for
/// Value = float (the mixed tier, float32 shadow dictionary) each product
/// promotes exactly to double.  The per-length evaluation order is the
/// canonical one mirrored by CsrMatrix::multiply_fused_range, TileStore
/// and the SIMD segment lanes, so all double kernels agree bitwise.
template <typename Value>
inline double plan_rows_scalar(const RowOffsetPlan& plan, const Value* x,
                               Value* out, double* accum, double weight,
                               std::size_t row_begin, std::size_t row_end) {
  const Value* dictionary;
  if constexpr (std::is_same_v<Value, float>) {
    dictionary = plan.dictionary_f;
  } else {
    dictionary = plan.dictionary;
  }
  const std::uint8_t* lengths = plan.lengths;
  const std::int16_t* offsets = plan.offsets;
  const std::uint16_t* value_ids = plan.value_ids;
  double delta = 0.0;
  std::size_t k = plan.entry_start[row_begin];
  const auto term = [&](std::size_t row, std::size_t e) {
    return static_cast<double>(dictionary[value_ids[e]]) *
           static_cast<double>(x[row + offsets[e]]);
  };
  // Prefetching never touches the arithmetic, so the bitwise contract is
  // unaffected.
  const std::size_t prefetch = plan.prefetch_distance;
  for (std::size_t row = row_begin; row < row_end; ++row) {
#if defined(__GNUC__) || defined(__clang__)
    if (prefetch != 0 && row + prefetch < row_end) {
      const std::size_t ahead = plan.entry_start[row + prefetch];
      if (ahead < plan.entry_start[row + prefetch + 1]) {
        __builtin_prefetch(&x[row + prefetch + offsets[ahead]], 0, 1);
      }
    }
#endif
    double v;
    switch (lengths[row]) {
      case 0:
        v = 0.0;
        break;
      case 1:
        v = term(row, k);
        k += 1;
        break;
      case 2:
        v = term(row, k) + term(row, k + 1);
        k += 2;
        break;
      case 3:
        v = term(row, k) + term(row, k + 1) + term(row, k + 2);
        k += 3;
        break;
      case 4:
        v = (term(row, k) + term(row, k + 1)) +
            (term(row, k + 2) + term(row, k + 3));
        k += 4;
        break;
      default: {
        double s0 = 0.0;
        double s1 = 0.0;
        std::uint8_t j = 0;
        const std::uint8_t length = lengths[row];
        for (; j + 2 <= length; j += 2) {
          s0 += term(row, k + j);
          s1 += term(row, k + j + 1);
        }
        if (j < length) {
          s0 += term(row, k + j);
        }
        v = s0 + s1;
        k += length;
      }
    }
    out[row] = static_cast<Value>(v);
    if (weight != 0.0) accum[row] += weight * v;
    delta = std::max(delta, std::abs(v - static_cast<double>(x[row])));
  }
  return delta;
}

/// Walks [row_begin, row_end) of a plan with segments: each uniform
/// segment's share of the range goes to segment_rows(segment, begin, end)
/// -- the calling TU's lane kernel, which folds its own delta -- and the
/// rows between segments run plan_rows_scalar.  Returns the latter's
/// delta.  Inlined into one call per range.
template <typename Value, typename SegmentRows>
inline double walk_plan_rows(const RowOffsetPlan& plan, const Value* x,
                             Value* out, double* accum, double weight,
                             std::size_t row_begin, std::size_t row_end,
                             const SegmentRows& segment_rows) {
  using Segment = FusedGatherPlan::UniformSegment;
  const Segment* const last = plan.segments + plan.segment_count;
  // First segment that can still cover row_begin.
  const Segment* segment =
      std::partition_point(plan.segments, last, [&](const Segment& s) {
        return s.row_begin + s.row_count <= row_begin;
      });
  double delta = 0.0;
  std::size_t row = row_begin;
  while (row < row_end) {
    if (segment != last && segment->row_begin <= row) {
      const std::size_t end = std::min<std::size_t>(
          row_end, segment->row_begin + segment->row_count);
      segment_rows(*segment, row, end);
      row = end;
      ++segment;  // finished it, or reached row_end
    } else {
      const std::size_t end =
          segment != last ? std::min<std::size_t>(row_end, segment->row_begin)
                          : row_end;
      delta = std::max(delta, plan_rows_scalar(plan, x, out, accum, weight,
                                               row, end));
      row = end;
    }
  }
  return delta;
}

}  // namespace

#if KIBAMRM_HAVE_AVX2_TIER

/// Block partials of the fixed-block pairwise dot (contract in
/// kernels.hpp), blocks [block_begin, block_end).
void avx2_dot_blocks(const double* a, const double* b, std::size_t n,
                     std::size_t block_begin, std::size_t block_end,
                     double* partials);

void avx2_axpy(double alpha, const double* x, double* y, std::size_t n);

void avx2_scale(double* v, double alpha, std::size_t n);

/// Fused uniformisation step over plan rows [row_begin, row_end) in one
/// call: uniform segments run across rows (one row per lane, values from
/// the segment slabs, masked tails), the rows between them the canonical
/// scalar loop.  Bitwise equal to plan_rows_scalar<double>; returns the
/// range-local sup-norm delta.
double avx2_plan_rows(const RowOffsetPlan& plan, const double* x,
                      double* out, double* accum, double weight,
                      std::size_t row_begin, std::size_t row_end);

/// Mixed-precision twin: float operands, slab values rounded to float in
/// register, products promoted to double and accumulated in the
/// canonical order; out is float, accum stays double.  Bitwise equal to
/// plan_rows_scalar<float>.
double avx2_plan_rows_mixed(const RowOffsetPlan& plan, const float* x,
                            float* out, double* accum, double weight,
                            std::size_t row_begin, std::size_t row_end);

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

double avx512_plan_rows(const RowOffsetPlan& plan, const double* x,
                        double* out, double* accum, double weight,
                        std::size_t row_begin, std::size_t row_end);

double avx512_plan_rows_mixed(const RowOffsetPlan& plan, const float* x,
                              float* out, double* accum, double weight,
                              std::size_t row_begin, std::size_t row_end);

#endif  // KIBAMRM_HAVE_AVX512_TIER

}  // namespace kibamrm::linalg::kernels::detail
