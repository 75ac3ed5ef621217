// AVX2 tier of the dispatched kernel layer.  Compiled with -mavx2 and FP
// contraction off (see CMakeLists); every kernel reproduces the canonical
// arithmetic order of its scalar counterpart bit for bit:
//
//   * reductions hold the contract's interleaved lanes in ymm registers
//     (four chained accumulators hide the add latency without changing
//     the order -- the 16-lane structure IS the contract),
//   * element-wise kernels round per element, and no fused multiply-add
//     is ever emitted (the contract fixes the intermediate rounding),
//   * the uniform-segment lanes put one row per lane, evaluating each row
//     in the same per-length order as the scalar switch -- lanes change
//     which rows share a register, never the order within a row.  One
//     call walks a whole row range; segment values are contiguous slab
//     loads or broadcasts, and a segment's last < 4 rows run one masked
//     group (vmaskmov) instead of a scalar loop.
#include "kibamrm/linalg/kernels_internal.hpp"

#if KIBAMRM_HAVE_AVX2_TIER

#include <immintrin.h>

#include <algorithm>
#include <cmath>

#include "kibamrm/linalg/kernels.hpp"

namespace kibamrm::linalg::kernels::detail {

namespace {

/// Canonical lane combine of one reduction block: (l0+l2)+(l1+l3).
inline double lane_combine(__m256d acc) {
  const __m128d lo = _mm256_castpd256_pd128(acc);
  const __m128d hi = _mm256_extractf128_pd(acc, 1);
  const __m128d pair = _mm_add_pd(lo, hi);  // (l0+l2, l1+l3)
  return _mm_cvtsd_f64(_mm_add_sd(pair, _mm_unpackhi_pd(pair, pair)));
}

inline double lane_max(__m256d acc) {
  const __m128d lo = _mm256_castpd256_pd128(acc);
  const __m128d hi = _mm256_extractf128_pd(acc, 1);
  const __m128d pair = _mm_max_pd(lo, hi);
  return _mm_cvtsd_f64(_mm_max_sd(pair, _mm_unpackhi_pd(pair, pair)));
}

/// One block of the fixed-block dot: sixteen interleaved lanes in four
/// registers (element i feeds register (i/4)%4, lane i%4), folded as
/// ((A0+A2)+(A1+A3)) -> lane combine, then a four-lane loop on A0 and a
/// sequential tail.  kernels.cpp walks the identical structure in scalar.
inline double dot_block(const double* a, const double* b, std::size_t begin,
                        std::size_t end) {
  __m256d a0 = _mm256_setzero_pd();
  __m256d a1 = _mm256_setzero_pd();
  __m256d a2 = _mm256_setzero_pd();
  __m256d a3 = _mm256_setzero_pd();
  std::size_t i = begin;
  for (; i + 16 <= end; i += 16) {
    a0 = _mm256_add_pd(a0, _mm256_mul_pd(_mm256_loadu_pd(a + i),
                                         _mm256_loadu_pd(b + i)));
    a1 = _mm256_add_pd(a1, _mm256_mul_pd(_mm256_loadu_pd(a + i + 4),
                                         _mm256_loadu_pd(b + i + 4)));
    a2 = _mm256_add_pd(a2, _mm256_mul_pd(_mm256_loadu_pd(a + i + 8),
                                         _mm256_loadu_pd(b + i + 8)));
    a3 = _mm256_add_pd(a3, _mm256_mul_pd(_mm256_loadu_pd(a + i + 12),
                                         _mm256_loadu_pd(b + i + 12)));
  }
  for (; i + 4 <= end; i += 4) {
    a0 = _mm256_add_pd(a0, _mm256_mul_pd(_mm256_loadu_pd(a + i),
                                         _mm256_loadu_pd(b + i)));
  }
  double tail = 0.0;
  for (; i < end; ++i) tail += a[i] * b[i];
  const __m256d folded =
      _mm256_add_pd(_mm256_add_pd(a0, a2), _mm256_add_pd(a1, a3));
  return lane_combine(folded) + tail;
}

}  // namespace

void avx2_dot_blocks(const double* a, const double* b, std::size_t n,
                     std::size_t block_begin, std::size_t block_end,
                     double* partials) {
  for (std::size_t block = block_begin; block < block_end; ++block) {
    const std::size_t begin = block * kBlockDoubles;
    const std::size_t end = std::min(n, begin + kBlockDoubles);
    partials[block] = dot_block(a, b, begin, end);
  }
}

void avx2_axpy(double alpha, const double* x, double* y, std::size_t n) {
  const __m256d av = _mm256_set1_pd(alpha);
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    _mm256_storeu_pd(
        y + i, _mm256_add_pd(_mm256_loadu_pd(y + i),
                             _mm256_mul_pd(av, _mm256_loadu_pd(x + i))));
    _mm256_storeu_pd(
        y + i + 4,
        _mm256_add_pd(_mm256_loadu_pd(y + i + 4),
                      _mm256_mul_pd(av, _mm256_loadu_pd(x + i + 4))));
  }
  for (; i + 4 <= n; i += 4) {
    _mm256_storeu_pd(
        y + i, _mm256_add_pd(_mm256_loadu_pd(y + i),
                             _mm256_mul_pd(av, _mm256_loadu_pd(x + i))));
  }
  for (; i < n; ++i) y[i] += alpha * x[i];
}

void avx2_scale(double* v, double alpha, std::size_t n) {
  const __m256d av = _mm256_set1_pd(alpha);
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    _mm256_storeu_pd(v + i, _mm256_mul_pd(av, _mm256_loadu_pd(v + i)));
  }
  for (; i < n; ++i) v[i] *= alpha;
}

namespace {

/// Canonical per-length combine of per-entry product vectors, one row per
/// lane: the same association as the scalar row loop's switch.
template <std::uint32_t kLength, typename Entry>
inline __m256d combine_entries(const Entry& entry) {
  if constexpr (kLength == 1) {
    return entry(0);
  } else if constexpr (kLength == 2) {
    return _mm256_add_pd(entry(0), entry(1));
  } else if constexpr (kLength == 3) {
    return _mm256_add_pd(_mm256_add_pd(entry(0), entry(1)), entry(2));
  } else {
    return _mm256_add_pd(_mm256_add_pd(entry(0), entry(1)),
                         _mm256_add_pd(entry(2), entry(3)));
  }
}

/// The first n < 4 rows of a group, as 64-bit (double) and 32-bit
/// (float) lane masks.
struct RowMask {
  __m256i wide;
  __m128i narrow;
};

inline RowMask row_mask(std::size_t n) {
  const auto count = static_cast<long long>(n);
  return {_mm256_cmpgt_epi64(_mm256_set1_epi64x(count),
                             _mm256_setr_epi64x(0, 1, 2, 3)),
          _mm_cmpgt_epi32(_mm_set1_epi32(static_cast<int>(count)),
                          _mm_setr_epi32(0, 1, 2, 3))};
}

// Full-group and masked-group forms of the same operation, so one group
// body serves both: the masked form touches only the group's first rows
// (masked-off lanes load zero and never fault or store).
inline __m256d load_pd(const double* p) { return _mm256_loadu_pd(p); }
inline __m256d load_pd(const RowMask& mask, const double* p) {
  return _mm256_maskload_pd(p, mask.wide);
}
inline void store_pd(double* p, __m256d v) { _mm256_storeu_pd(p, v); }
inline void store_pd(const RowMask& mask, double* p, __m256d v) {
  _mm256_maskstore_pd(p, mask.wide, v);
}
inline __m256d max_pd(__m256d a, __m256d b) { return _mm256_max_pd(a, b); }
inline __m256d max_pd(const RowMask& mask, __m256d a, __m256d b) {
  return _mm256_blendv_pd(a, _mm256_max_pd(a, b),
                          _mm256_castsi256_pd(mask.wide));
}

/// Operand access of the double kernel: x and out are doubles.
struct DoubleLanes {
  using Value = double;
  static __m256d load(const double* p) { return load_pd(p); }
  static __m256d load(const RowMask& mask, const double* p) {
    return load_pd(mask, p);
  }
  static void store(double* p, __m256d v) { store_pd(p, v); }
  static void store(const RowMask& mask, double* p, __m256d v) {
    store_pd(mask, p, v);
  }
  static __m256d round(__m256d v) { return v; }
};

/// Operand access of the mixed kernel: x and out are floats, and round()
/// takes each slab value to float in register -- the bits of the float
/// shadow dictionary -- before it promotes exactly back to double.
struct MixedLanes {
  using Value = float;
  static __m256d load(const float* p) {
    return _mm256_cvtps_pd(_mm_loadu_ps(p));
  }
  static __m256d load(const RowMask& mask, const float* p) {
    return _mm256_cvtps_pd(_mm_maskload_ps(p, mask.narrow));
  }
  static void store(float* p, __m256d v) {
    _mm_storeu_ps(p, _mm256_cvtpd_ps(v));
  }
  static void store(const RowMask& mask, float* p, __m256d v) {
    _mm_maskstore_ps(p, mask.narrow, _mm256_cvtpd_ps(v));
  }
  static __m256d round(__m256d v) {
    return _mm256_cvtps_pd(_mm256_cvtpd_ps(v));
  }
};

/// Rows [row, end) of one uniform segment: groups of four rows with
/// plain loads, then one masked group for the remaining < 4 rows.
template <std::uint32_t kLength, typename Lanes>
inline void segment_rows(const FusedGatherPlan::UniformSegment& segment,
                         const double* slab, const typename Lanes::Value* x,
                         typename Lanes::Value* out, double* accum,
                         double weight, std::size_t row, std::size_t end,
                         __m256d& delta_v) {
  const __m256d sign_mask = _mm256_set1_pd(-0.0);
  const __m256d weight_v = _mm256_set1_pd(weight);
  // Per-entry value sources, hoisted out of the row loop: a broadcast
  // register for a constant entry, its slab otherwise.
  __m256d constant[kLength] = {};
  const double* values[kLength];
  for (std::uint32_t e = 0; e < kLength; ++e) {
    values[e] = slab + segment.values[e];
    if ((segment.constant_mask >> e) & 1u) {
      constant[e] = Lanes::round(_mm256_set1_pd(*values[e]));
    }
  }
  // One group of rows starting at `row` (segment-local `r`); `mask...` is
  // empty for a full group of four, the row mask for the tail.
  const auto group = [&](std::size_t r, const auto&... mask) {
    const auto entry = [&](std::uint32_t e) {
      const __m256d dv =
          ((segment.constant_mask >> e) & 1u)
              ? constant[e]
              : Lanes::round(load_pd(mask..., values[e] + r));
      const __m256d xv = Lanes::load(
          mask...,
          x + (static_cast<std::ptrdiff_t>(row) + segment.offsets[e]));
      return _mm256_mul_pd(dv, xv);
    };
    const __m256d v = combine_entries<kLength>(entry);
    Lanes::store(mask..., out + row, v);
    if (weight != 0.0) {
      store_pd(mask..., accum + row,
               _mm256_add_pd(load_pd(mask..., accum + row),
                             _mm256_mul_pd(weight_v, v)));
    }
    const __m256d distance = _mm256_andnot_pd(
        sign_mask, _mm256_sub_pd(v, Lanes::load(mask..., x + row)));
    delta_v = max_pd(mask..., delta_v, distance);
  };
  std::size_t r = row - segment.row_begin;
  for (; row + 4 <= end; row += 4, r += 4) group(r);
  if (row < end) group(r, row_mask(end - row));
}

/// The whole range in one call; the segment lanes' delta stays in a
/// register across segments.
template <typename Lanes>
double plan_rows(const RowOffsetPlan& plan, const typename Lanes::Value* x,
                 typename Lanes::Value* out, double* accum, double weight,
                 std::size_t row_begin, std::size_t row_end) {
  __m256d delta_v = _mm256_setzero_pd();
  const double* slab = plan.segment_values;
  const double delta = walk_plan_rows(
      plan, x, out, accum, weight, row_begin, row_end,
      [&](const FusedGatherPlan::UniformSegment& segment, std::size_t row,
          std::size_t end) {
        switch (segment.length) {
          case 1:
            segment_rows<1, Lanes>(segment, slab, x, out, accum, weight, row,
                                   end, delta_v);
            break;
          case 2:
            segment_rows<2, Lanes>(segment, slab, x, out, accum, weight, row,
                                   end, delta_v);
            break;
          case 3:
            segment_rows<3, Lanes>(segment, slab, x, out, accum, weight, row,
                                   end, delta_v);
            break;
          default:
            segment_rows<4, Lanes>(segment, slab, x, out, accum, weight, row,
                                   end, delta_v);
        }
      });
  return std::max(delta, lane_max(delta_v));
}

}  // namespace

double avx2_plan_rows(const RowOffsetPlan& plan, const double* x,
                      double* out, double* accum, double weight,
                      std::size_t row_begin, std::size_t row_end) {
  return plan_rows<DoubleLanes>(plan, x, out, accum, weight, row_begin,
                                row_end);
}

double avx2_plan_rows_mixed(const RowOffsetPlan& plan, const float* x,
                            float* out, double* accum, double weight,
                            std::size_t row_begin, std::size_t row_end) {
  return plan_rows<MixedLanes>(plan, x, out, accum, weight, row_begin,
                               row_end);
}

}  // namespace kibamrm::linalg::kernels::detail

#endif  // KIBAMRM_HAVE_AVX2_TIER
