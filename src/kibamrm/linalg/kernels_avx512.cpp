// AVX-512 tier of the dispatched kernel layer.  Compiled with
// -mavx512{f,dq,vl,bw} and FP contraction off (see CMakeLists); the
// double-precision kernels reproduce the canonical arithmetic order of
// their scalar counterparts bit for bit:
//
//   * the reduction holds the contract's sixteen interleaved lanes in two
//     zmm registers whose ymm halves are exactly the four AVX2 contract
//     registers, so the register-pairwise fold is literally the same
//     arithmetic,
//   * element-wise kernels round per element; the masked tails only
//     change which instruction performs an order-free operation,
//   * the uniform-segment lanes vectorise ACROSS rows (lane r = row r),
//     so each lane executes the scalar per-length order unchanged --
//     eight rows share registers, no row's arithmetic is reassociated.
//
// The plan-row kernel makes one call per row range and walks segments
// and the rows between them itself, keeping the delta in a register.
// Inside a segment nothing is gathered: identical column offsets make
// the x operands contiguous loads, the values come from the segment's
// entry-major slab as contiguous loads (or one broadcast for an entry
// that is constant over the segment), and the last < 8 rows run one
// masked group instead of a scalar loop.
#include "kibamrm/linalg/kernels_internal.hpp"

#if KIBAMRM_HAVE_AVX512_TIER

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

/// One block of the fixed-block dot.  The two zmm accumulators hold the
/// contract's sixteen lanes with z0 = (A0 | A1) and z1 = (A2 | A3) in the
/// AVX2 tier's register naming, so extracting the four ymm halves and
/// folding ((A0+A2)+(A1+A3)) reproduces the canonical order exactly.
inline double dot_block(const double* a, const double* b, std::size_t begin,
                        std::size_t end) {
  __m512d z0 = _mm512_setzero_pd();
  __m512d z1 = _mm512_setzero_pd();
  std::size_t i = begin;
  for (; i + 16 <= end; i += 16) {
    z0 = _mm512_add_pd(z0, _mm512_mul_pd(_mm512_loadu_pd(a + i),
                                         _mm512_loadu_pd(b + i)));
    z1 = _mm512_add_pd(z1, _mm512_mul_pd(_mm512_loadu_pd(a + i + 8),
                                         _mm512_loadu_pd(b + i + 8)));
  }
  __m256d a0 = _mm512_castpd512_pd256(z0);
  const __m256d a1 = _mm512_extractf64x4_pd(z0, 1);
  const __m256d a2 = _mm512_castpd512_pd256(z1);
  const __m256d a3 = _mm512_extractf64x4_pd(z1, 1);
  // Partial group of four feeds the first register's lanes, exactly as
  // the scalar and AVX2 cleanup loops do.
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

/// Canonical per-length combine of per-entry product vectors, one row per
/// lane: the same association as the scalar row loop's switch.
template <std::uint32_t kLength, typename Entry>
inline __m512d combine_entries512(const Entry& entry) {
  if constexpr (kLength == 1) {
    return entry(0);
  } else if constexpr (kLength == 2) {
    return _mm512_add_pd(entry(0), entry(1));
  } else if constexpr (kLength == 3) {
    return _mm512_add_pd(_mm512_add_pd(entry(0), entry(1)), entry(2));
  } else {
    return _mm512_add_pd(_mm512_add_pd(entry(0), entry(1)),
                         _mm512_add_pd(entry(2), entry(3)));
  }
}

// Full-group and masked-group forms of the same operation, so one group
// body serves both: the masked form touches only the group's first rows
// (masked-off lanes load zero and never fault or store).
inline __m512d load_pd(const double* p) { return _mm512_loadu_pd(p); }
inline __m512d load_pd(__mmask8 mask, const double* p) {
  return _mm512_maskz_loadu_pd(mask, p);
}
inline void store_pd(double* p, __m512d v) { _mm512_storeu_pd(p, v); }
inline void store_pd(__mmask8 mask, double* p, __m512d v) {
  _mm512_mask_storeu_pd(p, mask, v);
}
inline __m512d max_pd(__m512d a, __m512d b) { return _mm512_max_pd(a, b); }
inline __m512d max_pd(__mmask8 mask, __m512d a, __m512d b) {
  return _mm512_mask_max_pd(a, mask, a, b);
}

/// Operand access of the double kernel: x and out are doubles.
struct DoubleLanes {
  using Value = double;
  static __m512d load(const double* p) { return load_pd(p); }
  static __m512d load(__mmask8 mask, const double* p) {
    return load_pd(mask, p);
  }
  static void store(double* p, __m512d v) { store_pd(p, v); }
  static void store(__mmask8 mask, double* p, __m512d v) {
    store_pd(mask, p, v);
  }
  static __m512d round(__m512d v) { return v; }
};

/// Operand access of the mixed kernel: x and out are floats, and round()
/// takes each slab value to float in register -- the bits of the float
/// shadow dictionary -- before it promotes exactly back to double.
struct MixedLanes {
  using Value = float;
  static __m512d load(const float* p) {
    return _mm512_cvtps_pd(_mm256_loadu_ps(p));
  }
  static __m512d load(__mmask8 mask, const float* p) {
    return _mm512_cvtps_pd(_mm256_maskz_loadu_ps(mask, p));
  }
  static void store(float* p, __m512d v) {
    _mm256_storeu_ps(p, _mm512_cvtpd_ps(v));
  }
  static void store(__mmask8 mask, float* p, __m512d v) {
    _mm256_mask_storeu_ps(p, mask, _mm512_cvtpd_ps(v));
  }
  static __m512d round(__m512d v) {
    return _mm512_cvtps_pd(_mm512_cvtpd_ps(v));
  }
};

/// Rows [row, end) of one uniform segment: groups of eight rows with
/// plain loads, then one masked group for the remaining < 8 rows.
template <std::uint32_t kLength, typename Lanes>
inline void segment_rows512(const FusedGatherPlan::UniformSegment& segment,
                            const double* slab,
                            const typename Lanes::Value* x,
                            typename Lanes::Value* out, double* accum,
                            double weight, std::size_t row, std::size_t end,
                            __m512d& delta_v) {
  const __m512d sign_mask = _mm512_set1_pd(-0.0);
  const __m512d weight_v = _mm512_set1_pd(weight);
  // Per-entry value sources, hoisted out of the row loop: a broadcast
  // register for a constant entry, its slab otherwise.
  __m512d constant[kLength] = {};
  const double* values[kLength];
  for (std::uint32_t e = 0; e < kLength; ++e) {
    values[e] = slab + segment.values[e];
    if ((segment.constant_mask >> e) & 1u) {
      constant[e] = Lanes::round(_mm512_set1_pd(*values[e]));
    }
  }
  // One group of rows starting at `row` (segment-local `r`); `mask...` is
  // empty for a full group of eight, the row mask for the tail.
  const auto group = [&](std::size_t r, auto... mask) {
    const auto entry = [&](std::uint32_t e) {
      const __m512d dv =
          ((segment.constant_mask >> e) & 1u)
              ? constant[e]
              : Lanes::round(load_pd(mask..., values[e] + r));
      const __m512d xv = Lanes::load(
          mask...,
          x + (static_cast<std::ptrdiff_t>(row) + segment.offsets[e]));
      return _mm512_mul_pd(dv, xv);
    };
    const __m512d v = combine_entries512<kLength>(entry);
    Lanes::store(mask..., out + row, v);
    if (weight != 0.0) {
      store_pd(mask..., accum + row,
               _mm512_add_pd(load_pd(mask..., accum + row),
                             _mm512_mul_pd(weight_v, v)));
    }
    const __m512d distance = _mm512_andnot_pd(
        sign_mask, _mm512_sub_pd(v, Lanes::load(mask..., x + row)));
    delta_v = max_pd(mask..., delta_v, distance);
  };
  std::size_t r = row - segment.row_begin;
  for (; row + 8 <= end; row += 8, r += 8) group(r);
  if (row < end) {
    group(r, static_cast<__mmask8>((1u << (end - row)) - 1u));
  }
}

/// The whole range in one call; the segment lanes' delta stays in a
/// register across segments.
template <typename Lanes>
double plan_rows512(const RowOffsetPlan& plan,
                    const typename Lanes::Value* x,
                    typename Lanes::Value* out, double* accum, double weight,
                    std::size_t row_begin, std::size_t row_end) {
  __m512d delta_v = _mm512_setzero_pd();
  const double* slab = plan.segment_values;
  const double delta = walk_plan_rows(
      plan, x, out, accum, weight, row_begin, row_end,
      [&](const FusedGatherPlan::UniformSegment& segment, std::size_t row,
          std::size_t end) {
        switch (segment.length) {
          case 1:
            segment_rows512<1, Lanes>(segment, slab, x, out, accum, weight,
                                      row, end, delta_v);
            break;
          case 2:
            segment_rows512<2, Lanes>(segment, slab, x, out, accum, weight,
                                      row, end, delta_v);
            break;
          case 3:
            segment_rows512<3, Lanes>(segment, slab, x, out, accum, weight,
                                      row, end, delta_v);
            break;
          default:
            segment_rows512<4, Lanes>(segment, slab, x, out, accum, weight,
                                      row, end, delta_v);
        }
      });
  return std::max(delta, _mm512_reduce_max_pd(delta_v));
}

}  // namespace

void avx512_dot_blocks(const double* a, const double* b, std::size_t n,
                       std::size_t block_begin, std::size_t block_end,
                       double* partials) {
  for (std::size_t block = block_begin; block < block_end; ++block) {
    const std::size_t begin = block * kBlockDoubles;
    const std::size_t end = std::min(n, begin + kBlockDoubles);
    partials[block] = dot_block(a, b, begin, end);
  }
}

void avx512_axpy(double alpha, const double* x, double* y, std::size_t n) {
  const __m512d av = _mm512_set1_pd(alpha);
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    _mm512_storeu_pd(
        y + i, _mm512_add_pd(_mm512_loadu_pd(y + i),
                             _mm512_mul_pd(av, _mm512_loadu_pd(x + i))));
  }
  if (i < n) {
    const __mmask8 mask =
        static_cast<__mmask8>((1u << (n - i)) - 1u);
    const __m512d xv = _mm512_maskz_loadu_pd(mask, x + i);
    const __m512d yv = _mm512_maskz_loadu_pd(mask, y + i);
    _mm512_mask_storeu_pd(y + i, mask,
                          _mm512_add_pd(yv, _mm512_mul_pd(av, xv)));
  }
}

void avx512_scale(double* v, double alpha, std::size_t n) {
  const __m512d av = _mm512_set1_pd(alpha);
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    _mm512_storeu_pd(v + i, _mm512_mul_pd(av, _mm512_loadu_pd(v + i)));
  }
  if (i < n) {
    const __mmask8 mask =
        static_cast<__mmask8>((1u << (n - i)) - 1u);
    _mm512_mask_storeu_pd(
        v + i, mask,
        _mm512_mul_pd(av, _mm512_maskz_loadu_pd(mask, v + i)));
  }
}

double avx512_plan_rows(const RowOffsetPlan& plan, const double* x,
                        double* out, double* accum, double weight,
                        std::size_t row_begin, std::size_t row_end) {
  return plan_rows512<DoubleLanes>(plan, x, out, accum, weight, row_begin,
                                   row_end);
}

double avx512_plan_rows_mixed(const RowOffsetPlan& plan, const float* x,
                              float* out, double* accum, double weight,
                              std::size_t row_begin, std::size_t row_end) {
  return plan_rows512<MixedLanes>(plan, x, out, accum, weight, row_begin,
                                  row_end);
}

}  // namespace kibamrm::linalg::kernels::detail

#endif  // KIBAMRM_HAVE_AVX512_TIER
