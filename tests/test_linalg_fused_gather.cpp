// Tests for the fused uniformisation-step kernels: the CSR fused gather
// and scatter variants, the compressed FusedGatherPlan (bitwise parity
// with the CSR gather), and the reachability/compaction helpers they ride
// on.
#include <gtest/gtest.h>

#include <cmath>
#include <random>
#include <vector>

#include "kibamrm/common/error.hpp"
#include "kibamrm/linalg/csr_matrix.hpp"
#include "kibamrm/linalg/fused_gather.hpp"
#include "kibamrm/linalg/vector_ops.hpp"

namespace kibamrm::linalg {
namespace {

// Banded row-stochastic matrix with mixed row lengths (1 to 5 stored
// entries), resembling a uniformised battery chain.
CsrMatrix banded(std::size_t n) {
  CooBuilder builder(n, n);
  for (std::size_t i = 0; i < n; ++i) {
    double off = 0.0;
    if (i > 0) {
      builder.add(i, i - 1, 0.3);
      off += 0.3;
    }
    if (i + 1 < n) {
      builder.add(i, i + 1, 0.2);
      off += 0.2;
    }
    if (i % 3 == 0 && i + 2 < n) {
      builder.add(i, i + 2, 0.1);
      off += 0.1;
    }
    if (i % 5 == 0 && i >= 2) {
      builder.add(i, i - 2, 0.05);
      off += 0.05;
    }
    builder.add(i, i, 1.0 - off);
  }
  return builder.build();
}

std::vector<double> random_vector(std::size_t n, unsigned seed) {
  std::mt19937 rng(seed);
  std::uniform_real_distribution<double> uniform(0.0, 1.0);
  std::vector<double> v(n);
  for (double& x : v) x = uniform(rng);
  return v;
}

TEST(CsrFusedRange, MatchesMultiplyPlusAxpyPlusDelta) {
  const CsrMatrix pt = banded(257).transposed();
  const std::vector<double> x = random_vector(257, 1);
  std::vector<double> expected(257, 0.0);
  pt.multiply(x, expected);
  std::vector<double> expected_accum(257, 0.25);
  axpy(0.125, expected, expected_accum);
  const double expected_delta = linf_distance(expected, x);

  std::vector<double> out(257, 0.0);
  std::vector<double> accum(257, 0.25);
  const double delta = pt.multiply_fused_range(x, out, accum, 0.125, 0, 257);
  for (std::size_t i = 0; i < out.size(); ++i) {
    EXPECT_NEAR(out[i], expected[i], 1e-15) << "row " << i;
    EXPECT_NEAR(accum[i], expected_accum[i], 1e-15) << "row " << i;
  }
  EXPECT_NEAR(delta, expected_delta, 1e-15);
}

TEST(CsrFusedRange, ZeroWeightSkipsAccumulator) {
  const CsrMatrix pt = banded(64).transposed();
  const std::vector<double> x = random_vector(64, 2);
  std::vector<double> out(64, 0.0);
  std::vector<double> accum(64, 0.75);
  pt.multiply_fused_range(x, out, accum, 0.0, 0, 64);
  for (const double a : accum) EXPECT_EQ(a, 0.75);
}

TEST(CsrFusedRange, DisjointRangesComposeBitwise) {
  const CsrMatrix pt = banded(101).transposed();
  const std::vector<double> x = random_vector(101, 3);
  std::vector<double> out_full(101, 0.0);
  std::vector<double> accum_full(101, 0.0);
  const double delta_full =
      pt.multiply_fused_range(x, out_full, accum_full, 0.5, 0, 101);

  std::vector<double> out(101, 0.0);
  std::vector<double> accum(101, 0.0);
  double delta = 0.0;
  for (const auto& [begin, end] :
       {std::pair<std::size_t, std::size_t>{0, 37},
        std::pair<std::size_t, std::size_t>{37, 70},
        std::pair<std::size_t, std::size_t>{70, 101}}) {
    delta = std::max(delta,
                     pt.multiply_fused_range(x, out, accum, 0.5, begin, end));
  }
  EXPECT_EQ(out, out_full);      // bitwise: sharding cannot change results
  EXPECT_EQ(accum, accum_full);
  EXPECT_EQ(delta, delta_full);
}

TEST(FusedGatherPlan, BitwiseMatchesCsrKernel) {
  const CsrMatrix pt = banded(509).transposed();
  const auto plan = FusedGatherPlan::build(pt);
  ASSERT_TRUE(plan.has_value());
  EXPECT_EQ(plan->rows(), pt.rows());
  EXPECT_EQ(plan->nonzeros(), pt.nonzeros());

  const std::vector<double> x = random_vector(509, 4);
  std::vector<double> out_csr(509, 0.0), accum_csr(509, 0.0);
  std::vector<double> out_plan(509, 0.0), accum_plan(509, 0.0);
  const double delta_csr =
      pt.multiply_fused_range(x, out_csr, accum_csr, 0.375, 0, 509);
  const double delta_plan =
      plan->multiply_fused_range(x, out_plan, accum_plan, 0.375, 0, 509);
  // The dictionary stores exact doubles and every row length evaluates in
  // the same canonical order, so the two kernels agree bit for bit.
  EXPECT_EQ(out_plan, out_csr);
  EXPECT_EQ(accum_plan, accum_csr);
  EXPECT_EQ(delta_plan, delta_csr);
}

TEST(FusedGatherPlan, RangesComposeBitwise) {
  const CsrMatrix pt = banded(211).transposed();
  const auto plan = FusedGatherPlan::build(pt);
  ASSERT_TRUE(plan.has_value());
  const std::vector<double> x = random_vector(211, 5);
  std::vector<double> out_full(211, 0.0), accum_full(211, 0.0);
  plan->multiply_fused_range(x, out_full, accum_full, 1.0, 0, 211);
  std::vector<double> out(211, 0.0), accum(211, 0.0);
  plan->multiply_fused_range(x, out, accum, 1.0, 100, 211);  // out of order
  plan->multiply_fused_range(x, out, accum, 1.0, 0, 100);
  EXPECT_EQ(out, out_full);
  EXPECT_EQ(accum, accum_full);
}

// Constant three-point stencil with a pattern break every `period` rows
// (an extra entry), so the plan finds many uniform segments separated by
// single irregular rows -- the shape an RCM-banded battery chain takes.
CsrMatrix stencil_with_breaks(std::size_t n, std::size_t period) {
  CooBuilder builder(n, n);
  for (std::size_t i = 0; i < n; ++i) {
    double off = 0.0;
    if (i > 0) {
      builder.add(i, i - 1, 0.3);
      off += 0.3;
    }
    if (i + 1 < n) {
      builder.add(i, i + 1, 0.2);
      off += 0.2;
    }
    if (i % period == 0 && i + 2 < n) {
      builder.add(i, i + 2, 0.1);
      off += 0.1;
    }
    builder.add(i, i, 1.0 - off);
  }
  return builder.build();
}

TEST(FusedGatherPlan, SegmentSpansAreOrderedUniformRuns) {
  const CsrMatrix pt = stencil_with_breaks(211, 50).transposed();
  const auto plan = FusedGatherPlan::build(pt);
  ASSERT_TRUE(plan.has_value());
  // Spans cover the uniform runs only (gaps are the irregular rows), in
  // ascending row order without overlap.
  const auto spans = plan->uniform_segment_spans();
  ASSERT_GE(spans.size(), 3u);
  std::size_t cursor = 0;
  for (const auto& [begin, end] : spans) {
    EXPECT_GE(begin, cursor);
    EXPECT_LT(begin, end);
    EXPECT_LE(end, plan->rows());
    cursor = end;
  }
}

TEST(FusedGatherPlan, AlignRangesSnapsToSegmentEdgesBitwise) {
  const CsrMatrix pt = stencil_with_breaks(509, 50).transposed();
  const auto plan = FusedGatherPlan::build(pt);
  ASSERT_TRUE(plan.has_value());
  ASSERT_FALSE(plan->uniform_segment_spans().empty());
  // An arbitrary unaligned partition; after alignment no interior
  // boundary may sit strictly inside a uniform segment (it either snapped
  // to a segment edge or already lay in an irregular gap), and the whole
  // thing must remain a strictly ascending partition of [0, rows).
  std::vector<std::size_t> ranges = {0, 97, 222, 351, 509};
  plan->align_ranges_to_segments(ranges);
  ASSERT_GE(ranges.size(), 2u);
  EXPECT_EQ(ranges.front(), 0u);
  EXPECT_EQ(ranges.back(), plan->rows());
  const auto spans = plan->uniform_segment_spans();
  for (std::size_t i = 0; i + 1 < ranges.size(); ++i) {
    EXPECT_LT(ranges[i], ranges[i + 1]);
    if (i == 0) continue;
    for (const auto& [begin, end] : spans) {
      EXPECT_FALSE(begin < ranges[i] && ranges[i] < end)
          << "boundary " << ranges[i] << " splits segment [" << begin
          << ", " << end << ")";
    }
  }

  // Aligned shards still compose to the full-range result bit for bit
  // (alignment is an optimisation for the segment-run kernel, never a
  // semantic change).
  const std::vector<double> x = random_vector(509, 6);
  std::vector<double> out_full(509, 0.0), accum_full(509, 0.0);
  const double delta_full =
      plan->multiply_fused_range(x, out_full, accum_full, 0.625, 0, 509);
  std::vector<double> out(509, 0.0), accum(509, 0.0);
  double delta = 0.0;
  for (std::size_t i = 0; i + 1 < ranges.size(); ++i) {
    delta = std::max(delta, plan->multiply_fused_range(
                                x, out, accum, 0.625, ranges[i],
                                ranges[i + 1]));
  }
  EXPECT_EQ(out, out_full);
  EXPECT_EQ(accum, accum_full);
  EXPECT_EQ(delta, delta_full);
}

TEST(FusedGatherPlan, WideOffsetsFallBackToColumnDelta) {
  // A synthetic wide chain: couplings 40000 columns from the row escape
  // the int16 row-offset layout, but every within-row column gap fits
  // uint16, so the column-delta fallback layout takes over -- with the
  // same bitwise result as the CSR kernel.
  const std::size_t n = 50000;
  const std::size_t span = 40000;
  CooBuilder builder(n, n);
  for (std::size_t i = 0; i < n; ++i) {
    double off = 0.0;
    if (i >= span) {
      builder.add(i, i - span, 0.25);
      off += 0.25;
    }
    if (i + span < n) {
      builder.add(i, i + span, 0.15);
      off += 0.15;
    }
    if (i + 1 < n) {
      builder.add(i, i + 1, 0.1);
      off += 0.1;
    }
    builder.add(i, i, 1.0 - off);
  }
  const CsrMatrix pt = builder.build();
  const auto plan = FusedGatherPlan::build(pt);
  ASSERT_TRUE(plan.has_value());
  EXPECT_EQ(plan->layout(), FusedGatherPlan::Layout::kColumnDelta);
  EXPECT_EQ(plan->nonzeros(), pt.nonzeros());

  const std::vector<double> x = random_vector(n, 7);
  std::vector<double> out_csr(n, 0.0), accum_csr(n, 0.0);
  std::vector<double> out_plan(n, 0.0), accum_plan(n, 0.0);
  const double delta_csr =
      pt.multiply_fused_range(x, out_csr, accum_csr, 0.5, 0, n);
  const double delta_plan =
      plan->multiply_fused_range(x, out_plan, accum_plan, 0.5, 0, n);
  EXPECT_EQ(out_plan, out_csr);
  EXPECT_EQ(accum_plan, accum_csr);
  EXPECT_EQ(delta_plan, delta_csr);
}

TEST(FusedGatherPlan, ColumnDeltaHandlesLongRows) {
  // Rows beyond the switch cases (>= 5 entries) exercise the incremental
  // even/odd column walk of the delta kernel.
  const std::size_t n = 40000;
  CooBuilder builder(n, n);
  for (std::size_t i = 0; i < n; ++i) {
    builder.add(i, i, 0.5);
    for (std::size_t e = 1; e <= 6; ++e) {
      const std::size_t col = (i + 6001 * e) % n;
      builder.add(i, col, 0.01 * static_cast<double>(e));
    }
  }
  const CsrMatrix pt = builder.build();
  const auto plan = FusedGatherPlan::build(pt);
  ASSERT_TRUE(plan.has_value());
  EXPECT_EQ(plan->layout(), FusedGatherPlan::Layout::kColumnDelta);

  const std::vector<double> x = random_vector(n, 8);
  std::vector<double> out_csr(n, 0.0), accum_csr(n, 0.0);
  std::vector<double> out_plan(n, 0.0), accum_plan(n, 0.0);
  pt.multiply_fused_range(x, out_csr, accum_csr, 0.25, 0, n);
  plan->multiply_fused_range(x, out_plan, accum_plan, 0.25, 0, n);
  EXPECT_EQ(out_plan, out_csr);
  EXPECT_EQ(accum_plan, accum_csr);
}

TEST(FusedGatherPlan, RefusesWideColumnGaps) {
  // A within-row gap of 70000 columns fits neither int16 row offsets nor
  // uint16 column deltas.
  CooBuilder builder(80000, 80000);
  for (std::size_t i = 0; i < 80000; ++i) builder.add(i, i, 1.0);
  builder.add(0, 70000, 0.5);
  EXPECT_FALSE(FusedGatherPlan::build(builder.build()).has_value());
}

TEST(FusedGatherPlan, RefusesRectangularMatrices) {
  CooBuilder builder(3, 4);
  builder.add(0, 0, 1.0);
  EXPECT_FALSE(FusedGatherPlan::build(builder.build()).has_value());
}

TEST(ReachableRows, ClosureFollowsSparsityPattern) {
  // 0 -> 1 -> 2, 3 -> 4, 5 isolated (self loop).
  CooBuilder builder(6, 6);
  builder.add(0, 1, 1.0);
  builder.add(1, 2, 1.0);
  builder.add(3, 4, 1.0);
  builder.add(5, 5, 1.0);
  const CsrMatrix m = builder.build();
  const std::vector<std::uint32_t> seed0 = {0};
  EXPECT_EQ(m.reachable_rows(seed0), (std::vector<std::uint32_t>{0, 1, 2}));
  const std::vector<std::uint32_t> seed3 = {3};
  EXPECT_EQ(m.reachable_rows(seed3), (std::vector<std::uint32_t>{3, 4}));
  const std::vector<std::uint32_t> seeds = {5, 0};
  EXPECT_EQ(m.reachable_rows(seeds),
            (std::vector<std::uint32_t>{0, 1, 2, 5}));
}

TEST(TransposedSubmatrix, CompactsAndTransposes) {
  // Keep rows {0, 2, 3} of a 4x4 matrix; entries into dropped rows vanish.
  CooBuilder builder(4, 4);
  builder.add(0, 0, 1.0);
  builder.add(0, 2, 2.0);
  builder.add(1, 0, 9.0);   // dropped row
  builder.add(2, 1, 8.0);   // dropped column
  builder.add(2, 3, 3.0);
  builder.add(3, 3, 4.0);
  const CsrMatrix m = builder.build();
  const std::vector<std::uint32_t> keep = {0, 2, 3};
  const CsrMatrix sub = m.transposed_submatrix(keep);
  ASSERT_EQ(sub.rows(), 3u);
  ASSERT_EQ(sub.cols(), 3u);
  // Compact indices: 0 -> 0, 2 -> 1, 3 -> 2; sub holds the transpose, so
  // a kept entry m(r, c) lands at sub(compact(c), compact(r)).
  EXPECT_DOUBLE_EQ(sub.at(0, 0), 1.0);  // m(0,0)
  EXPECT_DOUBLE_EQ(sub.at(1, 0), 2.0);  // m(0,2) transposed
  EXPECT_DOUBLE_EQ(sub.at(2, 1), 3.0);  // m(2,3) transposed
  EXPECT_DOUBLE_EQ(sub.at(2, 2), 4.0);  // m(3,3)
  EXPECT_EQ(sub.nonzeros(), 4u);        // the 8.0 and 9.0 entries vanished
}

TEST(TransposedSubmatrix, FullKeepEqualsTranspose) {
  const CsrMatrix m = banded(37);
  std::vector<std::uint32_t> all(37);
  for (std::uint32_t i = 0; i < 37; ++i) all[i] = i;
  const CsrMatrix a = m.transposed_submatrix(all);
  const CsrMatrix b = m.transposed();
  ASSERT_EQ(a.nonzeros(), b.nonzeros());
  for (std::size_t r = 0; r < 37; ++r) {
    for (std::size_t c = 0; c < 37; ++c) {
      EXPECT_DOUBLE_EQ(a.at(r, c), b.at(r, c));
    }
  }
}

TEST(TransposedSubmatrix, RejectsBadKeepSets) {
  const CsrMatrix m = banded(8);
  EXPECT_THROW(m.transposed_submatrix({}), InvalidArgument);
  const std::vector<std::uint32_t> unsorted = {3, 1};
  EXPECT_THROW(m.transposed_submatrix(unsorted), InvalidArgument);
  const std::vector<std::uint32_t> out_of_range = {7, 9};
  EXPECT_THROW(m.transposed_submatrix(out_of_range), InvalidArgument);
}

}  // namespace
}  // namespace kibamrm::linalg
