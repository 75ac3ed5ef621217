// Tests for the COO builder and CSR matrix kernels.
#include <gtest/gtest.h>

#include <algorithm>
#include <random>
#include <type_traits>
#include <vector>

#include "kibamrm/common/error.hpp"
#include "kibamrm/linalg/csr_matrix.hpp"

namespace kibamrm::linalg {
namespace {

CsrMatrix small_matrix() {
  // [ 1 0 2 ]
  // [ 0 0 0 ]
  // [ 3 4 0 ]
  CooBuilder builder(3, 3);
  builder.add(0, 0, 1.0);
  builder.add(0, 2, 2.0);
  builder.add(2, 0, 3.0);
  builder.add(2, 1, 4.0);
  return builder.build();
}

TEST(CooBuilder, MergesDuplicatesAndDropsZeros) {
  CooBuilder builder(2, 2);
  builder.add(0, 0, 1.0);
  builder.add(0, 0, 2.0);   // duplicate: summed
  builder.add(1, 1, 5.0);
  builder.add(1, 1, -5.0);  // cancels to zero: dropped
  builder.add(0, 1, 0.0);   // explicit zero: dropped
  const CsrMatrix m = builder.build();
  EXPECT_EQ(m.nonzeros(), 1u);
  EXPECT_DOUBLE_EQ(m.at(0, 0), 3.0);
  EXPECT_DOUBLE_EQ(m.at(1, 1), 0.0);
}

TEST(CooBuilder, OutOfBoundsRejected) {
  CooBuilder builder(2, 2);
  EXPECT_THROW(builder.add(2, 0, 1.0), InvalidArgument);
  EXPECT_THROW(builder.add(0, 2, 1.0), InvalidArgument);
}

TEST(CooBuilder, UnsortedInsertionOrderIsFine) {
  CooBuilder builder(3, 3);
  builder.add(2, 1, 4.0);
  builder.add(0, 2, 2.0);
  builder.add(2, 0, 3.0);
  builder.add(0, 0, 1.0);
  const CsrMatrix m = builder.build();
  EXPECT_DOUBLE_EQ(m.at(0, 0), 1.0);
  EXPECT_DOUBLE_EQ(m.at(0, 2), 2.0);
  EXPECT_DOUBLE_EQ(m.at(2, 0), 3.0);
  EXPECT_DOUBLE_EQ(m.at(2, 1), 4.0);
}

TEST(CooBuilder, SortedAndShuffledInputBuildTheSameCsr) {
  // The sorted-input fast path and the sorting path must agree array for
  // array, duplicates and cancelling entries included.  Values are small
  // dyadic numbers, so duplicate sums are exact in any merge order.
  std::vector<Triplet> triplets;
  for (std::uint32_t row = 0; row < 40; ++row) {
    for (std::uint32_t col = row % 3; col < 40; col += 7) {
      triplets.push_back({row, col, 0.25 * (1.0 + (row + col) % 5)});
    }
    // A duplicate pair summing to 1 and one cancelling to zero.
    triplets.push_back({row, row, 1.5});
    triplets.push_back({row, row, -0.5});
    triplets.push_back({row, 39, 2.0});
    triplets.push_back({row, 39, -2.0});
  }
  std::vector<Triplet> sorted = triplets;
  std::stable_sort(sorted.begin(), sorted.end(),
                   [](const Triplet& a, const Triplet& b) {
                     return a.row != b.row ? a.row < b.row : a.col < b.col;
                   });
  const auto build = [](const std::vector<Triplet>& input) {
    CooBuilder builder(40, 40);
    for (const Triplet& t : input) builder.add(t.row, t.col, t.value);
    return builder.build();
  };
  const CsrMatrix reference = build(sorted);
  EXPECT_EQ(reference.at(3, 3), 1.0);
  EXPECT_EQ(reference.at(5, 39), 0.0);
  const auto as_vector = [](auto span) {
    return std::vector<std::decay_t<decltype(span[0])>>(span.begin(),
                                                        span.end());
  };
  std::mt19937 rng(7);
  for (int round = 0; round < 5; ++round) {
    std::vector<Triplet> shuffled = triplets;
    std::shuffle(shuffled.begin(), shuffled.end(), rng);
    const CsrMatrix m = build(shuffled);
    EXPECT_EQ(as_vector(m.row_pointers()),
              as_vector(reference.row_pointers()));
    EXPECT_EQ(as_vector(m.column_indices()),
              as_vector(reference.column_indices()));
    EXPECT_EQ(as_vector(m.values()), as_vector(reference.values()));
  }
}

TEST(CsrMatrix, MultiplyColumnVector) {
  const CsrMatrix m = small_matrix();
  std::vector<double> out;
  m.multiply({1.0, 2.0, 3.0}, out);
  ASSERT_EQ(out.size(), 3u);
  EXPECT_DOUBLE_EQ(out[0], 7.0);   // 1*1 + 2*3
  EXPECT_DOUBLE_EQ(out[1], 0.0);
  EXPECT_DOUBLE_EQ(out[2], 11.0);  // 3*1 + 4*2
}

TEST(CsrMatrix, LeftMultiplyRowVector) {
  const CsrMatrix m = small_matrix();
  std::vector<double> out;
  m.left_multiply({1.0, 2.0, 3.0}, out);
  ASSERT_EQ(out.size(), 3u);
  EXPECT_DOUBLE_EQ(out[0], 10.0);  // 1*1 + 3*3
  EXPECT_DOUBLE_EQ(out[1], 12.0);  // 3*4
  EXPECT_DOUBLE_EQ(out[2], 2.0);   // 1*2
}

TEST(CsrMatrix, LeftMultiplyEqualsTransposedMultiply) {
  const CsrMatrix m = small_matrix();
  const CsrMatrix mt = m.transposed();
  const std::vector<double> v = {0.3, 0.5, 0.2};
  std::vector<double> left;
  std::vector<double> via_transpose;
  m.left_multiply(v, left);
  mt.multiply(v, via_transpose);
  for (std::size_t i = 0; i < 3; ++i) {
    EXPECT_NEAR(left[i], via_transpose[i], 1e-15);
  }
}

TEST(CsrMatrix, DimensionMismatchRejected) {
  const CsrMatrix m = small_matrix();
  std::vector<double> out;
  const std::vector<double> bad = {1.0, 2.0};
  EXPECT_THROW(m.multiply(bad, out), InvalidArgument);
  EXPECT_THROW(m.left_multiply(bad, out), InvalidArgument);
}

TEST(CsrMatrix, RowSums) {
  const std::vector<double> sums = small_matrix().row_sums();
  EXPECT_DOUBLE_EQ(sums[0], 3.0);
  EXPECT_DOUBLE_EQ(sums[1], 0.0);
  EXPECT_DOUBLE_EQ(sums[2], 7.0);
}

TEST(CsrMatrix, ScaledCopies) {
  const CsrMatrix m = small_matrix().scaled(2.0);
  EXPECT_DOUBLE_EQ(m.at(0, 2), 4.0);
  EXPECT_DOUBLE_EQ(m.at(2, 1), 8.0);
}

TEST(CsrMatrix, TransposeRoundTrip) {
  const CsrMatrix m = small_matrix();
  const CsrMatrix mtt = m.transposed().transposed();
  for (std::size_t i = 0; i < 3; ++i) {
    for (std::size_t j = 0; j < 3; ++j) {
      EXPECT_DOUBLE_EQ(m.at(i, j), mtt.at(i, j));
    }
  }
}

CsrMatrix two_state_generator(double a, double b) {
  CooBuilder builder(2, 2);
  builder.add(0, 0, -a);
  builder.add(0, 1, a);
  builder.add(1, 0, b);
  builder.add(1, 1, -b);
  return builder.build();
}

TEST(CsrMatrix, MaxExitRate) {
  EXPECT_DOUBLE_EQ(two_state_generator(2.0, 5.0).max_exit_rate(), 5.0);
}

TEST(CsrMatrix, UniformizedIsStochastic) {
  const CsrMatrix q = two_state_generator(2.0, 5.0);
  const CsrMatrix p = q.uniformized(5.0);
  const std::vector<double> sums = p.row_sums();
  EXPECT_NEAR(sums[0], 1.0, 1e-15);
  EXPECT_NEAR(sums[1], 1.0, 1e-15);
  EXPECT_DOUBLE_EQ(p.at(0, 1), 0.4);
  EXPECT_DOUBLE_EQ(p.at(0, 0), 0.6);
  EXPECT_DOUBLE_EQ(p.at(1, 1), 0.0);
}

TEST(CsrMatrix, UniformizedHandlesAbsorbingRows) {
  CooBuilder builder(2, 2);
  builder.add(0, 0, -1.0);
  builder.add(0, 1, 1.0);
  // row 1 absorbing: all zero
  const CsrMatrix p = builder.build().uniformized(1.0);
  EXPECT_DOUBLE_EQ(p.at(1, 1), 1.0);
  EXPECT_DOUBLE_EQ(p.at(1, 0), 0.0);
}

TEST(CsrMatrix, UniformizedRejectsTooSmallRate) {
  const CsrMatrix q = two_state_generator(2.0, 5.0);
  EXPECT_THROW(q.uniformized(4.0), InvalidArgument);
}

TEST(CsrMatrix, AtOutOfRangeRejected) {
  const CsrMatrix m = small_matrix();
  EXPECT_THROW(m.at(3, 0), InvalidArgument);
  EXPECT_THROW(m.at(0, 3), InvalidArgument);
}

TEST(CsrMatrix, MultiplyRangeCoversExactlyItsRows) {
  // Ranged gather == full multiply on the covered rows, untouched outside.
  CooBuilder builder(5, 5);
  builder.add(0, 1, 2.0);
  builder.add(1, 0, 3.0);
  builder.add(1, 4, 1.0);
  builder.add(3, 3, -4.0);
  builder.add(4, 2, 0.5);
  const CsrMatrix m = builder.build();
  const std::vector<double> x = {1.0, 2.0, 3.0, 4.0, 5.0};

  std::vector<double> full;
  m.multiply(x, full);

  std::vector<double> ranged(5, -99.0);
  m.multiply_range(x, ranged, 1, 4);
  for (std::size_t row = 0; row < 5; ++row) {
    if (row >= 1 && row < 4) {
      EXPECT_DOUBLE_EQ(ranged[row], full[row]) << "row " << row;
    } else {
      EXPECT_DOUBLE_EQ(ranged[row], -99.0) << "row " << row;
    }
  }
}

TEST(CsrMatrix, MultiplyRangeStitchedPartitionsMatchFullMultiply) {
  const CsrMatrix p =
      two_state_generator(1.0, 2.0).uniformized(4.0).transposed();
  const std::vector<double> x = {0.25, 0.75};
  std::vector<double> full;
  p.multiply(x, full);
  std::vector<double> stitched(p.rows(), 0.0);
  const auto ranges = p.balanced_row_ranges(2);
  for (std::size_t part = 0; part + 1 < ranges.size(); ++part) {
    p.multiply_range(x, stitched, ranges[part], ranges[part + 1]);
  }
  for (std::size_t row = 0; row < p.rows(); ++row) {
    // Bitwise, not approximate: each entry is one row gather either way.
    EXPECT_EQ(stitched[row], full[row]) << "row " << row;
  }
}

TEST(CsrMatrix, MultiplyRangeRejectsBadArguments) {
  const CsrMatrix m(3, 3);
  const std::vector<double> x = {1.0, 2.0, 3.0};
  std::vector<double> too_small(2, 0.0);
  EXPECT_THROW(m.multiply_range(x, too_small, 0, 3), InvalidArgument);
  std::vector<double> out(3, 0.0);
  EXPECT_THROW(m.multiply_range(x, out, 2, 1), InvalidArgument);
  EXPECT_THROW(m.multiply_range(x, out, 0, 4), InvalidArgument);
}

TEST(CsrMatrix, BalancedRowRangesCoverAllRowsInOrder) {
  const std::size_t n = 1000;
  CooBuilder builder(n, n);
  // Heavily skewed nnz: row i holds i % 7 entries, so equal-row splits
  // would be badly unbalanced.
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t k = 0; k < i % 7; ++k) {
      builder.add(i, (i + k) % n, 1.0);
    }
  }
  const CsrMatrix m = builder.build();
  for (const std::size_t parts : {1u, 3u, 16u}) {
    const auto ranges = m.balanced_row_ranges(parts);
    ASSERT_GE(ranges.size(), 2u);
    ASSERT_LE(ranges.size(), parts + 1);
    EXPECT_EQ(ranges.front(), 0u);
    EXPECT_EQ(ranges.back(), n);
    for (std::size_t i = 0; i + 1 < ranges.size(); ++i) {
      EXPECT_LT(ranges[i], ranges[i + 1]) << "empty or unsorted range";
    }
  }
}

TEST(CsrMatrix, BalancedRowRangesBalanceByNonzeros) {
  // 100 rows: the first 10 hold 50 nonzeros each, the rest one each.  An
  // equal-rows split at 2 parts would put 5% of the work in part 2; the
  // nnz-balanced split must cut inside the heavy block.
  CooBuilder builder(100, 100);
  for (std::size_t i = 0; i < 10; ++i) {
    for (std::size_t k = 0; k < 50; ++k) builder.add(i, k, 1.0);
  }
  for (std::size_t i = 10; i < 100; ++i) builder.add(i, 0, 1.0);
  const CsrMatrix m = builder.build();
  const auto ranges = m.balanced_row_ranges(2);
  ASSERT_EQ(ranges.size(), 3u);
  EXPECT_LT(ranges[1], 10u) << "split must land inside the heavy rows";
}

TEST(CsrMatrix, BalancedRowRangesSurviveOneDominantRow) {
  // One row holds ~84% of the weight; the remaining parts must still be
  // carved out of the light tail instead of collapsing into one range.
  CooBuilder builder(100, 100);
  for (std::size_t k = 0; k < 100; ++k) builder.add(0, k, 1.0);
  for (std::size_t i = 1; i < 100; ++i) builder.add(i, 0, 1.0);
  const CsrMatrix m = builder.build();
  const auto ranges = m.balanced_row_ranges(4);
  ASSERT_EQ(ranges.size(), 5u) << "requested parts must all materialise";
  EXPECT_EQ(ranges[1], 1u) << "the dominant row is its own range";
}

TEST(CsrMatrix, BalancedRowRangesMoreKPartsThanRows) {
  const CsrMatrix m(3, 3);
  const auto ranges = m.balanced_row_ranges(16);
  EXPECT_EQ(ranges.front(), 0u);
  EXPECT_EQ(ranges.back(), 3u);
  ASSERT_LE(ranges.size(), 4u);
  for (std::size_t i = 0; i + 1 < ranges.size(); ++i) {
    EXPECT_LT(ranges[i], ranges[i + 1]);
  }
}

TEST(CsrMatrix, LargeBandedMatrixRoundTrip) {
  // A 10k-state birth-death structure, the shape of the expanded battery
  // chains; checks index arithmetic at scale.
  const std::size_t n = 10000;
  CooBuilder builder(n, n);
  for (std::size_t i = 0; i < n; ++i) {
    if (i + 1 < n) builder.add(i, i + 1, 1.0 + static_cast<double>(i));
    if (i > 0) builder.add(i, i - 1, 2.0);
    builder.add(i, i, -3.0);
  }
  const CsrMatrix m = builder.build();
  EXPECT_EQ(m.nonzeros(), 3 * n - 2);
  EXPECT_DOUBLE_EQ(m.at(5000, 5001), 5001.0);
  std::vector<double> out;
  m.left_multiply(std::vector<double>(n, 1.0 / static_cast<double>(n)), out);
  EXPECT_EQ(out.size(), n);
}

}  // namespace
}  // namespace kibamrm::linalg
