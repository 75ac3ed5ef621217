// Tests for linalg/vector_ops kernels.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <random>
#include <vector>

#include "kibamrm/common/error.hpp"
#include "kibamrm/linalg/vector_ops.hpp"

namespace kibamrm::linalg {
namespace {

TEST(VectorOps, SumIsAccurateOnManyTinyTerms) {
  // The correctly rounded sum keeps 1e7 additions of 1e-7 at ~1.0.
  std::vector<double> v(10000000, 1e-7);
  EXPECT_NEAR(sum(v), 1.0, 1e-12);
}

TEST(VectorOps, SumIsExactWhereCompensationFails) {
  // Kahan loses the small terms beside the cancelling giants; the exact
  // partials keep them.
  EXPECT_EQ(sum({1.0, 1e100, 1.0, -1e100}), 2.0);
  EXPECT_EQ(sum(std::vector<double>(10, 0.1)), 1.0);
  EXPECT_EQ(sum({1e-16, 1.0, 1e16}), 10000000000000002.0);  // half-even
  EXPECT_EQ(sum({1.0, -1.0}), 0.0);
}

TEST(VectorOps, SumIsBitwiseIndependentOfOrder) {
  // A probability-like vector over many magnitudes: every shuffle sums to
  // the same bits.
  std::mt19937 rng(11);
  std::uniform_real_distribution<double> mantissa(0.0, 1.0);
  std::uniform_int_distribution<int> exponent(-40, 0);
  std::vector<double> v(5000);
  for (double& x : v) x = std::ldexp(mantissa(rng), exponent(rng));
  const double reference = sum(v);
  for (int round = 0; round < 20; ++round) {
    std::shuffle(v.begin(), v.end(), rng);
    EXPECT_EQ(sum(v), reference) << "shuffle " << round;
  }
}

TEST(VectorOps, SumPropagatesNonFiniteValues) {
  const double inf = std::numeric_limits<double>::infinity();
  EXPECT_EQ(sum({1.0, inf}), inf);
  EXPECT_TRUE(std::isnan(sum({inf, -inf})));
  EXPECT_TRUE(std::isnan(sum({1.0, std::nan("")})));
}

TEST(VectorOps, SumOfEmptyVectorIsZero) {
  EXPECT_DOUBLE_EQ(sum({}), 0.0);
}

TEST(VectorOps, DotProduct) {
  EXPECT_DOUBLE_EQ(dot({1.0, 2.0, 3.0}, {4.0, 5.0, 6.0}), 32.0);
}

TEST(VectorOps, DotRejectsSizeMismatch) {
  const std::vector<double> a = {1.0};
  const std::vector<double> b = {1.0, 2.0};
  EXPECT_THROW(dot(a, b), InvalidArgument);
}

TEST(VectorOps, AxpyAccumulates) {
  std::vector<double> y = {1.0, 1.0};
  axpy(2.0, {3.0, 4.0}, y);
  EXPECT_DOUBLE_EQ(y[0], 7.0);
  EXPECT_DOUBLE_EQ(y[1], 9.0);
}

TEST(VectorOps, ScaleAndFill) {
  std::vector<double> v = {1.0, -2.0};
  scale(v, -3.0);
  EXPECT_DOUBLE_EQ(v[0], -3.0);
  EXPECT_DOUBLE_EQ(v[1], 6.0);
  fill(v, 0.5);
  EXPECT_DOUBLE_EQ(v[0], 0.5);
  EXPECT_DOUBLE_EQ(v[1], 0.5);
}

TEST(VectorOps, Norms) {
  const std::vector<double> v = {3.0, -4.0, 1.0};
  EXPECT_DOUBLE_EQ(linf_norm(v), 4.0);
  EXPECT_DOUBLE_EQ(l1_norm(v), 8.0);
  EXPECT_DOUBLE_EQ(linf_distance({1.0, 2.0}, {1.5, 1.0}), 1.0);
}

TEST(VectorOps, NormalizeProbability) {
  std::vector<double> v = {1.0, 3.0};
  normalize_probability(v);
  EXPECT_DOUBLE_EQ(v[0], 0.25);
  EXPECT_DOUBLE_EQ(v[1], 0.75);
}

TEST(VectorOps, NormalizeRejectsZeroVector) {
  std::vector<double> v = {0.0, 0.0};
  EXPECT_THROW(normalize_probability(v), NumericalError);
}

TEST(VectorOps, IsProbabilityVector) {
  EXPECT_TRUE(is_probability_vector({0.25, 0.75}));
  EXPECT_TRUE(is_probability_vector({1.0, 0.0, 0.0}));
  EXPECT_FALSE(is_probability_vector({0.5, 0.6}));
  EXPECT_FALSE(is_probability_vector({1.5, -0.5}));
}

}  // namespace
}  // namespace kibamrm::linalg
