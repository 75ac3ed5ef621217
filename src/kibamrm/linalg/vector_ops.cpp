#include "kibamrm/linalg/vector_ops.hpp"

#include <algorithm>
#include <cmath>

#include "kibamrm/common/error.hpp"
#include "kibamrm/linalg/kernels.hpp"

namespace kibamrm::linalg {

double sum(const std::vector<double>& v) {
  // Shewchuk's exact partials (the algorithm behind Python's math.fsum):
  // the running sum is kept as non-overlapping doubles whose exact total
  // is the exact sum of the inputs so far, and the final fold rounds that
  // total once.  The result is the correctly rounded sum, so it does not
  // depend on the element order -- a renumbered state vector normalises
  // to the same bits.  Non-finite inputs (and an intermediate overflow)
  // propagate through a plain side sum.
  std::vector<double> partials;
  double special = 0.0;
  for (double x : v) {
    if (!std::isfinite(x)) {
      special += x;
      continue;
    }
    std::size_t kept = 0;
    for (double y : partials) {
      if (std::abs(x) < std::abs(y)) std::swap(x, y);
      const double hi = x + y;
      const double lo = y - (hi - x);
      if (lo != 0.0) partials[kept++] = lo;
      x = hi;
    }
    partials.resize(kept);
    if (!std::isfinite(x)) {
      special += x;
    } else if (x != 0.0) {
      partials.push_back(x);
    }
  }
  if (special != 0.0) return special;  // also taken by NaN
  if (partials.empty()) return 0.0;

  // Fold from the largest partial down; stop at the first inexact add.
  std::size_t n = partials.size() - 1;
  double hi = partials[n];
  double lo = 0.0;
  while (n > 0) {
    const double x = hi;
    const double y = partials[--n];
    hi = x + y;
    lo = y - (hi - x);
    if (lo != 0.0) break;
  }
  // Round-half-even correction: when the remainder lo is exactly half an
  // ulp and the partials below it push the same way, round away.
  if (n > 0 && ((lo < 0.0 && partials[n - 1] < 0.0) ||
                (lo > 0.0 && partials[n - 1] > 0.0))) {
    const double y = lo * 2.0;
    const double x = hi + y;
    if (y == x - hi) hi = x;
  }
  return hi;
}

double dot(const std::vector<double>& a, const std::vector<double>& b) {
  KIBAMRM_REQUIRE(a.size() == b.size(), "dot: size mismatch");
  // Dispatched fixed-block pairwise kernel: SIMD when available, and a
  // result that no longer depends on which tier ran (see kernels.hpp).
  return kernels::dot(a.data(), b.data(), a.size());
}

void axpy(double alpha, const std::vector<double>& x, std::vector<double>& y) {
  KIBAMRM_REQUIRE(x.size() == y.size(), "axpy: size mismatch");
  kernels::axpy(alpha, x.data(), y.data(), x.size());
}

void scale(std::vector<double>& v, double alpha) {
  kernels::scale(v.data(), alpha, v.size());
}

void fill(std::vector<double>& v, double value) {
  std::fill(v.begin(), v.end(), value);
}

double linf_distance(const std::vector<double>& a,
                     const std::vector<double>& b) {
  KIBAMRM_REQUIRE(a.size() == b.size(), "linf_distance: size mismatch");
  double worst = 0.0;
  for (std::size_t i = 0; i < a.size(); ++i) {
    worst = std::max(worst, std::abs(a[i] - b[i]));
  }
  return worst;
}

double linf_norm(const std::vector<double>& v) {
  double worst = 0.0;
  for (double x : v) worst = std::max(worst, std::abs(x));
  return worst;
}

double l1_norm(const std::vector<double>& v) {
  double total = 0.0;
  for (double x : v) total += std::abs(x);
  return total;
}

void normalize_probability(std::vector<double>& v) {
  const double total = sum(v);
  if (!(total > 0.0)) {
    throw NumericalError("normalize_probability: vector sum is not positive");
  }
  scale(v, 1.0 / total);
}

bool is_probability_vector(const std::vector<double>& v, double eps) {
  for (double x : v) {
    if (x < -eps || x > 1.0 + eps) return false;
  }
  return std::abs(sum(v) - 1.0) <= eps;
}

}  // namespace kibamrm::linalg
