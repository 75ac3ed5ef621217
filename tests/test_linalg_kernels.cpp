// Tests for the runtime-dispatched kernel layer: the fixed-block pairwise
// reduction contract (sharded partials compose bitwise for any block
// partition), scalar <-> AVX2 dispatch parity on every kernel, and the
// pool-sharded Arnoldi factorisation's bitwise independence of the thread
// count.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <random>
#include <string>
#include <vector>

#include "kibamrm/common/cpu_features.hpp"
#include "kibamrm/common/error.hpp"
#include "kibamrm/common/thread_pool.hpp"
#include "kibamrm/linalg/arnoldi.hpp"
#include "kibamrm/linalg/csr_matrix.hpp"
#include "kibamrm/linalg/fused_gather.hpp"
#include "kibamrm/linalg/kernels.hpp"

namespace kibamrm::linalg {
namespace {

namespace k = kernels;

std::vector<double> random_vector(std::size_t n, unsigned seed) {
  std::mt19937 rng(seed);
  std::uniform_real_distribution<double> uniform(-1.0, 1.0);
  std::vector<double> v(n);
  for (double& x : v) x = uniform(rng);
  return v;
}

/// Restores the process-global dispatch pin on scope exit -- these tests
/// mutate shared state other suites rely on.
class DispatchGuard {
 public:
  ~DispatchGuard() { k::clear_dispatch(); }
};

bool tier_runnable(k::Dispatch tier) {
  return static_cast<int>(k::detected_dispatch()) >= static_cast<int>(tier);
}

bool avx2_runnable() { return tier_runnable(k::Dispatch::kAvx2); }
bool avx512_runnable() { return tier_runnable(k::Dispatch::kAvx512); }

/// The double SIMD tiers the CPU can run, for cross-tier parity loops.
std::vector<k::Dispatch> runnable_simd_tiers() {
  std::vector<k::Dispatch> tiers;
  if (avx2_runnable()) tiers.push_back(k::Dispatch::kAvx2);
  if (avx512_runnable()) tiers.push_back(k::Dispatch::kAvx512);
  return tiers;
}

TEST(KernelDispatch, ParseAndNames) {
  EXPECT_EQ(k::parse_dispatch("auto"), std::nullopt);
  EXPECT_EQ(k::parse_dispatch("scalar"), k::Dispatch::kScalar);
  EXPECT_EQ(k::parse_dispatch("avx2"), k::Dispatch::kAvx2);
  EXPECT_EQ(k::parse_dispatch("avx512"), k::Dispatch::kAvx512);
  EXPECT_EQ(k::parse_dispatch("mixed"), k::Dispatch::kMixed);
  EXPECT_THROW(k::parse_dispatch("sse9"), InvalidArgument);
  EXPECT_EQ(k::dispatch_name(k::Dispatch::kScalar), "scalar");
  EXPECT_EQ(k::dispatch_name(k::Dispatch::kAvx2), "avx2");
  EXPECT_EQ(k::dispatch_name(k::Dispatch::kAvx512), "avx512");
  EXPECT_EQ(k::dispatch_name(k::Dispatch::kMixed), "mixed");
}

TEST(KernelDispatch, ScalarPinAlwaysAccepted) {
  DispatchGuard guard;
  k::set_dispatch(k::Dispatch::kScalar);
  EXPECT_EQ(k::active_dispatch(), k::Dispatch::kScalar);
  k::clear_dispatch();
  EXPECT_EQ(k::active_dispatch(), k::detected_dispatch());
}

TEST(KernelDispatch, MixedPinAlwaysAccepted) {
  // The mixed tier needs no ISA of its own: its dense kernels run the
  // detected double tier, and the float gather exists in a scalar flavour.
  DispatchGuard guard;
  k::set_dispatch(k::Dispatch::kMixed);
  EXPECT_EQ(k::active_dispatch(), k::Dispatch::kMixed);
  EXPECT_EQ(k::double_tier(k::active_dispatch()), k::detected_dispatch());
}

TEST(KernelDispatch, ApplyDispatchFallsBackGracefully) {
  // Satellite contract: requesting an unavailable SIMD tier through the
  // CLI/env path (apply_dispatch) must never throw -- it falls back to
  // the best supported tier with a stderr note, so a pinned bench
  // command line keeps working across heterogeneous machines.  On CPUs
  // that do support the tier it must pin exactly.
  DispatchGuard guard;
  for (const char* request : {"scalar", "avx2", "avx512", "mixed", "auto"}) {
    EXPECT_NO_THROW(k::apply_dispatch(request)) << request;
    if (std::string(request) == "auto") {
      EXPECT_EQ(k::active_dispatch(), k::detected_dispatch());
    } else if (const auto parsed = k::parse_dispatch(request);
               parsed == k::Dispatch::kMixed || tier_runnable(*parsed)) {
      EXPECT_EQ(k::active_dispatch(), *parsed) << request;
    } else {
      EXPECT_EQ(k::active_dispatch(), k::detected_dispatch()) << request;
    }
  }
  // The strict setter, by contrast, refuses unsupported tiers.
  if (!avx512_runnable()) {
    EXPECT_THROW(k::set_dispatch(k::Dispatch::kAvx512), InvalidArgument);
  }
}

TEST(KernelDot, MatchesReferenceWithinRounding) {
  // Odd length exercises the 16-lane body, the 4-lane cleanup and the
  // sequential tail at once.
  const std::size_t n = 10011;
  const auto a = random_vector(n, 1);
  const auto b = random_vector(n, 2);
  long double reference = 0.0L;
  for (std::size_t i = 0; i < n; ++i) {
    reference += static_cast<long double>(a[i]) * b[i];
  }
  EXPECT_NEAR(k::dot(a.data(), b.data(), n),
              static_cast<double>(reference), 1e-11);
  EXPECT_NEAR(k::nrm2(a.data(), n),
              std::sqrt(k::dot(a.data(), a.data(), n)), 0.0);
}

TEST(KernelDot, ShardedPartialsComposeBitwise) {
  // The heart of the determinism contract: any block partition, filled in
  // any order, reduces to the same bits as the single-call dot.
  const std::size_t n = 9973;  // prime: maximally awkward tail
  const auto a = random_vector(n, 3);
  const auto b = random_vector(n, 4);
  const double whole = k::dot(a.data(), b.data(), n);
  const std::size_t blocks = k::block_count(n);
  for (const std::size_t shards : {2u, 3u, 7u}) {
    std::vector<double> partials(blocks, 0.0);
    // Fill shard ranges back to front to prove order irrelevance.
    for (std::size_t s = shards; s-- > 0;) {
      const std::size_t begin = blocks * s / shards;
      const std::size_t end = blocks * (s + 1) / shards;
      k::dot_blocks(a.data(), b.data(), n, begin, end, partials.data());
    }
    EXPECT_EQ(k::reduce_pairwise(partials.data(), blocks), whole)
        << shards << " shards";
  }
}

TEST(KernelDot, ScalarSimdParityBitwise) {
  const auto tiers = runnable_simd_tiers();
  if (tiers.empty()) GTEST_SKIP() << "CPU lacks AVX2+FMA";
  DispatchGuard guard;
  for (const std::size_t n : {1u, 3u, 16u, 255u, 256u, 257u, 4096u, 10007u}) {
    const auto a = random_vector(n, 5);
    const auto b = random_vector(n, 6);
    k::set_dispatch(k::Dispatch::kScalar);
    const double scalar = k::dot(a.data(), b.data(), n);
    for (const k::Dispatch tier : tiers) {
      k::set_dispatch(tier);
      EXPECT_EQ(scalar, k::dot(a.data(), b.data(), n))
          << "n = " << n << " tier = " << k::dispatch_name(tier);
    }
  }
}

TEST(KernelAxpyScale, ScalarSimdParityBitwise) {
  const auto tiers = runnable_simd_tiers();
  if (tiers.empty()) GTEST_SKIP() << "CPU lacks AVX2+FMA";
  DispatchGuard guard;
  const std::size_t n = 1037;
  const auto x = random_vector(n, 7);
  auto y_scalar = random_vector(n, 8);
  const auto y_init = y_scalar;
  k::set_dispatch(k::Dispatch::kScalar);
  k::axpy(0.3125, x.data(), y_scalar.data(), n);
  k::scale(y_scalar.data(), -1.75, n);
  for (const k::Dispatch tier : tiers) {
    auto y_simd = y_init;
    k::set_dispatch(tier);
    k::axpy(0.3125, x.data(), y_simd.data(), n);
    k::scale(y_simd.data(), -1.75, n);
    EXPECT_EQ(y_scalar, y_simd) << k::dispatch_name(tier);
  }
}

// Banded matrix with mixed row lengths: long runs of equal-length rows
// broken by ragged rows.
CsrMatrix mixed_bands(std::size_t n) {
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
    if (i % 97 == 0) {  // occasional long row
      for (std::size_t e = 2; e < 8 && i + e < n; ++e) {
        builder.add(i, i + e, 0.01);
        off += 0.01;
      }
    }
    builder.add(i, i, 1.0 - off);
  }
  return builder.build();
}

TEST(KernelFusedGatherPlan, ScalarAvx2ParityBitwise) {
  if (!avx2_runnable()) GTEST_SKIP() << "CPU lacks AVX2+FMA";
  DispatchGuard guard;
  const std::size_t n = 2503;
  const CsrMatrix pt = mixed_bands(n).transposed();
  const auto plan = FusedGatherPlan::build(pt);
  ASSERT_TRUE(plan.has_value());
  ASSERT_EQ(plan->layout(), FusedGatherPlan::Layout::kRowOffset);
  const auto x = random_vector(n, 10);
  std::vector<double> out_s(n, 0.0), accum_s(n, 0.125);
  std::vector<double> out_v(n, 0.0), accum_v(n, 0.125);
  k::set_dispatch(k::Dispatch::kScalar);
  const double delta_s =
      plan->multiply_fused_range(x, out_s, accum_s, 0.25, 0, n);
  k::set_dispatch(k::Dispatch::kAvx2);
  const double delta_v =
      plan->multiply_fused_range(x, out_v, accum_v, 0.25, 0, n);
  EXPECT_EQ(out_s, out_v);
  EXPECT_EQ(accum_s, accum_v);
  EXPECT_EQ(delta_s, delta_v);
  // And the SIMD tier still matches the CSR reference kernel bitwise.
  std::vector<double> out_csr(n, 0.0), accum_csr(n, 0.125);
  const double delta_csr =
      pt.multiply_fused_range(x, out_csr, accum_csr, 0.25, 0, n);
  EXPECT_EQ(out_v, out_csr);
  EXPECT_EQ(accum_v, accum_csr);
  EXPECT_EQ(delta_v, delta_csr);
}

TEST(KernelFusedGatherPlan, ZeroWeightParityAndSkip) {
  if (!avx2_runnable()) GTEST_SKIP() << "CPU lacks AVX2+FMA";
  DispatchGuard guard;
  const std::size_t n = 1024;
  const CsrMatrix pt = mixed_bands(n).transposed();
  const auto plan = FusedGatherPlan::build(pt);
  ASSERT_TRUE(plan.has_value());
  const auto x = random_vector(n, 11);
  std::vector<double> out(n, 0.0), accum(n, 0.5);
  k::set_dispatch(k::Dispatch::kAvx2);
  plan->multiply_fused_range(x, out, accum, 0.0, 0, n);
  for (const double a : accum) EXPECT_EQ(a, 0.5);
}

// Pure banded matrix: after transposition every interior row has the
// same length and the same offset pattern, so the gather plan covers
// nearly all rows with uniform segments -- the structure the level-major
// state reordering produces on real expanded battery chains, and the
// input the across-row SIMD segment kernels vectorise.
CsrMatrix banded_uniform(std::size_t n) {
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
    builder.add(i, i, 1.0 - off);
  }
  return builder.build();
}

TEST(KernelUniformSegments, ScalarSimdParityBitwise) {
  // The uniform-segment kernels (8 rows per zmm / 4 per ymm, lane = row)
  // replay the scalar per-row association exactly, so every double tier
  // must produce the same bits -- including ranges that start and stop
  // mid-segment, which exercise the partition seams.
  const auto tiers = runnable_simd_tiers();
  if (tiers.empty()) GTEST_SKIP() << "CPU lacks AVX2+FMA";
  DispatchGuard guard;
  const std::size_t n = 4099;
  const CsrMatrix pt = banded_uniform(n).transposed();
  const auto plan = FusedGatherPlan::build(pt);
  ASSERT_TRUE(plan.has_value());
  ASSERT_EQ(plan->layout(), FusedGatherPlan::Layout::kRowOffset);
  EXPECT_GT(plan->uniform_fraction(), 0.9);
  const auto x = random_vector(n, 20);
  k::set_dispatch(k::Dispatch::kScalar);
  std::vector<double> out_s(n, 0.0), accum_s(n, 0.125);
  const double delta_s =
      plan->multiply_fused_range(x, out_s, accum_s, 0.25, 0, n);
  for (const k::Dispatch tier : tiers) {
    k::set_dispatch(tier);
    std::vector<double> out_v(n, 0.0), accum_v(n, 0.125);
    const double delta_v =
        plan->multiply_fused_range(x, out_v, accum_v, 0.25, 0, n);
    EXPECT_EQ(out_s, out_v) << k::dispatch_name(tier);
    EXPECT_EQ(accum_s, accum_v) << k::dispatch_name(tier);
    EXPECT_EQ(delta_s, delta_v) << k::dispatch_name(tier);
    // Shard seams inside a segment: the same rows in two disjoint calls.
    std::vector<double> out_r(n, 0.0), accum_r(n, 0.125);
    const double delta_hi =
        plan->multiply_fused_range(x, out_r, accum_r, 0.25, 1003, n);
    const double delta_lo =
        plan->multiply_fused_range(x, out_r, accum_r, 0.25, 0, 1003);
    EXPECT_EQ(out_s, out_r) << k::dispatch_name(tier);
    EXPECT_EQ(accum_s, accum_r) << k::dispatch_name(tier);
    EXPECT_EQ(delta_s, std::max(delta_lo, delta_hi))
        << k::dispatch_name(tier);
  }
}

TEST(KernelUniformSegments, MixedAccuracyAndPartitionDeterminism) {
  // The mixed tier streams float32 operands through the same canonical
  // association with double accumulation: every product is exact in
  // double, so the result is deterministic under any row partition, and
  // it tracks the all-double kernel to float operand rounding.
  DispatchGuard guard;
  const std::size_t n = 3001;
  const CsrMatrix pt = banded_uniform(n).transposed();
  const auto plan = FusedGatherPlan::build(pt);
  ASSERT_TRUE(plan.has_value());
  ASSERT_TRUE(plan->mixed_supported());
  std::vector<double> x(n);
  std::mt19937 rng(21);
  std::uniform_real_distribution<double> uniform(0.0, 1.0);
  for (double& v : x) v = uniform(rng);
  k::set_dispatch(k::Dispatch::kScalar);
  std::vector<double> out_d(n, 0.0), accum_d(n, 0.0);
  plan->multiply_fused_range(x, out_d, accum_d, 0.25, 0, n);

  k::set_dispatch(k::Dispatch::kMixed);
  const std::vector<float> x_f(x.begin(), x.end());
  std::vector<float> out_f(n, 0.0f);
  std::vector<double> accum_f(n, 0.0);
  const double delta_full =
      plan->multiply_fused_range_mixed(x_f, out_f, accum_f, 0.25, 0, n);
  for (std::size_t i = 0; i < n; ++i) {
    EXPECT_NEAR(static_cast<double>(out_f[i]), out_d[i], 1e-5) << i;
    EXPECT_NEAR(accum_f[i], accum_d[i], 1e-5) << i;
  }
  // Partition determinism: two disjoint ranges, filled high range first,
  // reproduce the single-call bits exactly.
  std::vector<float> out_r(n, 0.0f);
  std::vector<double> accum_r(n, 0.0);
  const double delta_hi =
      plan->multiply_fused_range_mixed(x_f, out_r, accum_r, 0.25, 977, n);
  const double delta_lo =
      plan->multiply_fused_range_mixed(x_f, out_r, accum_r, 0.25, 0, 977);
  EXPECT_EQ(out_f, out_r);
  EXPECT_EQ(accum_f, accum_r);
  EXPECT_EQ(delta_full, std::max(delta_lo, delta_hi));
}

// Arnoldi over a chain large enough to engage the pool-sharded sweeps
// (>= 16384 states): the factorisation must be bitwise identical across
// thread counts.
TEST(ArnoldiSharded, BitwiseIdenticalAcrossThreadCounts) {
  const std::size_t n = 20000;
  const std::size_t m = 8;
  const CsrMatrix a = mixed_bands(n);
  const ArnoldiMatvec matvec = [&](const std::vector<double>& in,
                                   std::vector<double>& out) {
    a.multiply_range(in, out, 0, n);
  };

  std::vector<std::vector<double>> reference_basis;
  DenseReal reference_h(1, 1);
  for (const std::size_t threads : {1u, 2u, 8u}) {
    common::ThreadPool pool(threads);
    ArnoldiWorkspace workspace;
    std::vector<std::vector<double>> basis(m + 1,
                                           std::vector<double>(n, 0.0));
    auto v0 = random_vector(n, 12);
    const double norm = k::nrm2(v0.data(), n);
    for (std::size_t i = 0; i < n; ++i) basis[0][i] = v0[i] / norm;
    DenseReal h(m + 1, m);
    const ArnoldiResult result =
        arnoldi(matvec, basis, h, m, 1e-14, &pool, &workspace);
    ASSERT_EQ(result.dim, m);
    if (reference_basis.empty()) {
      reference_basis = basis;
      reference_h = h;
      continue;
    }
    for (std::size_t j = 0; j <= m; ++j) {
      EXPECT_EQ(basis[j], reference_basis[j])
          << "basis vector " << j << " at " << threads << " threads";
    }
    for (std::size_t i = 0; i <= m; ++i) {
      for (std::size_t j = 0; j < m; ++j) {
        EXPECT_EQ(h(i, j), reference_h(i, j))
            << "h(" << i << "," << j << ") at " << threads << " threads";
      }
    }
  }
}

TEST(ArnoldiSharded, PoolMatchesInlineBitwise) {
  // The inline path (no pool) and the sharded path must agree bitwise
  // too -- one contract, not two.
  const std::size_t n = 18000;
  const std::size_t m = 6;
  const CsrMatrix a = mixed_bands(n);
  const ArnoldiMatvec matvec = [&](const std::vector<double>& in,
                                   std::vector<double>& out) {
    a.multiply_range(in, out, 0, n);
  };
  std::vector<std::vector<double>> basis_inline(m + 1,
                                                std::vector<double>(n, 0.0));
  basis_inline[0][0] = 1.0;
  DenseReal h_inline(m + 1, m);
  arnoldi(matvec, basis_inline, h_inline, m, 1e-14);

  common::ThreadPool pool(4);
  std::vector<std::vector<double>> basis_pool(m + 1,
                                              std::vector<double>(n, 0.0));
  basis_pool[0][0] = 1.0;
  DenseReal h_pool(m + 1, m);
  arnoldi(matvec, basis_pool, h_pool, m, 1e-14, &pool);

  for (std::size_t j = 0; j <= m; ++j) {
    EXPECT_EQ(basis_pool[j], basis_inline[j]) << "basis vector " << j;
  }
  for (std::size_t i = 0; i <= m; ++i) {
    for (std::size_t j = 0; j < m; ++j) {
      EXPECT_EQ(h_pool(i, j), h_inline(i, j));
    }
  }
}

}  // namespace
}  // namespace kibamrm::linalg
