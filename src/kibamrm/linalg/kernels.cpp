#include "kibamrm/linalg/kernels.hpp"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <vector>

#include "kibamrm/common/cpu_features.hpp"
#include "kibamrm/common/error.hpp"
#include "kibamrm/common/thread_annotations.hpp"
#include "kibamrm/linalg/kernels_internal.hpp"

namespace kibamrm::linalg::kernels {

namespace {

// Pinned tier, or kNoPin.  Reads are on every kernel call, so relaxed
// atomics; the pin itself is a rare configuration event.
// KIBAMRM_LOCK_FREE: each flag is an independent word -- no invariant
// couples them, every load observes some pin that was fully set, and
// set_dispatch() documents that a pin takes effect "on the next kernel
// call", which is exactly the guarantee a relaxed store provides.
constexpr int kNoPin = -1;
std::atomic<int> g_pin{kNoPin} KIBAMRM_LOCK_FREE(
    "independent word; relaxed pin visible on the next kernel call");

void apply_environment_pin_once() {
  static const bool applied = [] {
    const char* value = std::getenv("KIBAMRM_KERNELS");
    if (value == nullptr) return true;
    try {
      if (const auto parsed = parse_dispatch(value)) set_dispatch(*parsed);
    } catch (const Error& error) {
      // Startup configuration must not abort the process; fall back to
      // CPUID and say so once.
      std::fprintf(stderr, "kibamrm: ignoring KIBAMRM_KERNELS=%s (%s)\n",
                   value, error.what());
    }
    return true;
  }();
  (void)applied;
}

// One scalar reduction block in the canonical sixteen-lane order (see the
// contract in kernels.hpp).  The AVX2 tier holds the same sixteen lanes in
// four ymm registers, so the two tiers agree bit for bit.
double scalar_dot_block(const double* a, const double* b, std::size_t begin,
                        std::size_t end) {
  double l[16] = {};
  std::size_t i = begin;
  for (; i + 16 <= end; i += 16) {
    for (std::size_t j = 0; j < 16; ++j) l[j] += a[i + j] * b[i + j];
  }
  // Partial group of four feeds the first register's lanes, exactly as
  // the AVX2 four-wide cleanup loop does.
  for (; i + 4 <= end; i += 4) {
    for (std::size_t j = 0; j < 4; ++j) l[j] += a[i + j] * b[i + j];
  }
  double tail = 0.0;
  for (; i < end; ++i) tail += a[i] * b[i];
  // Fold registers pairwise ((A0+A2)+(A1+A3)), then lanes ((c0+c2)+(c1+c3)).
  double c[4];
  for (std::size_t r = 0; r < 4; ++r) {
    c[r] = (l[r] + l[8 + r]) + (l[4 + r] + l[12 + r]);
  }
  return ((c[0] + c[2]) + (c[1] + c[3])) + tail;
}

void scalar_dot_blocks(const double* a, const double* b, std::size_t n,
                       std::size_t block_begin, std::size_t block_end,
                       double* partials) {
  for (std::size_t block = block_begin; block < block_end; ++block) {
    const std::size_t begin = block * kBlockDoubles;
    const std::size_t end = std::min(n, begin + kBlockDoubles);
    partials[block] = scalar_dot_block(a, b, begin, end);
  }
}

void scalar_axpy(double alpha, const double* x, double* y, std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) y[i] += alpha * x[i];
}

void scalar_scale(double* v, double alpha, std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) v[i] *= alpha;
}

// Per-thread partials scratch: dot()/nrm2() are called tens of thousands
// of times per solve, a heap allocation per call would dominate small
// vectors.
std::vector<double>& partials_scratch(std::size_t blocks) {
  thread_local std::vector<double> scratch;
  if (scratch.size() < blocks) scratch.resize(blocks);
  return scratch;
}

}  // namespace

Dispatch detected_dispatch() {
  if (KIBAMRM_HAVE_AVX512_TIER && common::cpu_has_avx512()) {
    return Dispatch::kAvx512;
  }
  return common::cpu_has_avx2_fma() && KIBAMRM_HAVE_AVX2_TIER
             ? Dispatch::kAvx2
             : Dispatch::kScalar;
}

Dispatch active_dispatch() {
  apply_environment_pin_once();
  const int pin = g_pin.load(std::memory_order_relaxed);
  return pin == kNoPin ? detected_dispatch() : static_cast<Dispatch>(pin);
}

Dispatch double_tier(Dispatch dispatch) {
  return dispatch == Dispatch::kMixed ? detected_dispatch() : dispatch;
}

void set_dispatch(Dispatch dispatch) {
  if (dispatch == Dispatch::kAvx2 || dispatch == Dispatch::kAvx512) {
    KIBAMRM_REQUIRE(
        static_cast<int>(detected_dispatch()) >= static_cast<int>(dispatch),
        "cannot pin " + std::string(dispatch_name(dispatch)) +
            " kernels: CPU lacks the required ISA extensions");
  }
  g_pin.store(static_cast<int>(dispatch), std::memory_order_relaxed);
}

void clear_dispatch() { g_pin.store(kNoPin, std::memory_order_relaxed); }

std::string_view dispatch_name(Dispatch dispatch) {
  switch (dispatch) {
    case Dispatch::kAvx2:
      return "avx2";
    case Dispatch::kAvx512:
      return "avx512";
    case Dispatch::kMixed:
      return "mixed";
    default:
      return "scalar";
  }
}

std::optional<Dispatch> parse_dispatch(std::string_view name) {
  if (name == "auto") return std::nullopt;
  if (name == "scalar") return Dispatch::kScalar;
  if (name == "avx2") return Dispatch::kAvx2;
  if (name == "avx512") return Dispatch::kAvx512;
  if (name == "mixed") return Dispatch::kMixed;
  throw InvalidArgument("unknown kernel dispatch '" + std::string(name) +
                        "'; choices: auto scalar avx2 avx512 mixed");
}

void apply_dispatch(std::string_view name) {
  const auto parsed = parse_dispatch(name);
  if (!parsed) {
    clear_dispatch();  // "auto": drop any earlier pin, back to CPUID
    return;
  }
  const Dispatch requested = *parsed;
  if ((requested == Dispatch::kAvx2 || requested == Dispatch::kAvx512) &&
      static_cast<int>(detected_dispatch()) < static_cast<int>(requested)) {
    // CLI flags and env pins travel in scripts shared across machines; a
    // request this CPU cannot honour degrades to the best tier it can
    // (results of the double tiers are bitwise identical anyway).
    const Dispatch fallback = detected_dispatch();
    std::fprintf(stderr,
                 "kibamrm: %s kernels unavailable on this CPU; using %s\n",
                 std::string(dispatch_name(requested)).c_str(),
                 std::string(dispatch_name(fallback)).c_str());
    set_dispatch(fallback);
    return;
  }
  set_dispatch(requested);
}

std::size_t block_count(std::size_t n) {
  return (n + kBlockDoubles - 1) / kBlockDoubles;
}

void dot_blocks(const double* a, const double* b, std::size_t n,
                std::size_t block_begin, std::size_t block_end,
                double* partials) {
  const Dispatch tier = double_tier(active_dispatch());
  (void)tier;
#if KIBAMRM_HAVE_AVX512_TIER
  if (tier == Dispatch::kAvx512) {
    detail::avx512_dot_blocks(a, b, n, block_begin, block_end, partials);
    return;
  }
#endif
#if KIBAMRM_HAVE_AVX2_TIER
  if (tier == Dispatch::kAvx2) {
    detail::avx2_dot_blocks(a, b, n, block_begin, block_end, partials);
    return;
  }
#endif
  scalar_dot_blocks(a, b, n, block_begin, block_end, partials);
}

double reduce_pairwise(const double* partials, std::size_t count) {
  if (count == 0) return 0.0;
  if (count == 1) return partials[0];
  if (count == 2) return partials[0] + partials[1];
  const std::size_t half = count / 2;
  return reduce_pairwise(partials, half) +
         reduce_pairwise(partials + half, count - half);
}

double dot(const double* a, const double* b, std::size_t n) {
  const std::size_t blocks = block_count(n);
  std::vector<double>& partials = partials_scratch(blocks);
  dot_blocks(a, b, n, 0, blocks, partials.data());
  return reduce_pairwise(partials.data(), blocks);
}

double nrm2(const double* v, std::size_t n) {
  return std::sqrt(dot(v, v, n));
}

void axpy(double alpha, const double* x, double* y, std::size_t n) {
  const Dispatch tier = double_tier(active_dispatch());
  (void)tier;
#if KIBAMRM_HAVE_AVX512_TIER
  if (tier == Dispatch::kAvx512) {
    detail::avx512_axpy(alpha, x, y, n);
    return;
  }
#endif
#if KIBAMRM_HAVE_AVX2_TIER
  if (tier == Dispatch::kAvx2) {
    detail::avx2_axpy(alpha, x, y, n);
    return;
  }
#endif
  scalar_axpy(alpha, x, y, n);
}

void scale(double* v, double alpha, std::size_t n) {
  const Dispatch tier = double_tier(active_dispatch());
  (void)tier;
#if KIBAMRM_HAVE_AVX512_TIER
  if (tier == Dispatch::kAvx512) {
    detail::avx512_scale(v, alpha, n);
    return;
  }
#endif
#if KIBAMRM_HAVE_AVX2_TIER
  if (tier == Dispatch::kAvx2) {
    detail::avx2_scale(v, alpha, n);
    return;
  }
#endif
  scalar_scale(v, alpha, n);
}

}  // namespace kibamrm::linalg::kernels
