// Benchmark binary: runs one named workload through the library's public
// front doors (core::MarkovianApproximation, engine::ScenarioBatch) and
// prints one JSON document with what it measured.  run.py builds this
// binary, checks the curves against the committed references and prints
// the benchmark's result line; README.md explains the workloads and the
// metrics.
//
//   kibamrm_perfbench run --workload W --seed N --seconds S --trace 0|1
//                         [--solve-reference 0|1] [--trace-out FILE]
//   kibamrm_perfbench reference --workload W --seed N
//   kibamrm_perfbench simulate
//
// Per-layer numbers come from spans the benchmark records around the
// public calls of each layer; nothing inside the library is instrumented.
#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <exception>
#include <fstream>
#include <functional>
#include <iostream>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "kibamrm/common/resource.hpp"
#include "kibamrm/common/thread_pool.hpp"
#include "kibamrm/common/units.hpp"
#include "kibamrm/core/approx_solver.hpp"
#include "kibamrm/core/simulator.hpp"
#include "kibamrm/engine/plan_cache.hpp"
#include "kibamrm/engine/scenario_batch.hpp"
#include "kibamrm/linalg/kernels.hpp"
#include "kibamrm/markov/fox_glynn.hpp"
#include "kibamrm/workload/burst_model.hpp"
#include "kibamrm/workload/onoff_model.hpp"
#include "kibamrm/workload/simple_model.hpp"

#ifndef PERFBENCH_COMPILER
#define PERFBENCH_COMPILER "unknown"
#endif
#ifndef PERFBENCH_FLAGS
#define PERFBENCH_FLAGS "unknown"
#endif
#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace {

using namespace kibamrm;
using Clock = std::chrono::steady_clock;

// Set-up takes from tens of microseconds (the sweep's pool) to tens of
// milliseconds (the Delta = 10 chain), so one sample is noise: set-up is
// repeated at least kSetupRepeats times and until kSetupBudgetS has been
// spent (at most kSetupMaxRepeats), and the median is reported.
constexpr std::size_t kSetupRepeats = 11;
constexpr std::size_t kSetupMaxRepeats = 401;
constexpr double kSetupBudgetS = 0.5;

bool more_setup(const std::vector<double>& samples) {
  double spent = 0.0;
  for (double s : samples) spent += s;
  return samples.size() < kSetupRepeats ||
         (spent < kSetupBudgetS && samples.size() < kSetupMaxRepeats);
}
constexpr std::size_t kSweepScenarios = 48;
constexpr double kEpsilon = 1e-10;

double seconds_between(Clock::time_point from, Clock::time_point to) {
  return std::chrono::duration<double>(to - from).count();
}

double cpu_seconds() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  const auto tv = [](const timeval& t) {
    return static_cast<double>(t.tv_sec) + 1e-6 * static_cast<double>(t.tv_usec);
  };
  return tv(usage.ru_utime) + tv(usage.ru_stime);
}

double peak_rss_mb() {
  return static_cast<double>(common::peak_rss_bytes()) / (1024.0 * 1024.0);
}

double quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  return values[lo] + (pos - static_cast<double>(lo)) * (values[hi] - values[lo]);
}

double median(const std::vector<double>& values) { return quantile(values, 0.5); }

double mean(const std::vector<double>& values) {
  double sum = 0.0;
  for (double v : values) sum += v;
  return values.empty() ? 0.0 : sum / static_cast<double>(values.size());
}

std::size_t benchmark_lanes() {
  return std::min<std::size_t>(4, common::ThreadPool::hardware_thread_count());
}

// ------------------------------------------------------------------ JSON

class JsonWriter {
 public:
  explicit JsonWriter(std::ostream& out) : out_(out) {}

  JsonWriter& begin_object() { return open('{'); }
  JsonWriter& end_object() { return close('}'); }
  JsonWriter& begin_array() { return open('['); }
  JsonWriter& end_array() { return close(']'); }

  JsonWriter& key(std::string_view name) {
    separate();
    write_string(name);
    out_ << ':';
    after_key_ = true;
    return *this;
  }

  JsonWriter& value(double number) {
    separate();
    if (std::isfinite(number)) {
      char buffer[32];
      std::snprintf(buffer, sizeof buffer, "%.17g", number);
      out_ << buffer;
    } else {
      out_ << "null";
    }
    return *this;
  }
  JsonWriter& value(std::uint64_t number) {
    separate();
    out_ << number;
    return *this;
  }
  JsonWriter& value(bool flag) {
    separate();
    out_ << (flag ? "true" : "false");
    return *this;
  }
  JsonWriter& value(std::string_view text) {
    separate();
    write_string(text);
    return *this;
  }
  JsonWriter& value(const char* text) { return value(std::string_view(text)); }

  JsonWriter& values(const std::vector<double>& numbers) {
    begin_array();
    for (double number : numbers) value(number);
    return end_array();
  }

  template <typename T>
  JsonWriter& field(std::string_view name, const T& v) {
    key(name);
    return value(v);
  }

 private:
  JsonWriter& open(char bracket) {
    separate();
    out_ << bracket;
    first_.push_back(true);
    return *this;
  }
  JsonWriter& close(char bracket) {
    out_ << bracket;
    first_.pop_back();
    return *this;
  }
  void separate() {
    if (after_key_) {
      after_key_ = false;
      return;
    }
    if (!first_.empty()) {
      if (!first_.back()) out_ << ',';
      first_.back() = false;
    }
  }
  void write_string(std::string_view text) {
    out_ << '"';
    for (char c : text) {
      if (c == '"' || c == '\\') {
        out_ << '\\' << c;
      } else if (static_cast<unsigned char>(c) < 0x20) {
        char buffer[8];
        std::snprintf(buffer, sizeof buffer, "\\u%04x", c);
        out_ << buffer;
      } else {
        out_ << c;
      }
    }
    out_ << '"';
  }

  std::ostream& out_;
  std::vector<bool> first_;
  bool after_key_ = false;
};

// ------------------------------------------------------------- scenarios

// splitmix64: a fixed, portable generator, so one seed gives the same
// scenarios with every standard library.
class SeededDraw {
 public:
  explicit SeededDraw(std::uint64_t seed) : state_(seed) {}
  std::uint64_t next() {
    std::uint64_t z = (state_ += 0x9E3779B97F4A7C15ull);
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
    return z ^ (z >> 31);
  }
  double uniform(double lo, double hi) {
    const double unit = static_cast<double>(next() >> 11) * 0x1.0p-53;
    return lo + (hi - lo) * unit;
  }
  std::size_t index(std::size_t count) {
    return static_cast<std::size_t>(next() % count);
  }

 private:
  std::uint64_t state_;
};

std::uint64_t fnv1a(std::uint64_t hash, const void* data, std::size_t bytes) {
  const auto* p = static_cast<const unsigned char*>(data);
  for (std::size_t i = 0; i < bytes; ++i) {
    hash ^= p[i];
    hash *= 0x100000001B3ull;
  }
  return hash;
}

// A sweep scenario plus the parameters that identify it; the fingerprint
// ties a committed reference curve to the exact inputs it was made from.
struct BenchScenario {
  engine::Scenario scenario;
  std::vector<double> parameters;
  std::uint64_t fingerprint = 0;
  std::uint64_t chain_key = 0;  // equal for scenarios with the same Q*
};

BenchScenario make_scenario(std::string label, core::KibamRmModel model,
                            double delta, std::vector<double> times,
                            std::vector<double> parameters) {
  std::uint64_t chain = 0xCBF29CE484222325ull;
  chain = fnv1a(chain, parameters.data(), parameters.size() * sizeof(double));
  chain = fnv1a(chain, &delta, sizeof delta);
  const std::uint64_t hash =
      fnv1a(chain, times.data(), times.size() * sizeof(double));
  return {{std::move(label), std::move(model), delta, std::move(times)},
          std::move(parameters),
          hash,
          chain};
}

core::KibamRmModel fig8_model() {
  return core::KibamRmModel(
      workload::make_onoff_model(
          {.frequency = 1.0, .erlang_k = 1, .on_current = 0.96}),
      {.capacity = 7200.0, .available_fraction = 0.625,
       .flow_constant = 4.5e-5});
}

std::vector<double> fig8_times() {
  return core::uniform_grid(6000.0, 20000.0, 57);
}

std::string format(const char* pattern, double a, double b = 0.0,
                   double c = 0.0, double d = 0.0) {
  char buffer[128];
  std::snprintf(buffer, sizeof buffer, pattern, a, b, c, d);
  return buffer;
}

// The sweep's scenario draw: 48 scenarios in a fixed composition, so
// that every seed asks for about the same amount of work (the benchmark's
// run-to-run spread is taken across seeds):
//  - scenario 0 is fixed: the fig8 model at Delta = 50 on the fig8 grid,
//    so every seed carries one curve with a simulator reference;
//  - 28 on/off KiBaM chains, 7 in each (Erlang-k, Delta) stratum of
//    {1, 2} x {100, 50}.  Frequency (0.2-1 Hz), on-current (0.6-1.2 A)
//    and capacity (3200-7200 As) are drawn by Latin hypercube, one value
//    per slice, and paired so that large capacities meet low frequencies
//    and high currents: a chain's cost grows like C^3 f / I, and the
//    pairing keeps it level across the stratum and across seeds;
//  - the fig10/fig11 simple and burst models (800 mAh) at Delta 10 and
//    5, each on two time grids;
//  - 11 repeats (about one in four): an earlier on/off chain on a new time
//    grid, which is what the batch's plan cache can serve.
// Strata are submitted costliest first, as a batch scheduler would order
// them; the seed shuffles the order inside each stratum and places each
// repeat somewhere after the chain it repeats.
std::vector<BenchScenario> make_sweep(std::uint64_t seed) {
  SeededDraw draw(seed);
  const auto shuffle = [&](auto first, auto last) {
    for (auto n = last - first; n > 1; --n) {
      std::swap(first[n - 1],
                first[static_cast<std::ptrdiff_t>(
                    draw.index(static_cast<std::size_t>(n)))]);
    }
  };
  // Latin hypercube: value j lies in the j-th of n equal slices of [lo, hi].
  const auto sliced = [&](std::size_t n, double lo, double hi) {
    std::vector<double> values;
    for (std::size_t j = 0; j < n; ++j) {
      values.push_back(lo + (hi - lo) *
                                (static_cast<double>(j) + draw.uniform(0.0, 1.0)) /
                                static_cast<double>(n));
    }
    return values;
  };

  std::vector<BenchScenario> sweep;
  sweep.push_back(make_scenario("anchor fig8 D=50", fig8_model(), 50.0,
                                fig8_times(), {0, 1.0, 1, 0.96, 7200.0}));
  constexpr std::size_t kPerStratum = 7;
  const battery::KibamParameters mah800{
      800.0, 0.625, units::per_second_to_per_hour(4.5e-5)};
  // Each model twice, on two time grids (hours), so no two scenarios ask
  // for the same curve.
  const auto add_mah800 = [&](double delta) {
    for (const double end : {30.0, 24.0}) {
      for (const bool burst : {true, false}) {
        const auto points = static_cast<std::size_t>(2.0 * end);
        sweep.push_back(make_scenario(
            std::string(burst ? "burst" : "simple") +
                format(" C=800mAh D=%.0f grid [0.5,%.0f]x%.0f", delta, end,
                       static_cast<double>(points)),
            core::KibamRmModel(burst ? workload::make_burst_model()
                                     : workload::make_simple_model(),
                               mah800),
            delta, core::uniform_grid(0.5, end, points),
            {burst ? 2.0 : 1.0, 0, 0, 0, 800.0}));
      }
    }
  };
  // Where each stratum's drawn chains sit; only these are repeated.
  std::vector<std::vector<std::size_t>> originals;
  const auto add_onoff = [&](int erlang_k, double delta) {
    const std::vector<double> frequency = sliced(kPerStratum, 0.2, 1.0);
    const std::vector<double> current = sliced(kPerStratum, 0.6, 1.2);
    const std::vector<double> raw_capacity = sliced(kPerStratum, 3200.0, 7200.0);
    originals.emplace_back();
    for (std::size_t j = 0; j < kPerStratum; ++j) {
      originals.back().push_back(sweep.size());
      const double f = frequency[kPerStratum - 1 - j];
      const double on_current = current[j];
      // The level grid needs c*C and (1-c)*C to be whole multiples of
      // Delta; with c = 5/8 that puts C on a lattice of 8 * Delta.
      const double capacity =
          8.0 * delta * std::round(raw_capacity[j] / (8.0 * delta));
      // Grid around the mean lifetime C / (I / 2), spanning the same
      // relative range as the fig8 grid does around its median.
      const double mean_life = capacity / (0.5 * on_current);
      sweep.push_back(make_scenario(
          format("onoff K=%.0f f=%.3f I=%.3f C=%.0f", erlang_k, f, on_current,
                 capacity) +
              format(" D=%.0f", delta),
          core::KibamRmModel(
              workload::make_onoff_model({.frequency = f,
                                          .erlang_k = erlang_k,
                                          .on_current = on_current}),
              {.capacity = capacity, .available_fraction = 0.625,
               .flow_constant = 4.5e-5}),
          delta, core::uniform_grid(0.4 * mean_life, 1.33 * mean_life, 57),
          {0, f, static_cast<double>(erlang_k), on_current, capacity}));
    }
    shuffle(sweep.end() - kPerStratum, sweep.end());
  };
  add_onoff(2, 50.0);
  add_mah800(5.0);
  add_onoff(1, 50.0);
  add_onoff(2, 100.0);
  add_mah800(10.0);
  add_onoff(1, 100.0);

  for (std::size_t r = 0; sweep.size() < kSweepScenarios; ++r) {
    const std::size_t base_index =
        originals[r % originals.size()][draw.index(kPerStratum)];
    const BenchScenario base = sweep[base_index];
    const double start = base.scenario.times.front() * draw.uniform(0.8, 1.2);
    const double end = base.scenario.times.back() * draw.uniform(0.85, 1.05);
    const std::size_t points = 20 + draw.index(41);
    const std::size_t at =
        base_index + 1 + draw.index(sweep.size() - base_index);
    sweep.insert(
        sweep.begin() + static_cast<std::ptrdiff_t>(at),
        make_scenario(base.scenario.label +
                          format(" regrid [%.0f,%.0f]x%.0f", start, end,
                                 static_cast<double>(points)),
                      base.scenario.model, base.scenario.delta,
                      core::uniform_grid(start, end, points), base.parameters));
    // Scenarios at or after the insertion moved one place down.
    for (std::vector<std::size_t>& stratum : originals) {
      for (std::size_t& index : stratum) {
        if (index >= at) ++index;
      }
    }
  }
  return sweep;
}

// ------------------------------------------------------------ workloads

struct Fig8Config {
  double delta;
  std::string engine;
  std::size_t threads;
};

std::optional<Fig8Config> fig8_config(std::string_view workload) {
  if (workload == "fig8_d25") return Fig8Config{25.0, "uniformization", 1};
  if (workload == "fig8_d10_mt") {
    return Fig8Config{10.0, "parallel", benchmark_lanes()};
  }
  return std::nullopt;
}

core::ApproximationOptions approximation_options(const Fig8Config& config) {
  return {.delta = config.delta, .epsilon = kEpsilon, .engine = config.engine,
          .threads = config.threads};
}

// The options MarkovianApproximation hands make_backend, rebuilt from the
// public ApproximationOptions so the traced pipeline solves identically.
engine::BackendOptions backend_options(const core::ApproximationOptions& o) {
  return {.epsilon = o.epsilon,
          .dense_state_limit = o.dense_state_limit,
          .threads = o.threads,
          .collect_distributions = false,
          .fused_kernels = o.fused_kernels,
          .steady_state_detection = o.steady_state_detection,
          .tile_bytes = o.tile_bytes,
          .spill_dir = o.spill_dir,
          .kernel_dispatch = o.kernel_dispatch,
          .shards = o.shards};
}

// The lane options ScenarioBatch hands make_backend for the sweep.
engine::ScenarioBatchOptions sweep_batch_options() {
  return {.epsilon = kEpsilon, .threads = benchmark_lanes(),
          .engine_threads = 1};
}

engine::BackendOptions sweep_backend_options() {
  const engine::ScenarioBatchOptions b = sweep_batch_options();
  return {.epsilon = b.epsilon,
          .dense_state_limit = b.dense_state_limit,
          .threads = b.engine_threads,
          .collect_distributions = false,
          .fused_kernels = b.fused_kernels,
          .steady_state_detection = b.steady_state_detection,
          .tile_bytes = b.tile_bytes,
          .spill_dir = b.spill_dir,
          .kernel_dispatch = b.kernel_dispatch,
          .shards = b.shards};
}

// One curve per labelled input, plus how many requests produced it; every
// later curve of the same label must equal the first bit for bit.
struct CurveRecord {
  std::string label;
  std::uint64_t fingerprint = 0;
  std::optional<core::LifetimeCurve> curve;
  std::uint64_t produced = 0;
};

// What the untraced phase measured.
struct Measured {
  std::vector<double> setup_samples;
  std::vector<double> solve_samples;
  std::vector<double> part_samples;  // per-curve wall inside a request
  std::vector<double> lane_busy;     // per request
  double cpu_per_request = 0.0;
  // Taken after set-up and the first request, so that it does not depend
  // on how many requests fit in the run.
  double peak_rss_mb = 0.0;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> errors;
  std::vector<CurveRecord> curves;
  std::uint64_t plans_built = 0;
  std::uint64_t plans_reused = 0;
  // Resolved configuration for the run manifest.
  std::string engine;
  std::string reorder;
  std::size_t threads = 0;
  std::size_t lanes = 0;
};

void note_error(Measured& m, const std::string& what) {
  if (m.errors.size() < 8) m.errors.push_back(what);
}

// Records `curve` under slot `i`; a curve that differs from the first one
// of its slot counts as a failed request.
bool record_curve(Measured& m, std::size_t i, const core::LifetimeCurve& c) {
  CurveRecord& record = m.curves[i];
  ++record.produced;
  if (!record.curve) {
    record.curve = c;
    return true;
  }
  if (record.curve->probabilities() == c.probabilities()) return true;
  note_error(m, record.label + ": curve differs from the first solve");
  return false;
}

// Checks one batch's results against the first curve of each slot; every
// skipped, failed or differing scenario counts as a failed request.
void record_batch(Measured& m, const std::vector<engine::ScenarioResult>& results) {
  for (std::size_t i = 0; i < results.size(); ++i) {
    const engine::ScenarioResult& result = results[i];
    if (result.skipped || result.failed || !result.curve) {
      ++m.failed;
      note_error(m, result.label + ": " +
                        (result.skipped ? result.skip_reason
                                        : result.failure_reason));
    } else if (!record_curve(m, i, *result.curve)) {
      ++m.failed;
    }
  }
}

// On a shared host each CPU's speed drifts on its own over tens of seconds
// (a neighbour on its sibling hardware thread comes and goes), so a
// single-lane curve left where the scheduler put it measures one CPU's
// luck for the whole run.  A single-lane request is therefore pinned to
// the next allowed CPU in turn, and a run samples all of them.  The
// original affinity is restored on destruction.
class CpuRotation {
 public:
  CpuRotation() {
    CPU_ZERO(&original_);
    if (sched_getaffinity(0, sizeof original_, &original_) != 0) return;
    for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
      if (CPU_ISSET(cpu, &original_)) cpus_.push_back(cpu);
    }
  }
  CpuRotation(const CpuRotation&) = delete;
  CpuRotation& operator=(const CpuRotation&) = delete;
  ~CpuRotation() {
    if (moved_) sched_setaffinity(0, sizeof original_, &original_);
  }

  void next() {
    if (cpus_.size() < 2) return;
    cpu_set_t one;
    CPU_ZERO(&one);
    CPU_SET(cpus_[next_++ % cpus_.size()], &one);
    moved_ = sched_setaffinity(0, sizeof one, &one) == 0 || moved_;
  }

 private:
  cpu_set_t original_;
  std::vector<int> cpus_;
  std::size_t next_ = 0;
  bool moved_ = false;
};

Measured run_fig8(const Fig8Config& config, const BenchScenario& input,
                  double seconds) {
  Measured m;
  m.curves.push_back({input.scenario.label, input.fingerprint, {}, 0});
  m.engine = config.engine;
  m.threads = config.threads;
  m.lanes = config.threads;
  const core::KibamRmModel& model = input.scenario.model;
  const std::vector<double>& times = input.scenario.times;
  const core::ApproximationOptions options = approximation_options(config);

  // Set-up runs on the calling thread, so it rotates as the requests do.
  std::optional<CpuRotation> rotation;
  if (config.threads == 1) rotation.emplace();
  std::optional<core::MarkovianApproximation> approximation;
  try {
    while (more_setup(m.setup_samples)) {
      approximation.reset();
      if (rotation) rotation->next();
      const auto t0 = Clock::now();
      approximation.emplace(model, options);
      m.setup_samples.push_back(seconds_between(t0, Clock::now()));
    }
  } catch (const std::exception& error) {
    ++m.attempted;
    ++m.failed;
    note_error(m, std::string("setup: ") + error.what());
    m.peak_rss_mb = peak_rss_mb();
    return m;
  }

  const double cpu0 = cpu_seconds();
  const auto start = Clock::now();
  do {
    ++m.attempted;
    if (rotation) rotation->next();
    const auto t0 = Clock::now();
    const double c0 = cpu_seconds();
    try {
      const core::LifetimeCurve curve = approximation->solve(times);
      const double wall = seconds_between(t0, Clock::now());
      m.solve_samples.push_back(wall);
      m.part_samples.push_back(wall);
      m.lane_busy.push_back((cpu_seconds() - c0) /
                            (wall * static_cast<double>(m.lanes)));
      if (!record_curve(m, 0, curve)) ++m.failed;
    } catch (const std::exception& error) {
      ++m.failed;
      note_error(m, error.what());
    }
    if (m.attempted == 1) m.peak_rss_mb = peak_rss_mb();
  } while (seconds_between(start, Clock::now()) < seconds);
  m.cpu_per_request = (cpu_seconds() - cpu0) / static_cast<double>(m.attempted);
  m.reorder = approximation->last_stats().reorder;
  return m;
}

Measured run_sweep(const std::vector<BenchScenario>& sweep, double seconds) {
  Measured m;
  for (const BenchScenario& s : sweep) {
    m.curves.push_back({s.scenario.label, s.fingerprint, {}, 0});
  }
  std::vector<engine::Scenario> scenarios;
  for (const BenchScenario& s : sweep) scenarios.push_back(s.scenario);
  const engine::ScenarioBatchOptions options = sweep_batch_options();
  m.engine = options.engine;
  m.reorder = options.reorder;
  m.threads = options.engine_threads;

  std::optional<engine::ScenarioBatch> batch;
  try {
    while (more_setup(m.setup_samples)) {
      batch.reset();
      const auto t0 = Clock::now();
      batch.emplace(options);
      m.setup_samples.push_back(seconds_between(t0, Clock::now()));
    }
  } catch (const std::exception& error) {
    m.attempted += scenarios.size();
    m.failed += scenarios.size();
    note_error(m, std::string("setup: ") + error.what());
    m.peak_rss_mb = peak_rss_mb();
    return m;
  }
  m.lanes = batch->thread_count();

  const double cpu0 = cpu_seconds();
  const auto start = Clock::now();
  do {
    m.attempted += scenarios.size();
    const auto t0 = Clock::now();
    try {
      const std::vector<engine::ScenarioResult> results =
          batch->solve_all(scenarios);
      const double wall = seconds_between(t0, Clock::now());
      m.solve_samples.push_back(wall);
      const engine::BatchStats& stats = batch->last_stats();
      m.lane_busy.push_back(stats.solve_seconds_total /
                            (wall * static_cast<double>(stats.threads)));
      m.plans_built += stats.plans_built;
      m.plans_reused += stats.plans_reused;
      for (const engine::ScenarioResult& result : results) {
        m.part_samples.push_back(result.wall_seconds);
      }
      record_batch(m, results);
    } catch (const std::exception& error) {
      m.failed += scenarios.size();
      note_error(m, error.what());
    }
    if (m.attempted == scenarios.size()) m.peak_rss_mb = peak_rss_mb();
  } while (seconds_between(start, Clock::now()) < seconds);
  const double requests =
      static_cast<double>(m.attempted) / static_cast<double>(scenarios.size());
  m.cpu_per_request = (cpu_seconds() - cpu0) / requests;
  return m;
}

// Conservative reference solve of every input: the serial uniformisation
// engine without steady-state detection, one MarkovianApproximation per
// scenario, spread over `lanes` pool lanes.  Failures leave the slot empty.
std::vector<std::optional<core::LifetimeCurve>> solve_reference(
    const std::vector<BenchScenario>& inputs, std::size_t lanes) {
  std::vector<std::optional<core::LifetimeCurve>> curves(inputs.size());
  common::ThreadPool pool(lanes);
  pool.parallel_for(inputs.size(), [&](std::size_t i, std::size_t) {
    const engine::Scenario& s = inputs[i].scenario;
    try {
      core::MarkovianApproximation approximation(
          s.model, {.delta = s.delta, .epsilon = kEpsilon,
                    .engine = "uniformization", .threads = 1,
                    .steady_state_detection = false});
      curves[i] = approximation.solve(s.times);
    } catch (const std::exception& error) {
      std::cerr << "reference solve of " << s.label
                << " failed: " << error.what() << '\n';
    }
  });
  return curves;
}

// One untraced request outside the measured loop, timed next to the traced
// pipeline so that both see the same machine speed.  `wall` is the whole
// request (set-up plus solve); `scenario_sum` the sum of its per-scenario
// walls, which is what the layer spans of the traced pipeline add up to.
struct Untraced {
  double wall = 0.0;
  double scenario_sum = 0.0;
};

std::optional<Untraced> untraced_fig8(const Fig8Config& config,
                                      const BenchScenario& input, Measured& m) {
  ++m.attempted;
  try {
    const auto t0 = Clock::now();
    core::MarkovianApproximation approximation(input.scenario.model,
                                               approximation_options(config));
    const core::LifetimeCurve curve = approximation.solve(input.scenario.times);
    const double wall = seconds_between(t0, Clock::now());
    if (!record_curve(m, 0, curve)) ++m.failed;
    return Untraced{wall, wall};
  } catch (const std::exception& error) {
    ++m.failed;
    note_error(m, error.what());
    return std::nullopt;
  }
}

std::optional<Untraced> untraced_sweep(const std::vector<BenchScenario>& sweep,
                                       Measured& m) {
  std::vector<engine::Scenario> scenarios;
  for (const BenchScenario& s : sweep) scenarios.push_back(s.scenario);
  m.attempted += scenarios.size();
  try {
    const auto t0 = Clock::now();
    engine::ScenarioBatch batch(sweep_batch_options());
    const std::vector<engine::ScenarioResult> results = batch.solve_all(scenarios);
    Untraced out{seconds_between(t0, Clock::now()), 0.0};
    for (const engine::ScenarioResult& r : results) out.scenario_sum += r.wall_seconds;
    record_batch(m, results);
    return out;
  } catch (const std::exception& error) {
    m.failed += scenarios.size();
    note_error(m, error.what());
    return std::nullopt;
  }
}

// ---------------------------------------------------------------- tracing

// Spans recorded by the benchmark around public library calls, kept in
// memory and written out once at the end (Chrome trace-event JSON).
class Tracer {
 public:
  struct Span {
    std::string name;
    std::uint64_t request;
    std::int64_t parent;
    std::size_t lane;
    Clock::time_point start;
    Clock::time_point end;
  };

  std::int64_t open(std::string name, std::uint64_t request,
                    std::int64_t parent, std::size_t lane) {
    const Clock::time_point now = Clock::now();
    std::lock_guard<std::mutex> lock(mutex_);
    spans_.push_back({std::move(name), request, parent, lane, now, now});
    return static_cast<std::int64_t>(spans_.size() - 1);
  }

  double close(std::int64_t index) {
    const Clock::time_point now = Clock::now();
    std::lock_guard<std::mutex> lock(mutex_);
    Span& span = spans_[static_cast<std::size_t>(index)];
    span.end = now;
    return seconds_between(span.start, span.end);
  }

  void write(std::ostream& out) const {
    std::lock_guard<std::mutex> lock(mutex_);
    const Clock::time_point origin =
        spans_.empty() ? Clock::now() : spans_.front().start;
    JsonWriter json(out);
    json.begin_object().key("traceEvents").begin_array();
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& span = spans_[i];
      json.begin_object()
          .field("name", span.name)
          .field("ph", "X")
          .field("pid", std::uint64_t{1})
          .field("tid", static_cast<std::uint64_t>(span.lane))
          .field("ts", 1e6 * seconds_between(origin, span.start))
          .field("dur", 1e6 * seconds_between(span.start, span.end))
          .key("args")
          .begin_object()
          .field("request", span.request)
          .field("span", static_cast<std::uint64_t>(i))
          .field("parent", static_cast<double>(span.parent))
          .end_object()
          .end_object();
    }
    json.end_array().end_object();
    out << '\n';
  }

 private:
  mutable std::mutex mutex_;
  std::vector<Span> spans_;
};

// Per-layer counters of one traced pipeline.
struct LayerSample {
  double build_s = 0, plan_s = 0, fox_glynn_s = 0, solve_s = 0, total_s = 0;
  double states = 0, nonzeros = 0, active_states = 0, active_nonzeros = 0;
  double iterations = 0, iterations_saved = 0, window_steps = 0;
  double uniform_rows = 0, bytes_per_step = 0;
  // Plan-cache traffic of the backend's own solve, read as the change in
  // the shared cache's counters; exact only when one pipeline runs at a
  // time, so only the fig8 workloads report it.
  std::uint64_t lookups_during_solve = 0, reused_during_solve = 0;
  std::optional<core::LifetimeCurve> curve;
};

// Bytes one DTMC step moves, computed from the plan's array sizes: the
// per-entry offset and dictionary id, the per-row length and entry start
// (plus the absolute first column in the column-delta layout), and the
// three state vectors (operand, product, accumulator).  Cache misses and
// the accumulator's write-back are not modelled.
double computed_bytes_per_step(const engine::CachedGatherPlan& cached) {
  const auto rows = static_cast<double>(cached.rows());
  const auto entries = static_cast<double>(cached.nonzeros);
  const double vectors = 3.0 * 8.0 * rows;
  if (!cached.plan) return 12.0 * entries + 8.0 * rows + vectors;  // CSR
  const bool row_offset =
      cached.plan->layout() == linalg::FusedGatherPlan::Layout::kRowOffset;
  return 4.0 * entries + (row_offset ? 5.0 : 9.0) * rows + vectors;
}

// build_expanded_chain -> GatherPlanCache::obtain -> fox_glynn per time
// increment -> make_backend + solve_empty_probability_curve, one span
// around each, the way the parallel backend derives its plan inputs.
LayerSample traced_pipeline(const engine::Scenario& s,
                            const std::string& engine_name,
                            engine::BackendOptions options,
                            const std::shared_ptr<engine::GatherPlanCache>& cache,
                            Tracer& tracer, std::uint64_t request,
                            std::size_t lane) {
  LayerSample sample;
  const std::int64_t root = tracer.open("request", request, -1, lane);

  std::int64_t span = tracer.open("core.build_expanded_chain", request, root, lane);
  const core::ExpandedChain expanded = core::build_expanded_chain(
      s.model, s.delta, core::parse_state_ordering("none"));
  sample.build_s = tracer.close(span);
  sample.states = static_cast<double>(expanded.grid.state_count());
  sample.nonzeros = static_cast<double>(expanded.chain.generator().nonzeros());

  double rate = 1.02 * expanded.chain.max_exit_rate();
  if (rate == 0.0) rate = 1.0;
  std::vector<std::uint32_t> seeds;
  for (std::size_t i = 0; i < expanded.initial.size(); ++i) {
    if (expanded.initial[i] != 0.0) seeds.push_back(static_cast<std::uint32_t>(i));
  }
  span = tracer.open("engine.GatherPlanCache.obtain", request, root, lane);
  const std::shared_ptr<const engine::CachedGatherPlan> cached =
      cache->obtain(expanded.chain.generator(), rate, seeds);
  sample.plan_s = tracer.close(span);
  sample.active_states = static_cast<double>(cached->rows());
  sample.active_nonzeros = static_cast<double>(cached->nonzeros);
  sample.uniform_rows =
      cached->plan ? cached->plan->uniform_fraction() * sample.active_states : 0.0;
  sample.bytes_per_step = computed_bytes_per_step(*cached);

  span = tracer.open("markov.fox_glynn", request, root, lane);
  double previous = 0.0;
  for (double t : s.times) {
    if (t > previous) {
      const markov::PoissonWindow window =
          markov::fox_glynn(rate * (t - previous), options.epsilon);
      sample.window_steps += static_cast<double>(window.right + 1);
    }
    previous = t;
  }
  sample.fox_glynn_s = tracer.close(span);

  span = tracer.open("engine.solve", request, root, lane);
  const std::uint64_t built0 = cache->plans_built();
  const std::uint64_t reused0 = cache->plans_reused();
  options.plan_cache = cache;
  const std::unique_ptr<engine::TransientBackend> backend =
      engine::make_backend(engine_name, options);
  sample.curve = core::solve_empty_probability_curve(expanded, *backend,
                                                     s.times, options.epsilon);
  sample.solve_s = tracer.close(span);
  sample.reused_during_solve = cache->plans_reused() - reused0;
  sample.lookups_during_solve =
      sample.reused_during_solve + (cache->plans_built() - built0);
  sample.iterations = static_cast<double>(backend->last_stats().iterations);
  sample.iterations_saved =
      static_cast<double>(backend->last_stats().iterations_saved);
  sample.total_s = tracer.close(root);
  return sample;
}

// STREAM triad a[i] = b[i] + s * c[i] over `lanes` pool lanes; returns
// GB/s counting 24 bytes per element, the median of timed passes.
double triad_gbps(std::size_t bytes_total, std::size_t lanes) {
  const std::size_t n = std::max<std::size_t>(bytes_total / 24, 1024);
  std::vector<double> a(n, 0.0), b(n, 1.0), c(n, 2.0);
  common::ThreadPool pool(lanes);
  const std::size_t chunks = lanes;
  const auto pass = [&] {
    pool.parallel_for(chunks, [&](std::size_t chunk, std::size_t) {
      const std::size_t lo = n * chunk / chunks;
      const std::size_t hi = n * (chunk + 1) / chunks;
      for (std::size_t i = lo; i < hi; ++i) a[i] = b[i] + 3.0 * c[i];
    });
  };
  pass();
  // Enough passes for ~50 ms of timing per sample, 7 samples.
  const auto t0 = Clock::now();
  pass();
  const double one = std::max(seconds_between(t0, Clock::now()), 1e-7);
  const auto passes = static_cast<std::size_t>(std::clamp(0.05 / one, 1.0, 1e6));
  std::vector<double> rates;
  for (int sample = 0; sample < 7; ++sample) {
    const auto start = Clock::now();
    for (std::size_t p = 0; p < passes; ++p) pass();
    const double wall = seconds_between(start, Clock::now());
    rates.push_back(24.0 * static_cast<double>(n) * static_cast<double>(passes) /
                    wall / 1e9);
  }
  if (a[n / 2] != 7.0) std::cerr << "triad produced a wrong value\n";
  return median(rates);
}

constexpr std::size_t kSpeedProbeBytes = std::size_t{1} << 20;

// Median wall time of an empty parallel_for of 4 x lanes tasks.
double pool_sync_us(std::size_t lanes) {
  common::ThreadPool pool(lanes);
  std::atomic<std::size_t> sink{0};
  const auto dispatch = [&] {
    pool.parallel_for(4 * lanes, [&](std::size_t i, std::size_t) {
      sink.fetch_add(i, std::memory_order_relaxed);
    });
  };
  for (int i = 0; i < 200; ++i) dispatch();
  std::vector<double> samples;
  for (int batch = 0; batch < 9; ++batch) {
    const auto start = Clock::now();
    for (int i = 0; i < 400; ++i) dispatch();
    samples.push_back(1e6 * seconds_between(start, Clock::now()) / 400.0);
  }
  return median(samples);
}

std::size_t last_level_cache_bytes() {
  std::size_t best = 0;
  for (int index = 0; index < 8; ++index) {
    std::ifstream file("/sys/devices/system/cpu/cpu0/cache/index" +
                       std::to_string(index) + "/size");
    std::string text;
    if (!(file >> text) || text.empty()) continue;
    std::size_t scale = 1;
    if (text.back() == 'K') scale = 1024;
    if (text.back() == 'M') scale = 1024 * 1024;
    try {
      best = std::max(best, std::stoul(text) * scale);
    } catch (const std::exception&) {
    }
  }
  return best;
}

struct Layers {
  std::map<std::string, double> metrics;
  std::map<std::string, double> notes;
  bool traced_matches_untraced = true;
};

// The traced phase: the same inputs solved again through the pipeline of
// public calls with a span around each, between two untraced requests that
// are the baseline of the overhead and coverage figures; then the machine
// roofs.
Layers trace_layers(const std::vector<BenchScenario>& inputs,
                    const std::string& engine_name,
                    const engine::BackendOptions& options, std::size_t lanes,
                    std::size_t kernel_lanes, Measured& m, Tracer& tracer,
                    bool fig8,
                    const std::function<std::optional<Untraced>()>& untraced_request) {
  Layers out;
  // A one-lane traced request and its two baselines share one CPU, so that
  // the CPUs' unequal speeds stay out of the overhead and coverage.
  std::optional<CpuRotation> pin;
  if (fig8 && lanes == 1) {
    pin.emplace();
    pin->next();
  }
  std::vector<Untraced> baseline;
  if (const std::optional<Untraced> u = untraced_request()) baseline.push_back(*u);
  const auto cache = std::make_shared<engine::GatherPlanCache>();
  std::vector<std::optional<LayerSample>> samples(inputs.size());
  common::ThreadPool pool(fig8 ? 1 : lanes);
  const auto start = Clock::now();
  pool.parallel_for(inputs.size(), [&](std::size_t i, std::size_t lane) {
    try {
      samples[i] = traced_pipeline(inputs[i].scenario, engine_name, options,
                                   cache, tracer, i, lane);
    } catch (const std::exception& error) {
      std::cerr << "traced solve of " << inputs[i].scenario.label
                << " failed: " << error.what() << '\n';
    }
  });
  const double traced_wall = seconds_between(start, Clock::now());
  if (const std::optional<Untraced> u = untraced_request()) baseline.push_back(*u);
  pin.reset();

  LayerSample sum;
  double bytes_moved = 0.0;
  for (std::size_t i = 0; i < samples.size(); ++i) {
    const std::optional<LayerSample>& s = samples[i];
    const std::optional<core::LifetimeCurve>& untraced = m.curves[i].curve;
    const bool equal = s && s->curve && untraced &&
                       s->curve->probabilities() == untraced->probabilities();
    if (!equal) {
      out.traced_matches_untraced = false;
      ++m.failed;
      note_error(m, m.curves[i].label + ": traced curve differs from untraced");
    }
    ++m.attempted;
    if (!s) continue;
    sum.build_s += s->build_s;
    sum.plan_s += s->plan_s;
    sum.fox_glynn_s += s->fox_glynn_s;
    sum.solve_s += s->solve_s;
    sum.total_s += s->total_s;
    sum.states += s->states;
    sum.nonzeros += s->nonzeros;
    sum.active_states += s->active_states;
    sum.active_nonzeros += s->active_nonzeros;
    sum.iterations += s->iterations;
    sum.iterations_saved += s->iterations_saved;
    sum.window_steps += s->window_steps;
    sum.uniform_rows += s->uniform_rows;
    sum.lookups_during_solve += s->lookups_during_solve;
    sum.reused_during_solve += s->reused_during_solve;
    bytes_moved += s->bytes_per_step * s->iterations;
  }
  const auto ratio = [](double a, double b) { return b > 0.0 ? a / b : 0.0; };
  const double bytes_per_step = ratio(bytes_moved, sum.iterations);

  // The untraced request is set-up plus solve of the curve on fig8 and the
  // batch on the sweep, whose traced pipeline runs on as many lanes.
  Untraced untraced;
  for (const Untraced& u : baseline) {
    untraced.wall += u.wall / static_cast<double>(baseline.size());
    untraced.scenario_sum += u.scenario_sum / static_cast<double>(baseline.size());
  }
  const double traced = fig8 ? sum.total_s : traced_wall;
  const double covered = sum.build_s + sum.plan_s + sum.fox_glynn_s + sum.solve_s;

  std::map<std::string, double>& x = out.metrics;
  x["core.build_s"] = sum.build_s;
  x["core.states"] = sum.states;
  x["core.nonzeros"] = sum.nonzeros;
  x["engine.plan_s"] = sum.plan_s;
  x["engine.active_states"] = sum.active_states;
  x["engine.active_nonzeros"] = sum.active_nonzeros;
  x["engine.solve_s"] = sum.solve_s;
  x["engine.iterations"] = sum.iterations;
  x["engine.detect_yield"] =
      ratio(sum.iterations_saved, sum.iterations + sum.iterations_saved);
  x["engine.step_us"] = 1e6 * ratio(sum.solve_s, sum.iterations);
  x["engine.scenario_s.p50"] = quantile(m.part_samples, 0.5);
  x["engine.scenario_s.p75"] = quantile(m.part_samples, 0.75);
  x["engine.scenario_s.max"] = quantile(m.part_samples, 1.0);
  x["engine.lane_busy_frac"] = median(m.lane_busy);
  x["markov.window_steps"] = sum.window_steps;
  x["markov.fox_glynn_s"] = sum.fox_glynn_s;
  x["linalg.uniform_frac"] = ratio(sum.uniform_rows, sum.active_states);
  x["linalg.bytes_per_step"] = bytes_per_step;
  x["linalg.gbps"] = ratio(bytes_moved, sum.solve_s) / 1e9;

  const std::size_t llc = last_level_cache_bytes();
  // Three arrays of 4x the last-level cache each, capped so the roof
  // never claims more than 768 MiB of a shared machine's memory.
  const std::size_t dram_array =
      std::clamp<std::size_t>(4 * llc, std::size_t{64} << 20, std::size_t{256} << 20);
  x["linalg.roof_gbps.llc"] =
      triad_gbps(static_cast<std::size_t>(bytes_per_step), kernel_lanes);
  x["linalg.roof_gbps.dram"] = triad_gbps(3 * dram_array, kernel_lanes);
  x["common.pool_sync_us"] = pool_sync_us(lanes);
  x["trace_overhead_frac"] = ratio(traced - untraced.wall, untraced.wall);
  // Share of the untraced request (per-scenario walls on the sweep) that
  // the four layer spans account for.
  x["trace_coverage_frac"] = ratio(covered, untraced.scenario_sum);

  // Plan-cache traffic and the draw's chain repeats are reported beside
  // the metrics, not as metrics: the default uniformization engine ignores
  // the cache, so the reuse counts are 0 by design, and the repeat share
  // describes the inputs, not the program.
  std::vector<std::uint64_t> chains;
  for (const BenchScenario& input : inputs) chains.push_back(input.chain_key);
  std::sort(chains.begin(), chains.end());
  const auto distinct = static_cast<double>(
      std::unique(chains.begin(), chains.end()) - chains.begin());
  out.notes["repeat_chain_frac"] =
      ratio(static_cast<double>(inputs.size()) - distinct,
            static_cast<double>(inputs.size()));
  out.notes["batch_plans_built"] = static_cast<double>(m.plans_built);
  out.notes["batch_plans_reused"] = static_cast<double>(m.plans_reused);
  if (fig8) {
    out.notes["traced_solve_plan_lookups"] =
        static_cast<double>(sum.lookups_during_solve);
    out.notes["traced_solve_plans_reused"] =
        static_cast<double>(sum.reused_during_solve);
  }

  out.notes["llc_bytes"] = static_cast<double>(llc);
  out.notes["roof_llc_bytes"] = bytes_per_step;
  out.notes["roof_dram_bytes"] = static_cast<double>(3 * dram_array);
  out.notes["traced_wall_s"] = traced;
  out.notes["untraced_wall_s"] = untraced.wall;
  out.notes["untraced_scenario_sum_s"] = untraced.scenario_sum;
  return out;
}

// ---------------------------------------------------------------- output

void write_curve(JsonWriter& json, const std::string& label,
                 std::uint64_t fingerprint, const core::LifetimeCurve* curve,
                 std::uint64_t produced) {
  json.begin_object().field("label", label);
  char hex[24];
  std::snprintf(hex, sizeof hex, "%016llx",
                static_cast<unsigned long long>(fingerprint));
  json.field("fingerprint", std::string_view(hex)).field("produced", produced);
  json.key("times");
  if (curve) json.values(curve->times()); else json.value("missing");
  json.key("probabilities");
  if (curve) json.values(curve->probabilities()); else json.value("missing");
  json.end_object();
}

std::vector<BenchScenario> workload_inputs(std::string_view workload,
                                           std::uint64_t seed) {
  if (const auto config = fig8_config(workload)) {
    return {make_scenario("fig8 D=" + format("%.0f", config->delta),
                          fig8_model(), config->delta, fig8_times(),
                          {0, 1.0, 1, 0.96, 7200.0})};
  }
  return make_sweep(seed);
}

struct Args {
  std::string mode;
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  bool solve_reference = false;
  std::string trace_out;
};

int usage(const std::string& message) {
  std::cerr << "kibamrm_perfbench: " << message
            << "\nusage: kibamrm_perfbench run --workload "
               "fig8_d25|fig8_d10_mt|sweep --seed N --seconds S --trace 0|1 "
               "[--solve-reference 0|1] [--trace-out FILE]\n"
               "       kibamrm_perfbench reference --workload W --seed N\n"
               "       kibamrm_perfbench simulate\n";
  return 2;
}

std::optional<Args> parse(int argc, char** argv, std::string& error) {
  Args args;
  if (argc < 2) {
    error = "missing mode";
    return std::nullopt;
  }
  args.mode = argv[1];
  for (int i = 2; i < argc; i += 2) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) {
      error = "option " + flag + " requires a value";
      return std::nullopt;
    }
    const std::string value = argv[i + 1];
    try {
      if (flag == "--workload") args.workload = value;
      else if (flag == "--seed") args.seed = std::stoull(value);
      else if (flag == "--seconds") args.seconds = std::stod(value);
      else if (flag == "--trace") args.trace = value == "1";
      else if (flag == "--solve-reference") args.solve_reference = value == "1";
      else if (flag == "--trace-out") args.trace_out = value;
      else {
        error = "unknown option " + flag;
        return std::nullopt;
      }
    } catch (const std::exception&) {
      error = "option " + flag + " has an invalid value '" + value + "'";
      return std::nullopt;
    }
  }
  const bool known = args.workload == "sweep" || fig8_config(args.workload);
  if (args.mode != "simulate" && !known) {
    error = "unknown workload '" + args.workload + "'";
    return std::nullopt;
  }
  if (!(args.seconds > 0.0)) {
    error = "--seconds must be positive";
    return std::nullopt;
  }
  return args;
}

int run(const Args& args) {
  const std::vector<BenchScenario> inputs = workload_inputs(args.workload, args.seed);
  const std::optional<Fig8Config> config = fig8_config(args.workload);
  // A fixed single-lane triad before and after the measured phase: not a
  // metric, but it shows when the machine itself ran faster or slower.
  const double probe_before = triad_gbps(kSpeedProbeBytes, 1);
  Measured m = config ? run_fig8(*config, inputs.front(), args.seconds)
                      : run_sweep(inputs, args.seconds);
  const double probe_after = triad_gbps(kSpeedProbeBytes, 1);
  const std::string kernel_tier(
      linalg::kernels::dispatch_name(linalg::kernels::active_dispatch()));

  std::optional<Layers> layers;
  Tracer tracer;
  if (args.trace) {
    const std::string engine_name = m.engine;
    const engine::BackendOptions options =
        config ? backend_options(approximation_options(*config))
               : sweep_backend_options();
    const std::function<std::optional<Untraced>()> untraced_request =
        [&]() -> std::optional<Untraced> {
      return config ? untraced_fig8(*config, inputs.front(), m)
                    : untraced_sweep(inputs, m);
    };
    layers = trace_layers(inputs, engine_name, options, m.lanes,
                          config ? config->threads : 1, m, tracer,
                          config.has_value(), untraced_request);
    if (!args.trace_out.empty()) {
      std::ofstream file(args.trace_out);
      tracer.write(file);
    }
  }
  std::vector<std::optional<core::LifetimeCurve>> reference;
  if (args.solve_reference) reference = solve_reference(inputs, benchmark_lanes());

  JsonWriter json(std::cout);
  json.begin_object()
      .field("workload", args.workload)
      .field("seed", args.seed)
      .field("attempted", m.attempted)
      .field("failed", m.failed);
  json.key("errors").begin_array();
  for (const std::string& e : m.errors) json.value(e);
  json.end_array();
  json.key("manifest")
      .begin_object()
      .field("compiler", PERFBENCH_COMPILER)
      .field("flags", PERFBENCH_FLAGS)
      .field("build_type", PERFBENCH_BUILD_TYPE)
      .field("kernel_tier", kernel_tier)
      .field("engine", m.engine)
      .field("engine_threads", static_cast<std::uint64_t>(m.threads))
      .field("lanes", static_cast<std::uint64_t>(m.lanes))
      .field("reorder", m.reorder)
      .field("hardware_threads",
             static_cast<std::uint64_t>(common::ThreadPool::hardware_thread_count()))
      .field("llc_bytes", static_cast<std::uint64_t>(last_level_cache_bytes()))
      .end_object();
  json.key("metrics")
      .begin_object()
      // The mean, not the median: with requests rotating over CPUs of
      // unequal speed the samples cluster by CPU, and a median of ~10
      // samples jumps between clusters from run to run.
      .field("solve_s", mean(m.solve_samples))
      .field("setup_s", median(m.setup_samples))
      .field("cpu_s", m.cpu_per_request)
      .field("peak_rss_mb", m.peak_rss_mb)
      .field("requests", static_cast<std::uint64_t>(m.solve_samples.size()))
      .end_object();
  json.key("solve_samples").values(m.solve_samples);
  json.key("speed_probe_gbps").begin_array().value(probe_before)
      .value(probe_after).end_array();
  if (layers) {
    json.key("layers").begin_object();
    for (const auto& [name, value] : layers->metrics) json.field(name, value);
    json.end_object();
    json.key("layer_notes").begin_object();
    for (const auto& [name, value] : layers->notes) json.field(name, value);
    json.field("traced_matches_untraced", layers->traced_matches_untraced);
    json.end_object();
  }
  json.key("curves").begin_array();
  for (const CurveRecord& r : m.curves) {
    write_curve(json, r.label, r.fingerprint, r.curve ? &*r.curve : nullptr,
                r.produced);
  }
  json.end_array();
  if (args.solve_reference) {
    json.key("reference").begin_array();
    for (std::size_t i = 0; i < inputs.size(); ++i) {
      write_curve(json, inputs[i].scenario.label, inputs[i].fingerprint,
                  reference[i] ? &*reference[i] : nullptr, 1);
    }
    json.end_array();
  }
  json.end_object();
  std::cout << '\n';
  return 0;
}

// Reference curves for every input of a workload (the conservative solve
// above); written beside the benchmark by make_reference.py.
int reference(const Args& args) {
  const std::vector<BenchScenario> inputs = workload_inputs(args.workload, args.seed);
  const auto curves = solve_reference(inputs, benchmark_lanes());
  JsonWriter json(std::cout);
  json.begin_object()
      .field("workload", args.workload)
      .field("seed", args.seed)
      .field("solver", "uniformization, threads 1, no steady-state detection");
  json.key("curves").begin_array();
  bool complete = true;
  for (std::size_t i = 0; i < inputs.size(); ++i) {
    complete = complete && curves[i].has_value();
    write_curve(json, inputs[i].scenario.label, inputs[i].fingerprint,
                curves[i] ? &*curves[i] : nullptr, 1);
  }
  json.end_array().end_object();
  std::cout << '\n';
  return complete ? 0 : 1;
}

// Fixed-seed simulator ECDF of the fig8 model on the fig8 grid.
constexpr std::size_t kSimulatorReplications = 4000;
constexpr std::uint64_t kSimulatorSeed = 20070625;

int simulate() {
  const core::MonteCarloSimulator simulator(
      fig8_model(),
      {.replications = kSimulatorReplications, .seed = kSimulatorSeed});
  const core::LifetimeCurve ecdf =
      simulator.empty_probability_curve(fig8_times());
  JsonWriter json(std::cout);
  json.begin_object()
      .field("model", "fig8: on/off Erlang-1 1 Hz 0.96 A, C=7200 As, "
                      "c=0.625, k=4.5e-5/s")
      .field("replications", static_cast<std::uint64_t>(kSimulatorReplications))
      .field("seed", kSimulatorSeed)
      .key("times")
      .values(ecdf.times())
      .key("probabilities")
      .values(ecdf.probabilities())
      .end_object();
  std::cout << '\n';
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  std::string error;
  const std::optional<Args> args = parse(argc, argv, error);
  if (!args) return usage(error);
  try {
    if (args->mode == "run") return run(*args);
    if (args->mode == "reference") return reference(*args);
    if (args->mode == "simulate") return simulate();
  } catch (const std::exception& e) {
    std::cerr << "kibamrm_perfbench: " << e.what() << '\n';
    return 1;
  }
  return usage("unknown mode '" + args->mode + "'");
}
