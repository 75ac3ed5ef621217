// Tests for the shared uniformisation loop (markov::UniformizationDriver)
// over a scripted step operator: the steady-state rule, the residual fold
// and the cost accounting, independent of any real matrix.
#include <gtest/gtest.h>

#include <cstdint>
#include <set>
#include <utility>
#include <vector>

#include "kibamrm/markov/ctmc.hpp"
#include "kibamrm/markov/fox_glynn.hpp"
#include "kibamrm/markov/uniformization.hpp"
#include "kibamrm/markov/uniformization_driver.hpp"

namespace kibamrm::markov {
namespace {

constexpr double kEpsilon = 1e-10;
constexpr double kLambda = 10.0;  // rate 1 x one increment of length 10

/// One-state operator whose power iterate stays 1: each step adds
/// `weight` to the accumulator and returns 0 (calm) on the scripted calm
/// steps, 1 (loud) on all others.  Records every fold.
class ScriptedStep final : public StepOperator {
 public:
  explicit ScriptedStep(std::set<std::uint64_t> calm)
      : calm_(std::move(calm)) {}

  void describe(TransientStats& stats) const override {
    stats.active_nonzeros = 1;
  }
  void load(const std::vector<double>& /*current*/) override { n_ = 0; }
  double step(double weight, std::vector<double>& accum) override {
    ++n_;
    accum[0] += weight;
    return calm_.count(n_) != 0 ? 0.0 : 1.0;
  }
  void fold(double residual, std::vector<double>& /*accum*/) override {
    folds.push_back(residual);
  }

  std::vector<double> folds;

 private:
  std::set<std::uint64_t> calm_;
  std::uint64_t n_ = 0;
};

/// Runs one increment of length kLambda on a one-state chain.
TransientStats run_script(ScriptedStep& op) {
  UniformizationDriver driver({.epsilon = kEpsilon});
  TransientStats stats;
  driver.run(op, 1.0, {}, {1.0}, {kLambda}, nullptr, stats);
  return stats;
}

double tail_mass(const PoissonWindow& window, std::uint64_t n) {
  double residual = 0.0;
  for (std::uint64_t m = n + 1; m <= window.right; ++m) {
    residual += window.weight(m);
  }
  return residual;
}

TEST(UniformizationDriver, DetectionFiresAfterExactlyTwoCalmSteps) {
  const PoissonWindow window = fox_glynn(kLambda, kEpsilon);
  ASSERT_GT(window.right, 12u);
  ScriptedStep op({5, 6});
  const TransientStats stats = run_script(op);
  EXPECT_EQ(stats.iterations, 6u) << "stops on the second calm step";
  EXPECT_EQ(stats.steady_state_hits, 1u);
  EXPECT_EQ(stats.iterations_saved, window.right - 6);
  ASSERT_EQ(op.folds.size(), 1u);
  EXPECT_EQ(op.folds[0], tail_mass(window, 6));
}

TEST(UniformizationDriver, LoudStepResetsTheCalmCount) {
  const PoissonWindow window = fox_glynn(kLambda, kEpsilon);
  ASSERT_GT(window.right, 12u);
  // 3 calm, 4 loud, 5 calm, 6 loud, 7 and 8 calm: fires at 8 only.
  ScriptedStep op({3, 5, 7, 8});
  const TransientStats stats = run_script(op);
  EXPECT_EQ(stats.iterations, 8u);
  EXPECT_EQ(stats.steady_state_hits, 1u);
  ASSERT_EQ(op.folds.size(), 1u);
  EXPECT_EQ(op.folds[0], tail_mass(window, 8));
}

TEST(UniformizationDriver, DetectionNeverFiresAtTheWindowEnd) {
  const PoissonWindow window = fox_glynn(kLambda, kEpsilon);
  // The last two steps are calm, but at n == right nothing is left to
  // skip: the window runs to its end and nothing is folded.
  ScriptedStep op({window.right - 1, window.right});
  const TransientStats stats = run_script(op);
  EXPECT_EQ(stats.iterations, window.right);
  EXPECT_EQ(stats.steady_state_hits, 0u);
  EXPECT_EQ(stats.iterations_saved, 0u);
  EXPECT_TRUE(op.folds.empty());

  SteadyStateDetector detector(kEpsilon);
  EXPECT_FALSE(detector.verdict(window, window.right - 1, 0.0));
  EXPECT_FALSE(detector.verdict(window, window.right, 0.0));
}

TEST(UniformizationDriver, IterationsPlusSavedEqualWindowTerms) {
  const PoissonWindow window = fox_glynn(kLambda, kEpsilon);
  for (const std::uint64_t stop : {2ull, 7ull, 20ull}) {
    ASSERT_LT(stop, window.right);
    ScriptedStep op({stop - 1, stop});
    const TransientStats stats = run_script(op);
    EXPECT_EQ(stats.iterations + stats.iterations_saved, window.right)
        << "stop = " << stop;
  }
  ScriptedStep loud({});
  EXPECT_EQ(run_script(loud).iterations, window.right);
}

TEST(UniformizationDriver, OperatorWithoutDeltaNeverDetects) {
  class NoDelta final : public StepOperator {
   public:
    void describe(TransientStats& /*stats*/) const override {}
    void load(const std::vector<double>& /*current*/) override {}
    double step(double weight, std::vector<double>& accum) override {
      accum[0] += weight;
      return 0.0;  // would be calm on every step if it were read
    }
    void fold(double /*residual*/, std::vector<double>& /*accum*/) override {}
    bool reports_delta() const override { return false; }
  } op;
  UniformizationDriver driver({.epsilon = kEpsilon});
  TransientStats stats;
  driver.run(op, 1.0, {}, {1.0}, {kLambda}, nullptr, stats);
  EXPECT_EQ(stats.iterations, fox_glynn(kLambda, kEpsilon).right);
  EXPECT_EQ(stats.steady_state_hits, 0u);
}

TEST(UniformizationDriver, ReusedReferenceSolverMatchesFreshOnes) {
  // The reference operator is built once per solver and reloaded on every
  // solve; a reused solver must give what a fresh one gives, bit for bit.
  const Ctmc chain = ctmc_from_rates({{0.0, 1.2, 0.3, 0.0},
                                      {0.4, 0.0, 2.0, 0.1},
                                      {0.0, 0.7, 0.0, 0.9},
                                      {1.5, 0.0, 0.2, 0.0}});
  const TransientOptions options{.fused_kernels = false};
  const std::vector<double> times = {0.5, 3.0};
  const std::vector<std::vector<double>> initials = {{1.0, 0.0, 0.0, 0.0},
                                                     {0.0, 0.0, 0.5, 0.5}};
  TransientSolver reused(chain, options);
  for (const auto& initial : initials) {
    TransientSolver fresh(chain, options);
    EXPECT_EQ(reused.solve(initial, times), fresh.solve(initial, times));
    EXPECT_EQ(reused.last_stats().iterations, fresh.last_stats().iterations);
  }
}

}  // namespace
}  // namespace kibamrm::markov
