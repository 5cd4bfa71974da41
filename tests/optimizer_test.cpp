#include <gtest/gtest.h>

#include "core/eval.h"

namespace vcoadc::core {
namespace {

/// An optimize request over a small grid: 2 slice counts x 2 OSRs.
EvalRequest fast_request(const OptimizeTarget& target) {
  EvalRequest req;
  req.kind = EvalKind::kOptimize;
  req.optimize_target = target;
  req.optimize.slice_choices = {8, 16};
  req.optimize.osr_choices = {50, 75};
  req.optimize.n_samples = 1 << 12;
  return req;
}

TEST(Optimizer, FindsDesignForModestTarget) {
  OptimizeTarget t;
  t.min_sndr_db = 55.0;
  t.bandwidth_hz = 2e6;
  const auto res = evaluate(fast_request(t), ExecContext{}).optimize;
  ASSERT_TRUE(res.best.has_value());
  EXPECT_GT(res.best_sndr_db, 55.0);
  EXPECT_GT(res.best_power_w, 0.0);
  EXPECT_TRUE(res.best->validate().empty());
  EXPECT_DOUBLE_EQ(res.best->bandwidth_hz, 2e6);
}

TEST(Optimizer, PicksMinimumPowerAmongMeeting) {
  OptimizeTarget t;
  t.min_sndr_db = 55.0;
  t.bandwidth_hz = 2e6;
  const auto res = evaluate(fast_request(t), ExecContext{}).optimize;
  ASSERT_TRUE(res.best.has_value());
  for (const auto& cr : res.evaluated) {
    if (cr.meets) {
      EXPECT_GE(cr.power_w, res.best_power_w - 1e-12);
    }
  }
}

TEST(Optimizer, ImpossibleTargetReturnsEmpty) {
  OptimizeTarget t;
  t.min_sndr_db = 120.0;  // not reachable with first-order shaping here
  t.bandwidth_hz = 2e6;
  const auto res = evaluate(fast_request(t), ExecContext{}).optimize;
  EXPECT_FALSE(res.best.has_value());
  // Every candidate was still evaluated and recorded.
  EXPECT_EQ(res.evaluated.size(), 4u);
}

TEST(Optimizer, TighterTargetCostsMorePower) {
  OptimizeTarget loose;
  loose.min_sndr_db = 50.0;
  loose.bandwidth_hz = 2e6;
  OptimizeTarget tight = loose;
  tight.min_sndr_db = 65.0;
  EvalRequest req;
  req.kind = EvalKind::kOptimize;
  req.optimize.slice_choices = {4, 8, 16};
  req.optimize.osr_choices = {32, 75, 150};
  req.optimize.n_samples = 1 << 12;
  req.optimize_target = loose;
  const auto r_loose = evaluate(req, ExecContext{}).optimize;
  req.optimize_target = tight;
  const auto r_tight = evaluate(req, ExecContext{}).optimize;
  ASSERT_TRUE(r_loose.best.has_value());
  ASSERT_TRUE(r_tight.best.has_value());
  EXPECT_LE(r_loose.best_power_w, r_tight.best_power_w);
}

TEST(Optimizer, InvalidCandidatesSkippedNotCrashed) {
  OptimizeTarget t;
  t.node_nm = 180;         // slow node: high-OSR/high-slices rings invalid
  t.min_sndr_db = 55.0;
  t.bandwidth_hz = 2e6;
  EvalRequest req;
  req.kind = EvalKind::kOptimize;
  req.optimize_target = t;
  req.optimize.slice_choices = {16, 32};
  req.optimize.osr_choices = {75, 300};  // OSR 300 -> 1.2 GHz fs: unrealizable
  req.optimize.n_samples = 1 << 12;
  const auto res = evaluate(req, ExecContext{}).optimize;
  int invalid = 0;
  for (const auto& cr : res.evaluated) invalid += !cr.valid;
  EXPECT_GT(invalid, 0);
}

}  // namespace
}  // namespace vcoadc::core
