// Unit tests for the LP/MILP solver substrate (src/lp).
//
// The simplex underpins the paper's consolidation model (eqs. (2)-(9));
// these tests pin it against hand-solved LPs, degenerate/unbounded cases,
// and randomized feasibility property checks.
#include <gtest/gtest.h>

#include <cmath>
#include <sstream>
#include <stdexcept>

#include "lp/branch_and_bound.h"
#include "lp/model.h"
#include "lp/simplex.h"
#include "util/rng.h"

namespace eprons::lp {
namespace {

TEST(Simplex, SolvesTextbookMaximize) {
  // max 3x + 5y  s.t. x <= 4, 2y <= 12, 3x + 2y <= 18  -> (2, 6), z = 36.
  Model m(Sense::Maximize);
  const int x = m.add_variable("x", 0, kInfinity, 3.0);
  const int y = m.add_variable("y", 0, kInfinity, 5.0);
  m.add_row("r1", RowType::LessEqual, 4, {{x, 1.0}});
  m.add_row("r2", RowType::LessEqual, 12, {{y, 2.0}});
  m.add_row("r3", RowType::LessEqual, 18, {{x, 3.0}, {y, 2.0}});

  const Solution s = SimplexSolver().solve(m);
  ASSERT_EQ(s.status, SolveStatus::Optimal);
  EXPECT_NEAR(s.x[static_cast<std::size_t>(x)], 2.0, 1e-8);
  EXPECT_NEAR(s.x[static_cast<std::size_t>(y)], 6.0, 1e-8);
  EXPECT_NEAR(s.objective, 36.0, 1e-8);
}

TEST(Simplex, SolvesMinimizeWithGreaterEqual) {
  // min 2x + 3y  s.t. x + y >= 10, x >= 2, y >= 3  -> y=3? check:
  // cost favors x (2 < 3), so x = 7, y = 3, z = 14 + 9 = 23.
  Model m(Sense::Minimize);
  const int x = m.add_variable("x", 2, kInfinity, 2.0);
  const int y = m.add_variable("y", 3, kInfinity, 3.0);
  m.add_row("cover", RowType::GreaterEqual, 10, {{x, 1.0}, {y, 1.0}});
  const Solution s = SimplexSolver().solve(m);
  ASSERT_EQ(s.status, SolveStatus::Optimal);
  EXPECT_NEAR(s.x[static_cast<std::size_t>(x)], 7.0, 1e-8);
  EXPECT_NEAR(s.x[static_cast<std::size_t>(y)], 3.0, 1e-8);
  EXPECT_NEAR(s.objective, 23.0, 1e-8);
}

TEST(Simplex, HandlesEqualityRows) {
  // min x + y  s.t. x + 2y = 8, x - y = 2  -> x = 4, y = 2.
  Model m(Sense::Minimize);
  const int x = m.add_variable("x", 0, kInfinity, 1.0);
  const int y = m.add_variable("y", 0, kInfinity, 1.0);
  m.add_row("e1", RowType::Equal, 8, {{x, 1.0}, {y, 2.0}});
  m.add_row("e2", RowType::Equal, 2, {{x, 1.0}, {y, -1.0}});
  const Solution s = SimplexSolver().solve(m);
  ASSERT_EQ(s.status, SolveStatus::Optimal);
  EXPECT_NEAR(s.x[static_cast<std::size_t>(x)], 4.0, 1e-8);
  EXPECT_NEAR(s.x[static_cast<std::size_t>(y)], 2.0, 1e-8);
}

TEST(Simplex, DetectsInfeasible) {
  Model m(Sense::Minimize);
  const int x = m.add_variable("x", 0, kInfinity, 1.0);
  m.add_row("a", RowType::LessEqual, 1, {{x, 1.0}});
  m.add_row("b", RowType::GreaterEqual, 2, {{x, 1.0}});
  EXPECT_EQ(SimplexSolver().solve(m).status, SolveStatus::Infeasible);
}

TEST(Simplex, DetectsUnbounded) {
  Model m(Sense::Maximize);
  const int x = m.add_variable("x", 0, kInfinity, 1.0);
  const int y = m.add_variable("y", 0, kInfinity, 0.0);
  m.add_row("r", RowType::GreaterEqual, 1, {{x, 1.0}, {y, 1.0}});
  EXPECT_EQ(SimplexSolver().solve(m).status, SolveStatus::Unbounded);
}

TEST(Simplex, RespectsUpperBounds) {
  Model m(Sense::Maximize);
  m.add_variable("x", 0, 3.0, 1.0);
  const Solution s = SimplexSolver().solve(m);
  ASSERT_EQ(s.status, SolveStatus::Optimal);
  EXPECT_NEAR(s.x[0], 3.0, 1e-9);
}

TEST(Simplex, HandlesFreeVariables) {
  // min x  s.t. x >= -5 via a row (x itself declared free).
  Model m(Sense::Minimize);
  const int x = m.add_variable("x", -kInfinity, kInfinity, 1.0);
  m.add_row("lb", RowType::GreaterEqual, -5, {{x, 1.0}});
  const Solution s = SimplexSolver().solve(m);
  ASSERT_EQ(s.status, SolveStatus::Optimal);
  EXPECT_NEAR(s.x[0], -5.0, 1e-8);
}

TEST(Simplex, ObjectiveOffsetIncluded) {
  Model m(Sense::Minimize);
  m.add_variable("x", 1.0, 1.0, 2.0);
  m.set_objective_offset(100.0);
  const Solution s = SimplexSolver().solve(m);
  ASSERT_EQ(s.status, SolveStatus::Optimal);
  EXPECT_NEAR(s.objective, 102.0, 1e-9);
}

TEST(Simplex, DegenerateProblemTerminates) {
  // Classic degeneracy: multiple rows binding at the origin.
  Model m(Sense::Maximize);
  const int x = m.add_variable("x", 0, kInfinity, 0.75);
  const int y = m.add_variable("y", 0, kInfinity, -150.0);
  const int z = m.add_variable("z", 0, kInfinity, 0.02);
  const int w = m.add_variable("w", 0, kInfinity, -6.0);
  m.add_row("r1", RowType::LessEqual, 0,
            {{x, 0.25}, {y, -60.0}, {z, -0.04}, {w, 9.0}});
  m.add_row("r2", RowType::LessEqual, 0,
            {{x, 0.5}, {y, -90.0}, {z, -0.02}, {w, 3.0}});
  m.add_row("r3", RowType::LessEqual, 1, {{z, 1.0}});
  const Solution s = SimplexSolver().solve(m);
  ASSERT_EQ(s.status, SolveStatus::Optimal);  // Beale's example: z* = 0.05
  EXPECT_NEAR(s.objective, 0.05, 1e-6);
}

TEST(Simplex, RandomFeasibleProblemsReturnFeasiblePoints) {
  Rng rng(21);
  for (int trial = 0; trial < 30; ++trial) {
    Model m(Sense::Minimize);
    const int n = 6;
    for (int v = 0; v < n; ++v) {
      m.add_variable("v", 0.0, rng.uniform(1.0, 10.0), rng.uniform(-2.0, 2.0));
    }
    // Random <= rows with nonnegative coefficients are always feasible at 0.
    for (int r = 0; r < 5; ++r) {
      std::vector<RowEntry> entries;
      for (int v = 0; v < n; ++v) {
        entries.push_back({v, rng.uniform(0.0, 1.0)});
      }
      m.add_row("r", RowType::LessEqual, rng.uniform(1.0, 20.0),
                std::move(entries));
    }
    const Solution s = SimplexSolver().solve(m);
    ASSERT_EQ(s.status, SolveStatus::Optimal) << "trial " << trial;
    EXPECT_TRUE(m.is_feasible(s.x, 1e-6)) << "trial " << trial;
  }
}

// ---- MILP ----

TEST(Milp, SolvesKnapsack) {
  // max 10a + 13b + 7c  s.t. 3a + 4b + 2c <= 6, binaries.
  // Best: a + c (weight 5, value 17) vs b + c (6, 20) -> b + c.
  Model m(Sense::Maximize);
  const int a = m.add_binary("a", 10);
  const int b = m.add_binary("b", 13);
  const int c = m.add_binary("c", 7);
  m.add_row("w", RowType::LessEqual, 6, {{a, 3.0}, {b, 4.0}, {c, 2.0}});
  const Solution s = MilpSolver().solve(m);
  ASSERT_EQ(s.status, SolveStatus::Optimal);
  EXPECT_NEAR(s.objective, 20.0, 1e-6);
  EXPECT_NEAR(s.x[static_cast<std::size_t>(b)], 1.0, 1e-6);
  EXPECT_NEAR(s.x[static_cast<std::size_t>(c)], 1.0, 1e-6);
}

TEST(Milp, IntegerRounding) {
  // max x  s.t. 2x <= 7, x integer -> 3.
  Model m(Sense::Maximize);
  const int x = m.add_variable("x", 0, kInfinity, 1.0, /*is_integer=*/true);
  m.add_row("r", RowType::LessEqual, 7, {{x, 2.0}});
  const Solution s = MilpSolver().solve(m);
  ASSERT_EQ(s.status, SolveStatus::Optimal);
  EXPECT_NEAR(s.x[0], 3.0, 1e-9);
}

TEST(Milp, MixedIntegerContinuous) {
  // min 5y + x  s.t. x >= 2.5 - 10y, x >= 0, y binary.
  // y=0 -> x=2.5 cost 2.5; y=1 -> x=0 cost 5. Optimal 2.5.
  Model m(Sense::Minimize);
  const int x = m.add_variable("x", 0, kInfinity, 1.0);
  const int y = m.add_binary("y", 5.0);
  m.add_row("r", RowType::GreaterEqual, 2.5, {{x, 1.0}, {y, 10.0}});
  const Solution s = MilpSolver().solve(m);
  ASSERT_EQ(s.status, SolveStatus::Optimal);
  EXPECT_NEAR(s.objective, 2.5, 1e-6);
  EXPECT_NEAR(s.x[static_cast<std::size_t>(y)], 0.0, 1e-9);
}

TEST(Milp, InfeasibleIntegerProblem) {
  // 0.4 <= x <= 0.6, x integer: LP feasible, no integer point.
  Model m(Sense::Minimize);
  m.add_variable("x", 0.4, 0.6, 1.0, /*is_integer=*/true);
  const Solution s = MilpSolver().solve(m);
  EXPECT_EQ(s.status, SolveStatus::Infeasible);
}

TEST(Milp, PureLpPassesThrough) {
  Model m(Sense::Minimize);
  const int x = m.add_variable("x", 1.5, 4.0, 1.0);
  (void)x;
  const Solution s = MilpSolver().solve(m);
  ASSERT_EQ(s.status, SolveStatus::Optimal);
  EXPECT_NEAR(s.x[0], 1.5, 1e-9);
}

TEST(Milp, SetCoverSmall) {
  // Cover 4 elements with 3 sets; optimal cover = sets {0, 2} cost 2+3=5
  // vs set 1 alone cannot cover. Check exact optimum.
  Model m(Sense::Minimize);
  const int s0 = m.add_binary("s0", 2.0);  // covers e0, e1
  const int s1 = m.add_binary("s1", 4.0);  // covers e1, e2, e3
  const int s2 = m.add_binary("s2", 3.0);  // covers e2, e3
  m.add_row("e0", RowType::GreaterEqual, 1, {{s0, 1.0}});
  m.add_row("e1", RowType::GreaterEqual, 1, {{s0, 1.0}, {s1, 1.0}});
  m.add_row("e2", RowType::GreaterEqual, 1, {{s1, 1.0}, {s2, 1.0}});
  m.add_row("e3", RowType::GreaterEqual, 1, {{s1, 1.0}, {s2, 1.0}});
  const Solution s = MilpSolver().solve(m);
  ASSERT_EQ(s.status, SolveStatus::Optimal);
  EXPECT_NEAR(s.objective, 5.0, 1e-6);
}

TEST(Milp, RandomProblemsMatchBruteForce) {
  Rng rng(23);
  for (int trial = 0; trial < 20; ++trial) {
    Model m(Sense::Maximize);
    const int n = 8;
    std::vector<double> value(n), weight(n);
    for (int v = 0; v < n; ++v) {
      value[static_cast<std::size_t>(v)] = rng.uniform(1.0, 10.0);
      weight[static_cast<std::size_t>(v)] = rng.uniform(1.0, 5.0);
      m.add_binary("b", value[static_cast<std::size_t>(v)]);
    }
    std::vector<RowEntry> entries;
    for (int v = 0; v < n; ++v) entries.push_back({v, weight[static_cast<std::size_t>(v)]});
    const double cap = rng.uniform(5.0, 15.0);
    m.add_row("w", RowType::LessEqual, cap, std::move(entries));

    const Solution s = MilpSolver().solve(m);
    ASSERT_EQ(s.status, SolveStatus::Optimal) << "trial " << trial;

    // Brute force over all 2^8 subsets.
    double best = 0.0;
    for (int mask = 0; mask < (1 << n); ++mask) {
      double w = 0.0, val = 0.0;
      for (int v = 0; v < n; ++v) {
        if (mask & (1 << v)) {
          w += weight[static_cast<std::size_t>(v)];
          val += value[static_cast<std::size_t>(v)];
        }
      }
      if (w <= cap + 1e-9) best = std::max(best, val);
    }
    EXPECT_NEAR(s.objective, best, 1e-6) << "trial " << trial;
  }
}

TEST(Milp, NodeLimitReturnsIncumbentStatus) {
  // A problem big enough to need branching, with a tiny node budget.
  Model m(Sense::Maximize);
  Rng rng(29);
  std::vector<RowEntry> entries;
  for (int v = 0; v < 20; ++v) {
    m.add_binary("b", rng.uniform(1.0, 10.0));
    entries.push_back({v, rng.uniform(1.0, 5.0)});
  }
  m.add_row("w", RowType::LessEqual, 20.0, std::move(entries));
  MilpOptions opt;
  opt.max_nodes = 5;
  const Solution s = MilpSolver(opt).solve(m);
  // Either it got lucky and proved optimality in <=5 nodes, or it reports
  // an incumbent / node-limit status. It must not claim optimal falsely
  // with unexplored nodes; we can only check the status is sane.
  EXPECT_TRUE(s.status == SolveStatus::Optimal ||
              s.status == SolveStatus::FeasibleIncumbent ||
              s.status == SolveStatus::NodeLimit);
  if (s.ok()) {
    EXPECT_TRUE(m.is_feasible(s.x, 1e-6));
  }
}

TEST(Model, WritesLpFormat) {
  Model m(Sense::Minimize);
  const int x = m.add_variable("x", 0, 4.0, 2.0);
  const int y = m.add_binary("y", -1.0);
  m.add_row("cap", RowType::LessEqual, 7, {{x, 3.0}, {y, -1.0}});
  std::ostringstream os;
  m.write_lp(os);
  const std::string text = os.str();
  EXPECT_NE(text.find("Minimize"), std::string::npos);
  EXPECT_NE(text.find("cap:"), std::string::npos);
  EXPECT_NE(text.find("+ 3 x"), std::string::npos);
  EXPECT_NE(text.find("<= 7"), std::string::npos);
  EXPECT_NE(text.find("General"), std::string::npos);
  EXPECT_NE(text.find("End"), std::string::npos);
}

// Unnamed variables and rows are written as x<index> and c<index>.
TEST(Model, WriteLpNamesUnnamedByIndex) {
  Model m(Sense::Minimize);
  m.add_variable("a", 0, 1.0, 1.0);
  const int x = m.add_variable("", 0, 4.0, 2.0);
  m.add_row("", RowType::LessEqual, 7, {{x, 3.0}});
  m.add_row("", RowType::GreaterEqual, 1, {{x, 1.0}});
  std::ostringstream os;
  m.write_lp(os);
  const std::string text = os.str();
  EXPECT_NE(text.find(" obj: + 1 a + 2 x1\n"), std::string::npos) << text;
  EXPECT_NE(text.find(" c0: + 3 x1 <= 7\n"), std::string::npos) << text;
  EXPECT_NE(text.find(" c1: + 1 x1 >= 1\n"), std::string::npos) << text;
}

TEST(Model, WriteLpHandlesFreeAndUnboundedVars) {
  Model m(Sense::Maximize);
  m.add_variable("free", -kInfinity, kInfinity, 1.0);
  std::ostringstream os;
  m.write_lp(os);
  EXPECT_NE(os.str().find("-inf <= free <= +inf"), std::string::npos);
}

TEST(Model, RejectsVariableIndexOnePastTheLast) {
  Model m(Sense::Minimize);
  const int x = m.add_variable("x", 0.0, 1.0, 1.0);
  const int row = m.add_row("r", RowType::LessEqual, 1.0);
  const int past = m.num_variables();
  EXPECT_THROW(m.add_coeff(row, past, 1.0), std::out_of_range);
  EXPECT_THROW(m.add_row("s", RowType::LessEqual, 1.0, {{past, 1.0}}),
               std::out_of_range);
  EXPECT_THROW(m.add_row("t", RowType::LessEqual, 1.0, {{x, 1.0}, {past, 1.0}}),
               std::out_of_range);
  m.add_coeff(row, x, 1.0);  // the last valid index is accepted
  EXPECT_EQ(m.add_row("u", RowType::LessEqual, 1.0, {{x, 1.0}}), 1);
}

TEST(Model, FeasibilityRejectsEitherBoundAlone) {
  // No rows, so only the bound check can reject a point.
  Model m(Sense::Minimize);
  m.add_variable("x", 1.0, 2.0, 1.0);
  m.add_variable("y", -1.0, 1.0, 1.0);
  const double tol = 1e-6;
  EXPECT_TRUE(m.is_feasible({1.5, 0.0}, tol));
  EXPECT_TRUE(m.is_feasible({1.0 - tol / 2, 1.0 + tol / 2}, tol));
  EXPECT_FALSE(m.is_feasible({0.5, 0.0}, tol));  // below x's lower bound only
  EXPECT_FALSE(m.is_feasible({2.5, 0.0}, tol));  // above x's upper bound only
  EXPECT_FALSE(m.is_feasible({1.5, -1.0 - 2 * tol}, tol));
  EXPECT_FALSE(m.is_feasible({1.5, 1.0 + 2 * tol}, tol));
}

TEST(Model, FeasibilityRejectsAViolatedRow) {
  // Both points sit inside every bound, so only the row can reject one.
  Model m(Sense::Minimize);
  const int x = m.add_binary("x", 1.0);
  const int y = m.add_binary("y", 1.0);
  m.add_row("cover", RowType::GreaterEqual, 1.0, {{x, 1.0}, {y, 1.0}});
  EXPECT_TRUE(m.is_feasible({1.0, 0.0}, 1e-6));
  EXPECT_FALSE(m.is_feasible({0.0, 0.0}, 1e-6));
}

}  // namespace
}  // namespace eprons::lp
