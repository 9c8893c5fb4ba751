// Linear / mixed-integer program model builder.
//
// The consolidation optimizer (paper section IV-B, eqs. (2)-(9)) is expressed
// against this interface; `SimplexSolver` solves continuous relaxations and
// `MilpSolver` adds branch-and-bound for the binary ON/OFF and path-choice
// variables. The paper used CPLEX; no LP solver is available on this
// platform, so this module is a from-scratch substitute (see DESIGN.md).
#pragma once

#include <iosfwd>
#include <string>
#include <vector>

namespace eprons::lp {

enum class Sense { Minimize, Maximize };
enum class RowType { LessEqual, Equal, GreaterEqual };

inline constexpr double kInfinity = 1e30;

struct Variable {
  std::string name;
  double lower = 0.0;
  double upper = kInfinity;
  double objective = 0.0;
  bool is_integer = false;
};

struct RowEntry {
  int var = -1;
  double coeff = 0.0;
};

struct Row {
  std::string name;
  RowType type = RowType::LessEqual;
  double rhs = 0.0;
  std::vector<RowEntry> entries;
};

class Model {
 public:
  explicit Model(Sense sense = Sense::Minimize) : sense_(sense) {}

  Sense sense() const { return sense_; }

  /// Objective constant (e.g. the N * Pserver term in eq. (2)).
  void set_objective_offset(double value) { offset_ = value; }

  int add_variable(std::string name, double lower, double upper,
                   double objective, bool is_integer = false);
  /// Convenience: binary 0/1 variable.
  int add_binary(std::string name, double objective);

  int add_row(std::string name, RowType type, double rhs);
  void add_coeff(int row, int var, double coeff);
  /// Adds a complete row in one call.
  int add_row(std::string name, RowType type, double rhs,
              std::vector<RowEntry> entries);

  int num_variables() const { return static_cast<int>(vars_.size()); }
  int num_rows() const { return static_cast<int>(rows_.size()); }
  const Variable& variable(int i) const {
    return vars_[static_cast<std::size_t>(i)];
  }
  Variable& variable(int i) { return vars_[static_cast<std::size_t>(i)]; }
  const Row& row(int i) const { return rows_[static_cast<std::size_t>(i)]; }
  const std::vector<Variable>& variables() const { return vars_; }
  const std::vector<Row>& rows() const { return rows_; }

  /// Evaluates the objective (including offset) at a point.
  double objective_value(const std::vector<double>& x) const;

  /// Checks feasibility of a point against all rows and bounds.
  bool is_feasible(const std::vector<double>& x, double tol = 1e-6) const;

  /// Writes the model in CPLEX LP file format, so instances can be
  /// cross-checked against an external solver (the paper used CPLEX).
  void write_lp(std::ostream& os) const;

 private:
  Sense sense_;
  double offset_ = 0.0;
  std::vector<Variable> vars_;
  std::vector<Row> rows_;
};

enum class SolveStatus {
  Optimal,
  Infeasible,
  Unbounded,
  IterationLimit,
  NodeLimit,
  /// Branch-and-bound stopped early but holds a feasible incumbent.
  FeasibleIncumbent,
};

struct Solution {
  SolveStatus status = SolveStatus::Infeasible;
  std::vector<double> x;
  double objective = 0.0;

  bool ok() const {
    return status == SolveStatus::Optimal ||
           status == SolveStatus::FeasibleIncumbent;
  }
};

}  // namespace eprons::lp
