#include "lp/model.h"

#include <cmath>
#include <ostream>
#include <stdexcept>
#include <string>

namespace eprons::lp {

namespace {

/// `name`, or `prefix` and the index when it is empty. Built by appending:
/// GCC 12 reports a false -Wrestrict on "x" + std::to_string(i).
std::string name_or_index(const std::string& name, char prefix, int index) {
  if (!name.empty()) return name;
  std::string out(1, prefix);
  out += std::to_string(index);
  return out;
}

}  // namespace

int Model::add_variable(std::string name, double lower, double upper,
                        double objective, bool is_integer) {
  if (lower > upper) throw std::invalid_argument("variable bounds crossed");
  vars_.push_back(Variable{std::move(name), lower, upper, objective,
                           is_integer});
  return static_cast<int>(vars_.size()) - 1;
}

int Model::add_binary(std::string name, double objective) {
  return add_variable(std::move(name), 0.0, 1.0, objective,
                      /*is_integer=*/true);
}

int Model::add_row(std::string name, RowType type, double rhs) {
  rows_.push_back(Row{std::move(name), type, rhs, {}});
  return static_cast<int>(rows_.size()) - 1;
}

void Model::add_coeff(int row, int var, double coeff) {
  if (row < 0 || row >= num_rows()) throw std::out_of_range("bad row");
  if (var < 0 || var >= num_variables()) throw std::out_of_range("bad var");
  if (coeff == 0.0) return;
  rows_[static_cast<std::size_t>(row)].entries.push_back(RowEntry{var, coeff});
}

int Model::add_row(std::string name, RowType type, double rhs,
                   std::vector<RowEntry> entries) {
  for (const RowEntry& e : entries) {
    if (e.var < 0 || e.var >= num_variables()) {
      throw std::out_of_range("bad var in row");
    }
  }
  rows_.push_back(Row{std::move(name), type, rhs, std::move(entries)});
  return static_cast<int>(rows_.size()) - 1;
}

double Model::objective_value(const std::vector<double>& x) const {
  double value = offset_;
  for (std::size_t i = 0; i < vars_.size(); ++i) {
    value += vars_[i].objective * x[i];
  }
  return value;
}

bool Model::is_feasible(const std::vector<double>& x, double tol) const {
  if (x.size() != vars_.size()) return false;
  for (std::size_t i = 0; i < vars_.size(); ++i) {
    if (x[i] < vars_[i].lower - tol || x[i] > vars_[i].upper + tol) {
      return false;
    }
  }
  for (const Row& row : rows_) {
    double lhs = 0.0;
    for (const RowEntry& e : row.entries) {
      lhs += e.coeff * x[static_cast<std::size_t>(e.var)];
    }
    switch (row.type) {
      case RowType::LessEqual:
        if (lhs > row.rhs + tol) return false;
        break;
      case RowType::Equal:
        if (std::abs(lhs - row.rhs) > tol) return false;
        break;
      case RowType::GreaterEqual:
        if (lhs < row.rhs - tol) return false;
        break;
    }
  }
  return true;
}

void Model::write_lp(std::ostream& os) const {
  auto var_name = [&](int v) {
    return name_or_index(vars_[static_cast<std::size_t>(v)].name, 'x', v);
  };
  os << (sense_ == Sense::Minimize ? "Minimize" : "Maximize") << "\n obj:";
  bool any = false;
  for (int v = 0; v < num_variables(); ++v) {
    const double c = vars_[static_cast<std::size_t>(v)].objective;
    if (c == 0.0) continue;
    os << (c >= 0 ? " + " : " - ") << std::abs(c) << ' ' << var_name(v);
    any = true;
  }
  if (!any) os << " 0";
  os << "\nSubject To\n";
  for (int r = 0; r < num_rows(); ++r) {
    const Row& row = rows_[static_cast<std::size_t>(r)];
    os << ' ' << name_or_index(row.name, 'c', r) << ':';
    for (const RowEntry& e : row.entries) {
      os << (e.coeff >= 0 ? " + " : " - ") << std::abs(e.coeff) << ' '
         << var_name(e.var);
    }
    switch (row.type) {
      case RowType::LessEqual: os << " <= "; break;
      case RowType::Equal: os << " = "; break;
      case RowType::GreaterEqual: os << " >= "; break;
    }
    os << row.rhs << "\n";
  }
  os << "Bounds\n";
  for (int v = 0; v < num_variables(); ++v) {
    const Variable& var = vars_[static_cast<std::size_t>(v)];
    os << ' ';
    if (var.lower <= -kInfinity / 2) {
      os << "-inf";
    } else {
      os << var.lower;
    }
    os << " <= " << var_name(v) << " <= ";
    if (var.upper >= kInfinity / 2) {
      os << "+inf";
    } else {
      os << var.upper;
    }
    os << "\n";
  }
  bool has_int = false;
  for (const Variable& var : vars_) has_int |= var.is_integer;
  if (has_int) {
    os << "General\n";
    for (int v = 0; v < num_variables(); ++v) {
      if (vars_[static_cast<std::size_t>(v)].is_integer) {
        os << ' ' << var_name(v) << "\n";
      }
    }
  }
  os << "End\n";
}

}  // namespace eprons::lp
