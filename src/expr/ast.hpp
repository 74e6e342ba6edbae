// Expression AST for specification formulae.
//
// Formulae reference *role variables*: `<scope>.<property>` optionally primed
// (`link.lbw'` = value after the operation, Fig. 6).  Scopes are interface
// names from the enclosing component/interface spec plus the builtins `node`
// and `link`.  Role variables are resolved to concrete located variables at
// grounding time; the AST itself is network-independent.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

namespace sekitei::expr {

/// A role-variable reference, e.g. {scope:"T", prop:"ibw", primed:false}.
struct RoleRef {
  std::string scope;
  std::string prop;
  bool primed = false;

  friend bool operator==(const RoleRef& a, const RoleRef& b) {
    return a.scope == b.scope && a.prop == b.prop && a.primed == b.primed;
  }

  [[nodiscard]] std::string str() const {
    return scope + "." + prop + (primed ? "'" : "");
  }
};

/// A profiled lookup table: piecewise-linear interpolation through sorted
/// (x, y) breakpoints, clamped outside the range.  This is how real component
/// behaviour ("a table of profiled values", Section 3) enters a formula.
struct TableData {
  std::vector<double> xs;  // strictly increasing
  std::vector<double> ys;

  [[nodiscard]] double eval(double x) const;
  /// True when ys is non-decreasing in x (the paper's monotonicity premise).
  [[nodiscard]] bool is_monotone_nondecreasing() const;
  [[nodiscard]] bool is_monotone_nonincreasing() const;
};

enum class NodeKind : unsigned char {
  Const,   // numeric literal or named parameter (resolved at parse time)
  Var,     // role variable
  Neg,     // unary minus
  Add, Sub, Mul, Div,
  Min, Max,  // binary builtins
  Table,     // table(child; x:y, ...)
};

struct Node;
using NodePtr = std::unique_ptr<Node>;

struct Node {
  NodeKind kind = NodeKind::Const;
  double value = 0.0;    // Const
  RoleRef ref;           // Var
  TableData table;       // Table
  NodePtr a, b;          // operands
  std::uint32_t height = 1;  // longest path to a leaf, counting this node

  [[nodiscard]] std::string str() const;
};

[[nodiscard]] NodePtr make_const(double v);
[[nodiscard]] NodePtr make_var(RoleRef ref);
[[nodiscard]] NodePtr make_unary(NodeKind k, NodePtr a);
[[nodiscard]] NodePtr make_binary(NodeKind k, NodePtr a, NodePtr b);
[[nodiscard]] NodePtr clone(const Node& n);

/// Comparison operators allowed in `conditions` blocks.
enum class CmpOp : unsigned char { Ge, Le, Gt, Lt, Eq, Ne };

[[nodiscard]] const char* cmp_name(CmpOp op);

/// A condition `lhs <cmp> rhs`.
struct ConditionAst {
  NodePtr lhs;
  CmpOp op = CmpOp::Ge;
  NodePtr rhs;

  [[nodiscard]] std::string str() const;
};

/// Effect assignment operators.
enum class AssignOp : unsigned char { Set, Add, Sub };  // :=  +=  -=

/// An effect `target <op> expr`.
struct EffectAst {
  RoleRef target;
  AssignOp op = AssignOp::Set;
  NodePtr value;

  [[nodiscard]] std::string str() const;
};

}  // namespace sekitei::expr
