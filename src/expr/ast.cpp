#include "expr/ast.hpp"

#include <algorithm>
#include <sstream>

#include "support/error.hpp"

namespace sekitei::expr {

double TableData::eval(double x) const {
  SEKITEI_ASSERT(!xs.empty() && xs.size() == ys.size());
  if (x <= xs.front()) return ys.front();
  if (x >= xs.back()) return ys.back();
  const auto it = std::upper_bound(xs.begin(), xs.end(), x);
  const std::size_t i = static_cast<std::size_t>(it - xs.begin());
  const double x0 = xs[i - 1], x1 = xs[i];
  const double y0 = ys[i - 1], y1 = ys[i];
  const double t = (x - x0) / (x1 - x0);
  return y0 + t * (y1 - y0);
}

bool TableData::is_monotone_nondecreasing() const {
  for (std::size_t i = 1; i < ys.size(); ++i) {
    if (ys[i] < ys[i - 1]) return false;
  }
  return true;
}

bool TableData::is_monotone_nonincreasing() const {
  for (std::size_t i = 1; i < ys.size(); ++i) {
    if (ys[i] > ys[i - 1]) return false;
  }
  return true;
}

NodePtr make_const(double v) {
  auto n = std::make_unique<Node>();
  n->kind = NodeKind::Const;
  n->value = v;
  return n;
}

NodePtr make_var(RoleRef ref) {
  auto n = std::make_unique<Node>();
  n->kind = NodeKind::Var;
  n->ref = std::move(ref);
  return n;
}

NodePtr make_unary(NodeKind k, NodePtr a) {
  auto n = std::make_unique<Node>();
  n->kind = k;
  n->height = a->height + 1;
  n->a = std::move(a);
  return n;
}

NodePtr make_binary(NodeKind k, NodePtr a, NodePtr b) {
  auto n = std::make_unique<Node>();
  n->kind = k;
  n->height = std::max(a->height, b->height) + 1;
  n->a = std::move(a);
  n->b = std::move(b);
  return n;
}

NodePtr clone(const Node& n) {
  auto out = std::make_unique<Node>();
  out->kind = n.kind;
  out->value = n.value;
  out->ref = n.ref;
  out->table = n.table;
  out->height = n.height;
  if (n.a) out->a = clone(*n.a);
  if (n.b) out->b = clone(*n.b);
  return out;
}

std::string Node::str() const {
  std::ostringstream os;
  switch (kind) {
    case NodeKind::Const: os << value; break;
    case NodeKind::Var: os << ref.str(); break;
    case NodeKind::Neg: os << "-(" << a->str() << ")"; break;
    case NodeKind::Add: os << "(" << a->str() << " + " << b->str() << ")"; break;
    case NodeKind::Sub: os << "(" << a->str() << " - " << b->str() << ")"; break;
    case NodeKind::Mul: os << "(" << a->str() << " * " << b->str() << ")"; break;
    case NodeKind::Div: os << "(" << a->str() << " / " << b->str() << ")"; break;
    case NodeKind::Min: os << "min(" << a->str() << ", " << b->str() << ")"; break;
    case NodeKind::Max: os << "max(" << a->str() << ", " << b->str() << ")"; break;
    case NodeKind::Table: {
      os << "table(" << a->str() << ";";
      for (std::size_t i = 0; i < table.xs.size(); ++i) {
        os << (i ? ", " : " ") << table.xs[i] << ":" << table.ys[i];
      }
      os << ")";
      break;
    }
  }
  return os.str();
}

const char* cmp_name(CmpOp op) {
  switch (op) {
    case CmpOp::Ge: return ">=";
    case CmpOp::Le: return "<=";
    case CmpOp::Gt: return ">";
    case CmpOp::Lt: return "<";
    case CmpOp::Eq: return "==";
    case CmpOp::Ne: return "!=";
  }
  return "?";
}

std::string ConditionAst::str() const {
  return lhs->str() + " " + cmp_name(op) + " " + rhs->str();
}

std::string EffectAst::str() const {
  const char* op_s = op == AssignOp::Set ? ":=" : (op == AssignOp::Add ? "+=" : "-=");
  return target.str() + " " + op_s + " " + value->str();
}

}  // namespace sekitei::expr
