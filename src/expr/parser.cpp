#include "expr/parser.hpp"

#include <cstdint>
#include <sstream>
#include <string>

#include "support/error.hpp"

namespace sekitei::expr {

namespace {

// Deepest formula the parser accepts, counted two ways: the nesting of
// parentheses, unary minus and builtins (`nest`, the parser's own
// recursion), and the height of the tree it builds (a flat `1+1+...+1` is a
// left-deep chain as tall as it is long).  Every AST walker, and the
// destructor, recurses on the tree, so past this cap a hostile formula
// would overflow the stack.
constexpr std::uint32_t kMaxDepth = 256;

void check_depth(std::uint32_t depth, const Lexer& lex) {
  if (depth > kMaxDepth) {
    raise("expr-depth: formula nests deeper than " + std::to_string(kMaxDepth) +
          " levels at line " + std::to_string(lex.line()));
  }
}

NodePtr capped(NodePtr n, const Lexer& lex) {
  check_depth(n->height, lex);
  return n;
}

NodePtr parse_factor(Lexer& lex, const ParamTable& params, std::uint32_t nest);

NodePtr parse_term(Lexer& lex, const ParamTable& params, std::uint32_t nest) {
  NodePtr n = parse_factor(lex, params, nest);
  for (;;) {
    if (lex.accept(Tok::Star)) {
      n = make_binary(NodeKind::Mul, std::move(n), parse_factor(lex, params, nest));
    } else if (lex.accept(Tok::Slash)) {
      n = make_binary(NodeKind::Div, std::move(n), parse_factor(lex, params, nest));
    } else {
      return n;
    }
    n = capped(std::move(n), lex);
  }
}

NodePtr parse_sum(Lexer& lex, const ParamTable& params, std::uint32_t nest) {
  NodePtr n = parse_term(lex, params, nest);
  for (;;) {
    if (lex.accept(Tok::Plus)) {
      n = make_binary(NodeKind::Add, std::move(n), parse_term(lex, params, nest));
    } else if (lex.accept(Tok::Minus)) {
      n = make_binary(NodeKind::Sub, std::move(n), parse_term(lex, params, nest));
    } else {
      return n;
    }
    n = capped(std::move(n), lex);
  }
}

RoleRef parse_role_tail(Lexer& lex, std::string scope) {
  lex.expect(Tok::Dot);
  RoleRef ref;
  ref.scope = std::move(scope);
  ref.prop = lex.expect(Tok::Ident).text;
  ref.primed = lex.accept(Tok::Prime);
  return ref;
}

NodePtr parse_factor(Lexer& lex, const ParamTable& params, std::uint32_t nest) {
  check_depth(++nest, lex);
  const Token& t = lex.peek();
  switch (t.kind) {
    case Tok::Number: {
      const double v = lex.next().number;
      return make_const(v);
    }
    case Tok::Minus: {
      lex.next();
      return capped(make_unary(NodeKind::Neg, parse_factor(lex, params, nest)), lex);
    }
    case Tok::LParen: {
      lex.next();
      NodePtr n = parse_sum(lex, params, nest);
      lex.expect(Tok::RParen);
      return n;
    }
    case Tok::Ident: {
      const std::string name = lex.next().text;
      if (name == "min" || name == "max") {
        lex.expect(Tok::LParen);
        NodePtr a = parse_sum(lex, params, nest);
        lex.expect(Tok::Comma);
        NodePtr b = parse_sum(lex, params, nest);
        lex.expect(Tok::RParen);
        return capped(make_binary(name == "min" ? NodeKind::Min : NodeKind::Max, std::move(a),
                                  std::move(b)),
                      lex);
      }
      if (name == "table") {
        lex.expect(Tok::LParen);
        NodePtr inner = parse_sum(lex, params, nest);
        lex.expect(Tok::Semi);
        TableData tab;
        do {
          const double x = lex.expect(Tok::Number).number;
          lex.expect(Tok::Colon);
          double sign = lex.accept(Tok::Minus) ? -1.0 : 1.0;
          const double y = sign * lex.expect(Tok::Number).number;
          if (!tab.xs.empty() && x <= tab.xs.back()) {
            raise("table breakpoints must be strictly increasing (line " +
                  std::to_string(lex.line()) + ")");
          }
          tab.xs.push_back(x);
          tab.ys.push_back(y);
        } while (lex.accept(Tok::Comma));
        lex.expect(Tok::RParen);
        auto n = capped(make_unary(NodeKind::Table, std::move(inner)), lex);
        n->table = std::move(tab);
        return n;
      }
      if (lex.peek().kind == Tok::Dot) {
        return make_var(parse_role_tail(lex, name));
      }
      // Bare identifier: a named parameter, folded to a constant.
      auto it = params.find(name);
      if (it == params.end()) {
        raise("unknown parameter '" + name + "' at line " + std::to_string(t.line));
      }
      return make_const(it->second);
    }
    default: {
      std::ostringstream os;
      os << "parse error at line " << t.line << ": expected an expression, found "
         << tok_name(t.kind);
      raise(os.str());
    }
  }
}

}  // namespace

NodePtr parse_expr(Lexer& lex, const ParamTable& params) { return parse_sum(lex, params, 0); }

ConditionAst parse_condition(Lexer& lex, const ParamTable& params) {
  ConditionAst c;
  c.lhs = parse_expr(lex, params);
  switch (lex.peek().kind) {
    case Tok::Ge: c.op = CmpOp::Ge; break;
    case Tok::Le: c.op = CmpOp::Le; break;
    case Tok::Gt: c.op = CmpOp::Gt; break;
    case Tok::Lt: c.op = CmpOp::Lt; break;
    case Tok::EqEq: c.op = CmpOp::Eq; break;
    case Tok::Ne: c.op = CmpOp::Ne; break;
    default:
      raise("parse error at line " + std::to_string(lex.line()) +
            ": expected a comparison operator");
  }
  lex.next();
  c.rhs = parse_expr(lex, params);
  return c;
}

EffectAst parse_effect(Lexer& lex, const ParamTable& params) {
  EffectAst e;
  const std::string scope = lex.expect(Tok::Ident).text;
  e.target = parse_role_tail(lex, scope);
  switch (lex.peek().kind) {
    case Tok::Assign: e.op = AssignOp::Set; break;
    case Tok::PlusEq: e.op = AssignOp::Add; break;
    case Tok::MinusEq: e.op = AssignOp::Sub; break;
    default:
      raise("parse error at line " + std::to_string(lex.line()) +
            ": expected ':=', '+=' or '-='");
  }
  lex.next();
  e.value = parse_expr(lex, params);
  return e;
}

NodePtr parse_expr_string(const std::string& src, const ParamTable& params) {
  Lexer lex(src);
  NodePtr n = parse_expr(lex, params);
  if (!lex.at_end()) raise("trailing tokens after expression: " + src);
  return n;
}

ConditionAst parse_condition_string(const std::string& src, const ParamTable& params) {
  Lexer lex(src);
  ConditionAst c = parse_condition(lex, params);
  if (!lex.at_end()) raise("trailing tokens after condition: " + src);
  return c;
}

}  // namespace sekitei::expr
