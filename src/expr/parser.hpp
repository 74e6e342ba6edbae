// Recursive-descent parser for expressions, conditions and effects.
//
// Grammar (precedence climbing):
//   expr    := term (('+'|'-') term)*
//   term    := factor (('*'|'/') factor)*
//   factor  := NUMBER | '-' factor | '(' expr ')'
//            | 'min' '(' expr ',' expr ')' | 'max' '(' expr ',' expr ')'
//            | 'table' '(' expr ';' NUMBER ':' NUMBER (',' NUMBER ':' NUMBER)* ')'
//            | IDENT '.' IDENT ['\'']              // role variable
//            | IDENT                               // named parameter
//   cond    := expr ('>='|'<='|'>'|'<'|'=='|'!=') expr
//   effect  := IDENT '.' IDENT ['\''] (':='|'+='|'-=') expr
//
// Named parameters (e.g. a tunable cost weight `lambda`) are resolved at
// parse time against a caller-supplied table and folded into constants.
//
// A formula that nests deeper than 256 levels — parentheses, unary minus and
// builtins, or a chain of binary operators (`1+1+...+1`) — raises an
// `expr-depth:` Error instead of building a tree the recursive walkers could
// not traverse.
#pragma once

#include <map>
#include <string>

#include "expr/ast.hpp"
#include "expr/lexer.hpp"

namespace sekitei::expr {

/// Values for named parameters referenced by bare identifier.
using ParamTable = std::map<std::string, double, std::less<>>;

[[nodiscard]] NodePtr parse_expr(Lexer& lex, const ParamTable& params);
[[nodiscard]] ConditionAst parse_condition(Lexer& lex, const ParamTable& params);
[[nodiscard]] EffectAst parse_effect(Lexer& lex, const ParamTable& params);

/// Convenience: parse a complete expression / condition from a string.
[[nodiscard]] NodePtr parse_expr_string(const std::string& src, const ParamTable& params = {});
[[nodiscard]] ConditionAst parse_condition_string(const std::string& src,
                                                  const ParamTable& params = {});

}  // namespace sekitei::expr
