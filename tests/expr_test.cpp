// Tests for the expression language: lexing, parsing, compilation, scalar and
// interval evaluation, profiled tables, and monotonicity analysis.
#include <gtest/gtest.h>

#include <map>

#include "expr/monotonicity.hpp"
#include "expr/parser.hpp"
#include "expr/program.hpp"
#include "support/error.hpp"
#include "support/rng.hpp"

namespace sekitei::expr {
namespace {

/// Resolves role variables to slots in spelling order of first use.
class TestResolver {
 public:
  std::uint32_t operator()(const RoleRef& ref) {
    const std::string key = ref.str();
    auto it = slots_.find(key);
    if (it != slots_.end()) return it->second;
    const std::uint32_t s = static_cast<std::uint32_t>(slots_.size());
    slots_.emplace(key, s);
    return s;
  }
  [[nodiscard]] std::uint32_t slot(const std::string& key) const { return slots_.at(key); }
  [[nodiscard]] std::size_t count() const { return slots_.size(); }

 private:
  std::map<std::string, std::uint32_t> slots_;
};

Program compile_str(const std::string& src, TestResolver& res,
                    const ParamTable& params = {}) {
  NodePtr ast = parse_expr_string(src, params);
  return Program::compile(*ast, std::ref(res));
}

TEST(Parser, NumbersAndPrecedence) {
  TestResolver res;
  Program p = compile_str("1 + 2 * 3 - 4 / 2", res);
  EXPECT_TRUE(p.is_constant());
  EXPECT_DOUBLE_EQ(p.eval({}), 5.0);
}

TEST(Parser, ParenthesesAndUnaryMinus) {
  TestResolver res;
  Program p = compile_str("-(1 + 2) * -2", res);
  EXPECT_DOUBLE_EQ(p.eval({}), 6.0);
}

TEST(Parser, RoleVariables) {
  TestResolver res;
  Program p = compile_str("(T.ibw + I.ibw) / 5", res);
  const double slots[] = {70.0, 30.0};  // T.ibw, I.ibw in first-use order
  EXPECT_DOUBLE_EQ(p.eval(slots), 20.0);
  EXPECT_EQ(p.slot_count(), 2u);
}

TEST(Parser, PrimedVariablesAreDistinct) {
  TestResolver res;
  Program p = compile_str("M.ibw' - M.ibw", res);
  EXPECT_EQ(res.count(), 2u);
  const double slots[] = {90.0, 100.0};  // M.ibw', M.ibw
  EXPECT_DOUBLE_EQ(p.eval(slots), -10.0);
}

TEST(Parser, MinMaxBuiltins) {
  TestResolver res;
  Program p = compile_str("min(M.ibw, link.lbw) + max(1, 2)", res);
  const double slots[] = {100.0, 70.0};
  EXPECT_DOUBLE_EQ(p.eval(slots), 72.0);
}

TEST(Parser, NamedParameters) {
  TestResolver res;
  Program p = compile_str("lambda * T.ibw", res, {{"lambda", 0.25}});
  const double slots[] = {80.0};
  EXPECT_DOUBLE_EQ(p.eval(slots), 20.0);
}

TEST(Parser, UnknownParameterRaises) {
  EXPECT_THROW(parse_expr_string("bogus * 2"), Error);
}

TEST(Parser, MalformedExpressionRaises) {
  EXPECT_THROW(parse_expr_string("1 + * 2"), Error);
  EXPECT_THROW(parse_expr_string("min(1,)"), Error);
  EXPECT_THROW(parse_expr_string("(1"), Error);
}

TEST(Parser, TrailingTokensRaise) {
  EXPECT_THROW(parse_expr_string("1 + 2 3"), Error);
}

TEST(Parser, Conditions) {
  ConditionAst c = parse_condition_string("node.cpu >= (T.ibw + I.ibw) / 5");
  EXPECT_EQ(c.op, CmpOp::Ge);
  EXPECT_EQ(c.str(), "node.cpu >= ((T.ibw + I.ibw) / 5)");
}

TEST(Parser, EqualityCondition) {
  ConditionAst c = parse_condition_string("T.ibw * 3 == I.ibw * 7");
  EXPECT_EQ(c.op, CmpOp::Eq);
}

TEST(Parser, Effects) {
  Lexer lex("M.ibw' := min(M.ibw, link.lbw)");
  EffectAst e = parse_effect(lex, {});
  EXPECT_EQ(e.target.scope, "M");
  EXPECT_EQ(e.target.prop, "ibw");
  EXPECT_TRUE(e.target.primed);
  EXPECT_EQ(e.op, AssignOp::Set);
}

TEST(Parser, CompoundAssignments) {
  Lexer lex("link.lbw -= min(M.ibw, link.lbw)");
  EffectAst e = parse_effect(lex, {});
  EXPECT_EQ(e.op, AssignOp::Sub);
  EXPECT_FALSE(e.target.primed);
}

TEST(Table, PiecewiseLinearEval) {
  TestResolver res;
  // Profiled CPU usage: flat tail outside breakpoints, linear inside.
  Program p = compile_str("table(M.ibw; 0:0, 100:20, 200:60)", res);
  double slot[1];
  slot[0] = 0;
  EXPECT_DOUBLE_EQ(p.eval(slot), 0.0);
  slot[0] = 50;
  EXPECT_DOUBLE_EQ(p.eval(slot), 10.0);
  slot[0] = 150;
  EXPECT_DOUBLE_EQ(p.eval(slot), 40.0);
  slot[0] = 500;  // clamped
  EXPECT_DOUBLE_EQ(p.eval(slot), 60.0);
}

TEST(Table, NonIncreasingBreakpointsRaise) {
  EXPECT_THROW(parse_expr_string("table(M.ibw; 10:1, 10:2)"), Error);
  EXPECT_THROW(parse_expr_string("table(M.ibw; 10:1, 5:2)"), Error);
}

TEST(IntervalEval, LinearFormula) {
  TestResolver res;
  Program p = compile_str("(T.ibw + I.ibw) / 5", res);
  const Interval slots[] = {{63, 70}, {27, 30}};
  const Interval r = p.eval_interval(slots);
  EXPECT_DOUBLE_EQ(r.lo, 18.0);
  EXPECT_DOUBLE_EQ(r.hi, 20.0);
}

TEST(IntervalEval, CrossEffectFormula) {
  TestResolver res;
  Program p = compile_str("min(M.ibw, link.lbw)", res);
  const Interval slots[] = {{90, 100}, {0, 70}};
  const Interval r = p.eval_interval(slots);
  EXPECT_DOUBLE_EQ(r.lo, 0.0);
  EXPECT_DOUBLE_EQ(r.hi, 70.0);
}

TEST(IntervalEval, TableOverInterval) {
  TestResolver res;
  // Non-monotone profiled table: interior breakpoint is the max.
  Program p = compile_str("table(M.ibw; 0:0, 50:100, 100:20)", res);
  const Interval slots[] = {{10, 90}};
  const Interval r = p.eval_interval(slots);
  EXPECT_DOUBLE_EQ(r.hi, 100.0);  // hit at breakpoint x=50
  EXPECT_DOUBLE_EQ(r.lo, 20.0);   // f(10)=20, f(90)=36 -> min at x=10
}

TEST(IntervalEval, PropertySoundnessRandomized) {
  // For random formulae over random boxes, scalar evaluation at random
  // in-box points stays inside the interval result.
  TestResolver res;
  Program p = compile_str(
      "min(T.ibw, link.lbw) + max(I.ibw / 2, 3) * 2 - I.ibw / 7 + "
      "table(T.ibw; 0:0, 100:50)",
      res);
  SplitMix64 rng(7);
  for (int iter = 0; iter < 2000; ++iter) {
    Interval box[3];
    double pts[3];
    for (int v = 0; v < 3; ++v) {
      const double a = rng.uniform(0, 120), b = rng.uniform(0, 120);
      box[v] = {std::min(a, b), std::max(a, b)};
      pts[v] = rng.uniform(box[v].lo, box[v].hi);
    }
    const Interval r = p.eval_interval(box);
    const double s = p.eval(pts);
    EXPECT_LE(r.lo, s + 1e-9);
    EXPECT_GE(r.hi, s - 1e-9);
  }
}

TEST(Condition, SatisfiableVsCertain) {
  TestResolver res;
  ConditionAst ast = parse_condition_string("node.cpu >= M.ibw / 5");
  CompiledCondition c;
  c.lhs = Program::compile(*ast.lhs, std::ref(res));
  c.op = ast.op;
  c.rhs = Program::compile(*ast.rhs, std::ref(res));

  // cpu in [0,30], M in [90,100]: usage in [18,20]; satisfiable (30 >= 18)
  // but not certain (0 < 20).
  const Interval opt[] = {{0, 30}, {90, 100}};
  EXPECT_TRUE(c.satisfiable(opt));
  EXPECT_FALSE(c.certain(opt));

  // cpu exactly 30: certain.
  const Interval sure[] = {{30, 30}, {90, 100}};
  EXPECT_TRUE(c.certain(sure));

  // cpu in [0,10]: unsatisfiable (10 < 18).
  const Interval no[] = {{0, 10}, {90, 100}};
  EXPECT_FALSE(c.satisfiable(no));
}

TEST(Condition, EqualityOverIntervals) {
  TestResolver res;
  ConditionAst ast = parse_condition_string("T.ibw * 3 == I.ibw * 7");
  CompiledCondition c;
  c.lhs = Program::compile(*ast.lhs, std::ref(res));
  c.op = ast.op;
  c.rhs = Program::compile(*ast.rhs, std::ref(res));

  const Interval ok[] = {{63, 70}, {27, 30}};  // 3T in [189,210], 7I in [189,210]
  EXPECT_TRUE(c.satisfiable(ok));
  const Interval no[] = {{0, 10}, {27, 30}};  // 3T max 30 < 7I min 189
  EXPECT_FALSE(c.satisfiable(no));
}

TEST(Condition, ConcreteHoldsWithTolerance) {
  TestResolver res;
  ConditionAst ast = parse_condition_string("T.ibw * 3 == I.ibw * 7");
  CompiledCondition c;
  c.lhs = Program::compile(*ast.lhs, std::ref(res));
  c.op = ast.op;
  c.rhs = Program::compile(*ast.rhs, std::ref(res));
  const double v[] = {70.0, 30.0};
  EXPECT_TRUE(c.holds(v));
  const double w[] = {70.0, 31.0};
  EXPECT_FALSE(c.holds(w));
}

TEST(Effect, ApplyScalarAndInterval) {
  TestResolver res;
  Lexer lex("link.lbw -= min(M.ibw, link.lbw)");
  EffectAst ast = parse_effect(lex, {});
  CompiledEffect e;
  e.target = res(ast.target);
  e.op = ast.op;
  e.value = Program::compile(*ast.value, std::ref(res));

  double s[] = {150.0, 65.0};  // link.lbw, M.ibw
  e.apply(s);
  EXPECT_DOUBLE_EQ(s[0], 85.0);

  Interval iv[] = {{0, 150}, {60, 65}};
  e.apply_interval(iv);
  EXPECT_DOUBLE_EQ(iv[0].lo, -65.0);  // optimistic: worst-case consumption
  EXPECT_DOUBLE_EQ(iv[0].hi, 150.0);
}

TEST(Monotonicity, LinearCombination) {
  NodePtr ast = parse_expr_string("(T.ibw + I.ibw) / 5");
  auto dirs = analyze(*ast);
  EXPECT_EQ(dirs.at("T.ibw"), Direction::NonDecreasing);
  EXPECT_EQ(dirs.at("I.ibw"), Direction::NonDecreasing);
  EXPECT_TRUE(is_monotone(*ast));
}

TEST(Monotonicity, SubtractionFlips) {
  NodePtr ast = parse_expr_string("node.cpu - M.ibw / 5");
  auto dirs = analyze(*ast);
  EXPECT_EQ(dirs.at("node.cpu"), Direction::NonDecreasing);
  EXPECT_EQ(dirs.at("M.ibw"), Direction::NonIncreasing);
}

TEST(Monotonicity, MinOfVariables) {
  NodePtr ast = parse_expr_string("min(M.ibw, link.lbw)");
  auto dirs = analyze(*ast);
  EXPECT_EQ(dirs.at("M.ibw"), Direction::NonDecreasing);
  EXPECT_EQ(dirs.at("link.lbw"), Direction::NonDecreasing);
}

TEST(Monotonicity, VariableTimesItselfMinusIsUnknown) {
  // x - x is constant-zero mathematically but x*(x-2) genuinely non-monotone
  // over [0,inf); the syntactic analysis must flag it.
  NodePtr ast = parse_expr_string("T.ibw * (T.ibw - 2)");
  auto dirs = analyze(*ast);
  EXPECT_EQ(dirs.at("T.ibw"), Direction::Unknown);
  EXPECT_FALSE(is_monotone(*ast));
}

TEST(Monotonicity, MonotoneTableComposition) {
  NodePtr inc = parse_expr_string("table(M.ibw; 0:0, 100:20)");
  EXPECT_EQ(analyze(*inc).at("M.ibw"), Direction::NonDecreasing);
  NodePtr dec = parse_expr_string("table(M.ibw; 0:20, 100:0)");
  EXPECT_EQ(analyze(*dec).at("M.ibw"), Direction::NonIncreasing);
  NodePtr bump = parse_expr_string("table(M.ibw; 0:0, 50:10, 100:0)");
  EXPECT_EQ(analyze(*bump).at("M.ibw"), Direction::Unknown);
}

TEST(Monotonicity, DivisionByVariable) {
  NodePtr ast = parse_expr_string("T.ibw / I.ibw");
  auto dirs = analyze(*ast);
  EXPECT_EQ(dirs.at("T.ibw"), Direction::NonDecreasing);
  EXPECT_EQ(dirs.at("I.ibw"), Direction::NonIncreasing);
}

TEST(Program, UsedSlotsAndSingleVar) {
  TestResolver res;
  Program p = compile_str("T.ibw", res);
  EXPECT_EQ(p.single_var_slot(), 0u);
  Program q = compile_str("T.ibw + I.ibw", res);
  EXPECT_EQ(q.single_var_slot(), UINT32_MAX);
  EXPECT_EQ(q.used_slots().size(), 2u);
}

TEST(Lexer, CommentsAndLines) {
  Lexer lex("1 # comment\n+ 2 // another\n+ 3");
  NodePtr ast = parse_expr(lex, {});
  TestResolver res;
  Program p = Program::compile(*ast, std::ref(res));
  EXPECT_DOUBLE_EQ(p.eval({}), 6.0);
}

// Hostile formulas fail closed: a tree deeper than the parser's cap raises
// instead of overflowing the stack in the parser, a walker or the destructor.
std::string nested_parens(std::size_t depth) {
  return std::string(depth, '(') + "1" + std::string(depth, ')');
}

std::string flat_sum(std::size_t terms) {
  std::string s = "1";
  for (std::size_t i = 1; i < terms; ++i) s += "+1";
  return s;
}

void expect_depth_error(const std::string& src) {
  try {
    (void)parse_expr_string(src);
    FAIL() << "expected a depth error";
  } catch (const Error& e) {
    EXPECT_EQ(std::string(e.what()).rfind("expr-depth:", 0), 0u) << e.what();
  }
}

TEST(ParserDepth, NestingBombThrows) {
  expect_depth_error(nested_parens(100000));
  expect_depth_error(std::string(100000, '-') + "1");
  std::string mins;
  for (int i = 0; i < 100000; ++i) mins += "min(";
  mins += "1";
  for (int i = 0; i < 100000; ++i) mins += ",1)";
  expect_depth_error(mins);
}

TEST(ParserDepth, FlatChainBombThrows) {
  expect_depth_error(flat_sum(200000));
  std::string product = "2";
  for (int i = 0; i < 200000; ++i) product += "*2";
  expect_depth_error(product);
}

TEST(ParserDepth, FormulasUnderTheCapStillParse) {
  TestResolver res;
  EXPECT_DOUBLE_EQ(compile_str(nested_parens(200), res).eval({}), 1.0);
  EXPECT_DOUBLE_EQ(compile_str(flat_sum(200), res).eval({}), 200.0);
}

TEST(Lexer, ReportsLineNumbers) {
  try {
    (void)parse_expr_string("1 +\n+ @");
    FAIL() << "expected a parse error";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("line 2"), std::string::npos) << e.what();
  }
}

}  // namespace
}  // namespace sekitei::expr
