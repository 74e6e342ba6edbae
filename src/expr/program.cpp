#include "expr/program.hpp"

#include <algorithm>

#include "support/error.hpp"

namespace sekitei::expr {

Program Program::compile(const Node& ast, const SlotResolver& resolve) {
  Program p;
  std::uint32_t max_slot = 0;
  // Explicit-stack-free recursive compile; spec expressions are tiny.
  struct Rec {
    const SlotResolver& resolve;
    Program& p;
    std::uint32_t& max_slot;
    void go(const Node& n) {
      switch (n.kind) {
        case NodeKind::Const:
          p.instrs_.push_back({Op::PushConst, static_cast<std::uint32_t>(p.consts_.size())});
          p.consts_.push_back(n.value);
          break;
        case NodeKind::Var: {
          const std::uint32_t slot = resolve(n.ref);
          p.instrs_.push_back({Op::PushVar, slot});
          max_slot = std::max(max_slot, slot + 1);
          break;
        }
        case NodeKind::Neg:
          go(*n.a);
          p.instrs_.push_back({Op::Neg, 0});
          break;
        case NodeKind::Add:
        case NodeKind::Sub:
        case NodeKind::Mul:
        case NodeKind::Div:
        case NodeKind::Min:
        case NodeKind::Max: {
          go(*n.a);
          go(*n.b);
          Op op = Op::Add;
          switch (n.kind) {
            case NodeKind::Add: op = Op::Add; break;
            case NodeKind::Sub: op = Op::Sub; break;
            case NodeKind::Mul: op = Op::Mul; break;
            case NodeKind::Div: op = Op::Div; break;
            case NodeKind::Min: op = Op::Min; break;
            case NodeKind::Max: op = Op::Max; break;
            default: break;
          }
          p.instrs_.push_back({op, 0});
          break;
        }
        case NodeKind::Table:
          go(*n.a);
          p.instrs_.push_back({Op::Table, static_cast<std::uint32_t>(p.tables_.size())});
          p.tables_.push_back(n.table);
          break;
      }
    }
  } rec{resolve, p, max_slot};
  rec.go(ast);
  p.slot_count_ = max_slot;
  return p;
}

double Program::eval(std::span<const double> slots) const {
  // Fixed-size evaluation stack; spec formulae never nest deeper than this.
  double stack[64];
  std::size_t sp = 0;
  for (const Instr& ins : instrs_) {
    switch (ins.op) {
      case Op::PushConst: stack[sp++] = consts_[ins.arg]; break;
      case Op::PushVar: stack[sp++] = slots[ins.arg]; break;
      case Op::Neg: stack[sp - 1] = -stack[sp - 1]; break;
      case Op::Add: stack[sp - 2] += stack[sp - 1]; --sp; break;
      case Op::Sub: stack[sp - 2] -= stack[sp - 1]; --sp; break;
      case Op::Mul: stack[sp - 2] *= stack[sp - 1]; --sp; break;
      case Op::Div: stack[sp - 2] /= stack[sp - 1]; --sp; break;
      case Op::Min: stack[sp - 2] = std::min(stack[sp - 2], stack[sp - 1]); --sp; break;
      case Op::Max: stack[sp - 2] = std::max(stack[sp - 2], stack[sp - 1]); --sp; break;
      case Op::Table: stack[sp - 1] = tables_[ins.arg].eval(stack[sp - 1]); break;
    }
    SEKITEI_ASSERT(sp <= 64);
  }
  SEKITEI_ASSERT(sp == 1);
  return stack[0];
}

Interval Program::eval_interval(std::span<const Interval> slots) const {
  // Uninitialized storage: Interval's member defaults would otherwise write
  // all 64 entries (1.5 KiB) on every call before anything is evaluated.
  union Stack {
    Stack() {}
    Interval v[64];
  } storage;
  Interval* const stack = storage.v;
  std::size_t sp = 0;
  for (const Instr& ins : instrs_) {
    switch (ins.op) {
      case Op::PushConst: stack[sp++] = Interval::point(consts_[ins.arg]); break;
      case Op::PushVar: stack[sp++] = slots[ins.arg]; break;
      case Op::Neg: stack[sp - 1] = -stack[sp - 1]; break;
      case Op::Add: stack[sp - 2] = stack[sp - 2] + stack[sp - 1]; --sp; break;
      case Op::Sub: stack[sp - 2] = stack[sp - 2] - stack[sp - 1]; --sp; break;
      case Op::Mul: stack[sp - 2] = stack[sp - 2] * stack[sp - 1]; --sp; break;
      case Op::Div: stack[sp - 2] = stack[sp - 2] / stack[sp - 1]; --sp; break;
      case Op::Min: stack[sp - 2] = imin(stack[sp - 2], stack[sp - 1]); --sp; break;
      case Op::Max: stack[sp - 2] = imax(stack[sp - 2], stack[sp - 1]); --sp; break;
      case Op::Table: {
        // Exact range of a piecewise-linear function over an interval: the
        // extrema lie at clamped endpoints or interior breakpoints.
        const TableData& t = tables_[ins.arg];
        const Interval in = stack[sp - 1];
        if (in.is_empty()) break;  // propagate empty unchanged
        double lo = std::min(t.eval(in.lo), t.eval(in.hi == kInf ? t.xs.back() : in.hi));
        double hi = std::max(t.eval(in.lo), t.eval(in.hi == kInf ? t.xs.back() : in.hi));
        for (std::size_t i = 0; i < t.xs.size(); ++i) {
          if (t.xs[i] > in.lo && t.xs[i] < in.hi) {
            lo = std::min(lo, t.ys[i]);
            hi = std::max(hi, t.ys[i]);
          }
        }
        stack[sp - 1] = {lo, hi};
        break;
      }
    }
    SEKITEI_ASSERT(sp <= 64);
  }
  SEKITEI_ASSERT(sp == 1);
  return stack[0];
}

bool Program::is_constant() const {
  return std::none_of(instrs_.begin(), instrs_.end(),
                      [](const Instr& i) { return i.op == Op::PushVar; });
}

std::vector<std::uint32_t> Program::used_slots() const {
  std::vector<std::uint32_t> out;
  for (const Instr& i : instrs_) {
    if (i.op == Op::PushVar) {
      if (std::find(out.begin(), out.end(), i.arg) == out.end()) out.push_back(i.arg);
    }
  }
  return out;
}

std::uint32_t Program::single_var_slot() const {
  if (instrs_.size() == 1 && instrs_[0].op == Op::PushVar) return instrs_[0].arg;
  return UINT32_MAX;
}

bool CompiledCondition::holds(std::span<const double> slots) const {
  const double l = lhs.eval(slots);
  const double r = rhs.eval(slots);
  // A small tolerance keeps profiled equality constraints (T*3 == I*7) from
  // failing on floating-point dust.
  constexpr double kEps = 1e-9;
  switch (op) {
    case CmpOp::Ge: return l >= r - kEps;
    case CmpOp::Le: return l <= r + kEps;
    case CmpOp::Gt: return l > r - kEps;
    case CmpOp::Lt: return l < r + kEps;
    case CmpOp::Eq: return std::abs(l - r) <= kEps * std::max({1.0, std::abs(l), std::abs(r)});
    case CmpOp::Ne: return std::abs(l - r) > kEps;
  }
  return false;
}

bool CompiledCondition::satisfiable(std::span<const Interval> slots) const {
  const Interval l = lhs.eval_interval(slots);
  const Interval r = rhs.eval_interval(slots);
  if (l.is_empty() || r.is_empty()) return false;
  switch (op) {
    case CmpOp::Ge:
      // sup(l) must reach inf(r) attainably: a level [0,90) can never meet a
      // ">= 90" demand (the load-bearing half-open semantics).
      return l.hi > r.lo || (l.hi == r.lo && !l.hi_open);
    case CmpOp::Gt:
      return l.hi > r.lo;
    case CmpOp::Le:
      return l.lo < r.hi || (l.lo == r.hi && !r.hi_open);
    case CmpOp::Lt:
      return l.lo < r.hi;
    case CmpOp::Eq:
      return !intersect(l, r).is_empty();
    case CmpOp::Ne:
      return !(l.is_point() && r.is_point() && l.lo == r.lo);
  }
  return false;
}

bool CompiledCondition::certain(std::span<const Interval> slots) const {
  const Interval l = lhs.eval_interval(slots);
  const Interval r = rhs.eval_interval(slots);
  if (l.is_empty() || r.is_empty()) return false;
  switch (op) {
    case CmpOp::Ge:
      return l.lo >= r.hi;
    case CmpOp::Gt:
      return l.lo > r.hi || (l.lo == r.hi && r.hi_open);
    case CmpOp::Le:
      return l.hi <= r.lo;
    case CmpOp::Lt:
      return l.hi < r.lo || (l.hi == r.lo && l.hi_open);
    case CmpOp::Eq:
      return l.is_point() && r.is_point() && l.lo == r.lo;
    case CmpOp::Ne:
      return intersect(l, r).is_empty();
  }
  return false;
}

void CompiledEffect::apply(std::span<double> slots) const {
  const double v = value.eval(slots);
  switch (op) {
    case AssignOp::Set: slots[target] = v; break;
    case AssignOp::Add: slots[target] += v; break;
    case AssignOp::Sub: slots[target] -= v; break;
  }
}

void CompiledEffect::apply_interval(std::span<Interval> slots) const {
  const Interval v = value.eval_interval(slots);
  switch (op) {
    case AssignOp::Set: slots[target] = v; break;
    case AssignOp::Add: slots[target] = slots[target] + v; break;
    case AssignOp::Sub: slots[target] = slots[target] - v; break;
  }
}

}  // namespace sekitei::expr
