#include "sim/executor.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

#include "support/error.hpp"
#include "support/log.hpp"
#include "support/trace.hpp"

namespace sekitei::sim {

using model::GroundAction;
using model::SlotRole;
using spec::LevelTag;

double ExecutionReport::max_reserved(net::LinkClass cls) const {
  double m = 0.0;
  for (const LinkUse& u : link_use) {
    if (u.cls == cls) m = std::max(m, u.used);
  }
  return m;
}

double ExecutionReport::total_reserved(net::LinkClass cls) const {
  double t = 0.0;
  for (const LinkUse& u : link_use) {
    if (u.cls == cls) t += u.used;
  }
  return t;
}

double ExecutionReport::final_value(VarId v) const {
  for (const auto& [var, val] : final_vars) {
    if (var == v) return val;
  }
  return std::numeric_limits<double>::quiet_NaN();
}

namespace {

constexpr double kEps = 1e-9;

}  // namespace

Executor::Executor(const model::CompiledProblem& cp) : cp_(cp) {
  for (const model::InitMapEntry& e : cp_.init_map) {
    if (!e.value.is_point()) {
      Interval r = e.value;
      r.hi = r.hi == kInf ? 1e12 : r.sup_value();  // largest usable value
      r.hi_open = false;
      ranges_.push_back(r);
    }
  }
}

Executor::Fault Executor::run(const core::Plan& plan, std::span<const double> choices) {
  Fault fault;
  values_.reset(cp_.vars.size());

  // Load the initial state; choice intervals take the supplied values.
  std::size_t ci = 0;
  for (const model::InitMapEntry& e : cp_.init_map) {
    if (e.value.is_point()) {
      values_.set(e.var, e.value.lo);
    } else {
      SEKITEI_ASSERT(ci < choices.size());
      const double x = choices[ci++];
      const bool above = e.value.hi != kInf &&
                         (e.value.hi_open ? x >= e.value.hi : x > e.value.hi + kEps);
      if (x < e.value.lo - kEps || above) {
        fault.kind = FaultKind::ChoiceOutOfRange;
        return fault;
      }
      values_.set(e.var, x);
    }
  }

  for (std::uint32_t i = 0; i < plan.steps.size(); ++i) {
    fault.step = i;
    const GroundAction& act = cp_.actions[plan.steps[i].index()];
    const model::CompiledSemantics& sem = *act.sem;
    const std::size_t n = act.slot_vars.size();
    if (slots_.size() < n) slots_.resize(n);

    for (std::size_t s = 0; s < n; ++s) {
      const VarId var = act.slot_vars[s];
      if (!values_.has(var)) {
        if (sem.roles[s] == SlotRole::Input) {
          fault.kind = FaultKind::NeverProduced;
          return fault;
        }
        values_.set(var, 0.0);
      }
      double v = values_.get(var);
      const Interval lvl = act.slot_opt[s];
      // A value sits above the interval if it exceeds a closed bound by more
      // than the tolerance, or reaches an open bound at all.
      const auto above = [&](double x) {
        if (lvl.hi == kInf) return false;
        return lvl.hi_open ? x >= lvl.hi : x > lvl.hi + kEps;
      };
      if (sem.roles[s] == SlotRole::Input) {
        if (sem.tags[s] == LevelTag::Degradable) {
          // Consume at most the level's supremum of what is available.
          if (v < lvl.lo - kEps) {
            fault.kind = FaultKind::InputBelow;
            return fault;
          }
          v = std::min(v, lvl.sup_value());
        } else if (sem.tags[s] == LevelTag::Upgradable) {
          if (above(v)) {
            fault.kind = FaultKind::InputAbove;
            return fault;
          }
        } else if (v < lvl.lo - kEps || above(v)) {
          fault.kind = FaultKind::InputOutside;
          return fault;
        }
      }
      slots_[s] = v;
    }

    const std::span<const double> slots(slots_.data(), n);
    for (std::uint32_t c = 0; c < sem.conditions.size(); ++c) {
      if (!sem.conditions[c].holds(slots)) {
        fault.kind = FaultKind::Condition;
        fault.index = c;
        return fault;
      }
    }
    const std::span<double> mslots(slots_.data(), n);
    for (std::uint32_t e = 0; e < sem.effects.size(); ++e) {
      const expr::CompiledEffect& eff = sem.effects[e];
      eff.apply(mslots);
      double v = mslots[eff.target];
      if (sem.roles[eff.target] == SlotRole::Output) {
        const Interval lvl = act.slot_opt[eff.target];
        const bool above = lvl.hi != kInf && (lvl.hi_open ? v >= lvl.hi : v > lvl.hi + kEps);
        if (v < lvl.lo - kEps || above) {
          fault.kind = FaultKind::Output;
          fault.index = e;
          return fault;
        }
      }
      values_.set(act.slot_vars[eff.target], v);
    }
    fault.cost += sem.has_cost ? sem.cost.eval(slots) : 1.0;
  }
  return fault;
}

ExecutionReport Executor::report(const core::Plan& plan, std::span<const double> choices,
                                 const Fault& fault) const {
  ExecutionReport rep;
  rep.actual_cost = fault.cost;
  if (fault.kind == FaultKind::ChoiceOutOfRange) {
    rep.failure = "choice value outside its initial interval";
    return rep;
  }
  rep.choices.assign(choices.begin(), choices.end());

  if (fault.kind != FaultKind::None) {
    const ActionId aid = plan.steps[fault.step];
    const model::CompiledSemantics& sem = *cp_.actions[aid.index()].sem;
    switch (fault.kind) {
      case FaultKind::NeverProduced:
        rep.failure = "action consumes a stream that was never produced: " + cp_.describe(aid);
        break;
      case FaultKind::InputBelow:
        rep.failure = "input below required level in " + cp_.describe(aid);
        break;
      case FaultKind::InputAbove:
        rep.failure = "input above required level in " + cp_.describe(aid);
        break;
      case FaultKind::InputOutside:
        rep.failure = "input outside required level in " + cp_.describe(aid);
        break;
      case FaultKind::Condition:
        rep.failure = "condition failed in " + cp_.describe(aid) + ": " +
                      sem.conditions[fault.index].source;
        break;
      case FaultKind::Output:
        rep.failure = "produced value misses asserted level in " + cp_.describe(aid) + ": " +
                      sem.effects[fault.index].source;
        break;
      case FaultKind::None:
      case FaultKind::ChoiceOutOfRange:
        break;
    }
    return rep;
  }

  // Resource accounting: init - final for every touched node/link resource.
  const NameId lbw = cp_.names.find("lbw");
  const NameId cpu = cp_.names.find("cpu");
  for (const model::InitMapEntry& e : cp_.init_map) {
    if (!values_.has(e.var)) continue;
    const model::VarKey& key = cp_.vars.key(e.var);
    const double used = e.value.hi == kInf ? 0.0 : e.value.lo - values_.get(e.var);
    if (key.kind == model::VarKind::LinkRes && lbw.valid() && key.b == lbw.index()) {
      if (used > kEps) {
        rep.link_use.push_back(
            {LinkId(key.a), cp_.net->link(LinkId(key.a)).cls, used});
      }
    } else if (key.kind == model::VarKind::NodeRes && cpu.valid() && key.b == cpu.index()) {
      if (used > kEps) rep.node_use.push_back({NodeId(key.a), used});
    }
  }
  // Record every touched variable for inspection.
  for (std::size_t v = 0; v < cp_.vars.size(); ++v) {
    const VarId var(static_cast<std::uint32_t>(v));
    if (values_.has(var)) rep.final_vars.emplace_back(var, values_.get(var));
  }

  rep.feasible = true;
  return rep;
}

ExecutionReport Executor::attempt(const core::Plan& plan, std::span<const double> choices) {
  const Fault fault = run(plan, choices);
  return report(plan, choices, fault);
}

ExecutionReport Executor::execute(const core::Plan& plan) {
  trace::Span span("sim.execute", "sim");
  x_.clear();
  for (const Interval& r : ranges_) x_.push_back(r.hi);

  const Fault top = run(plan, x_);
  if (top.kind == FaultKind::None || ranges_.empty()) return report(plan, x_, top);

  // Greedy-within-level fallback: coordinate-wise maximisation.  For each
  // choice variable, scan a coarse grid downward for a feasible point, then
  // bisect upward against the lowest known-infeasible value.  Monotone
  // failure structure (more production -> more resource use) makes this find
  // the maximum feasible amount.  The probes run the kernel only; the one
  // report built is the last feasible point's, or else the top point's.
  const int kGrid = 64;
  const int kBisect = 60;
  bool found = false;
  for (int round = 0; round < 3; ++round) {
    bool improved = false;
    for (std::size_t i = 0; i < ranges_.size(); ++i) {
      const double lo = ranges_[i].lo, hi = ranges_[i].hi;
      double feas = std::numeric_limits<double>::quiet_NaN();
      double infeas = std::numeric_limits<double>::quiet_NaN();
      for (int g = kGrid; g >= 0; --g) {
        x_[i] = lo + (hi - lo) * g / kGrid;
        if (run(plan, x_).kind == FaultKind::None) {
          feas = x_[i];
          best_x_ = x_;
          found = true;
          break;
        }
        infeas = x_[i];
      }
      if (std::isnan(feas)) continue;  // nothing feasible along this axis
      if (!std::isnan(infeas)) {
        double flo = feas, fhi = infeas;
        for (int b = 0; b < kBisect; ++b) {
          const double mid = 0.5 * (flo + fhi);
          x_[i] = mid;
          if (run(plan, x_).kind == FaultKind::None) {
            flo = mid;
            best_x_ = x_;
          } else {
            fhi = mid;
          }
        }
        x_[i] = flo;
      } else {
        x_[i] = feas;
      }
      improved = true;
    }
    if (found || !improved) break;
  }
  if (found) return report(plan, best_x_, run(plan, best_x_));

  for (std::size_t i = 0; i < ranges_.size(); ++i) x_[i] = ranges_[i].hi;
  ExecutionReport rep = report(plan, x_, top);
  SEKITEI_LOG_DEBUG("sim.executor", "plan infeasible", log::kv("steps", plan.steps.size()),
                    log::kv("reason", rep.failure));
  return rep;
}

}  // namespace sekitei::sim
