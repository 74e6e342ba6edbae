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

std::size_t Executor::choice_count() const {
  std::size_t n = 0;
  for (const model::InitMapEntry& e : cp_.init_map) {
    if (!e.value.is_point()) ++n;
  }
  return n;
}

namespace {

constexpr double kEps = 1e-9;

}  // namespace

ExecutionReport Executor::attempt(const core::Plan& plan, std::span<const double> choices) {
  ++attempts_;
  ExecutionReport rep;
  model::VarMap<double> values;
  values.reset(cp_.vars.size());

  // Load the initial state; choice intervals take the supplied values.
  std::size_t ci = 0;
  for (const model::InitMapEntry& e : cp_.init_map) {
    if (e.value.is_point()) {
      values.set(e.var, e.value.lo);
    } else {
      SEKITEI_ASSERT(ci < choices.size());
      const double x = choices[ci++];
      const bool above = e.value.hi != kInf &&
                         (e.value.hi_open ? x >= e.value.hi : x > e.value.hi + kEps);
      if (x < e.value.lo - kEps || above) {
        rep.failure = "choice value outside its initial interval";
        return rep;
      }
      values.set(e.var, x);
    }
  }
  rep.choices.assign(choices.begin(), choices.end());

  std::vector<double> scratch;
  for (ActionId aid : plan.steps) {
    const GroundAction& act = cp_.actions[aid.index()];
    const model::CompiledSemantics& sem = *act.sem;
    const std::size_t n = act.slot_vars.size();
    if (scratch.size() < n) scratch.resize(n);

    for (std::size_t s = 0; s < n; ++s) {
      const VarId var = act.slot_vars[s];
      if (!values.has(var)) {
        if (sem.roles[s] == SlotRole::Input) {
          rep.failure = "action consumes a stream that was never produced: " +
                        cp_.describe(aid);
          return rep;
        }
        values.set(var, 0.0);
      }
      double v = values.get(var);
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
            rep.failure = "input below required level in " + cp_.describe(aid);
            return rep;
          }
          v = std::min(v, lvl.sup_value());
        } else if (sem.tags[s] == LevelTag::Upgradable) {
          if (above(v)) {
            rep.failure = "input above required level in " + cp_.describe(aid);
            return rep;
          }
        } else if (v < lvl.lo - kEps || above(v)) {
          rep.failure = "input outside required level in " + cp_.describe(aid);
          return rep;
        }
      }
      scratch[s] = v;
    }

    const std::span<const double> slots(scratch.data(), n);
    for (const expr::CompiledCondition& cond : sem.conditions) {
      if (!cond.holds(slots)) {
        rep.failure = "condition failed in " + cp_.describe(aid) + ": " + cond.source;
        return rep;
      }
    }
    const std::span<double> mslots(scratch.data(), n);
    for (const expr::CompiledEffect& eff : sem.effects) {
      eff.apply(mslots);
      double v = mslots[eff.target];
      if (sem.roles[eff.target] == SlotRole::Output) {
        const Interval lvl = act.slot_opt[eff.target];
        const bool above = lvl.hi != kInf && (lvl.hi_open ? v >= lvl.hi : v > lvl.hi + kEps);
        if (v < lvl.lo - kEps || above) {
          rep.failure = "produced value misses asserted level in " + cp_.describe(aid) + ": " +
                        eff.source;
          return rep;
        }
      }
      values.set(act.slot_vars[eff.target], v);
    }
    if (sem.has_cost) {
      rep.actual_cost += sem.cost.eval(slots);
    } else {
      rep.actual_cost += 1.0;
    }
  }

  // Resource accounting: init - final for every touched node/link resource.
  const NameId lbw = cp_.names.find("lbw");
  const NameId cpu = cp_.names.find("cpu");
  for (const model::InitMapEntry& e : cp_.init_map) {
    if (!values.has(e.var)) continue;
    const model::VarKey& key = cp_.vars.key(e.var);
    const double used = e.value.hi == kInf ? 0.0 : e.value.lo - values.get(e.var);
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
    if (values.has(var)) rep.final_vars.emplace_back(var, values.get(var));
  }

  rep.feasible = true;
  return rep;
}

ExecutionReport Executor::execute(const core::Plan& plan) {
  trace::Span span("sim.execute", "sim");
  // Collect choice ranges from the initial map.
  std::vector<Interval> ranges;
  for (const model::InitMapEntry& e : cp_.init_map) {
    if (!e.value.is_point()) {
      Interval r = e.value;
      r.hi = r.hi == kInf ? 1e12 : r.sup_value();  // largest usable value
      r.hi_open = false;
      ranges.push_back(r);
    }
  }
  if (ranges.empty()) return attempt(plan, {});

  std::vector<double> x;
  x.reserve(ranges.size());
  for (const Interval& r : ranges) x.push_back(r.hi);

  ExecutionReport best = attempt(plan, x);
  if (best.feasible) return best;

  // Greedy-within-level fallback: coordinate-wise maximisation.  For each
  // choice variable, scan a coarse grid downward for a feasible point, then
  // bisect upward against the lowest known-infeasible value.  Monotone
  // failure structure (more production -> more resource use) makes this find
  // the maximum feasible amount.
  const int kGrid = 64;
  const int kBisect = 60;
  for (int round = 0; round < 3; ++round) {
    bool improved = false;
    for (std::size_t i = 0; i < ranges.size(); ++i) {
      const double lo = ranges[i].lo, hi = ranges[i].hi;
      double feas = std::numeric_limits<double>::quiet_NaN();
      double infeas = std::numeric_limits<double>::quiet_NaN();
      for (int g = kGrid; g >= 0; --g) {
        x[i] = lo + (hi - lo) * g / kGrid;
        ExecutionReport r = attempt(plan, x);
        if (r.feasible) {
          feas = x[i];
          best = std::move(r);
          break;
        }
        infeas = x[i];
      }
      if (std::isnan(feas)) continue;  // nothing feasible along this axis
      if (!std::isnan(infeas)) {
        double flo = feas, fhi = infeas;
        for (int b = 0; b < kBisect; ++b) {
          const double mid = 0.5 * (flo + fhi);
          x[i] = mid;
          ExecutionReport r = attempt(plan, x);
          if (r.feasible) {
            flo = mid;
            best = std::move(r);
          } else {
            fhi = mid;
          }
        }
        x[i] = flo;
      } else {
        x[i] = feas;
      }
      improved = true;
    }
    if (best.feasible || !improved) break;
  }
  if (!best.feasible && best.failure.empty()) {
    best.failure = "no feasible choice of production amounts";
  }
  if (!best.feasible) {
    SEKITEI_LOG_DEBUG("sim.executor", "plan infeasible", log::kv("steps", plan.steps.size()),
                      log::kv("reason", best.failure));
  }
  return best;
}

}  // namespace sekitei::sim
