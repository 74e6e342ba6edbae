#include "model/replay.hpp"

#include <algorithm>

#include "support/error.hpp"
#include "support/fault.hpp"
#include "support/log.hpp"

namespace sekitei::model {

using spec::LevelTag;

bool Replayer::replay(std::span<const ActionId> steps, bool from_init, ReplayMode mode) {
  ++calls_;
  fault_ = Fault::None;
  // Fault point on the acceptance replays only (from_init == true, the
  // validation of a complete candidate plan, RG or CP): Fail mode reports a
  // replay failure — the search prunes the candidate and keeps going — while
  // Throw mode propagates to the caller's error path.
  if (from_init && SEKITEI_FAULT_POINT("replay.validate")) {
    fault_ = Fault::Injected;
    return false;
  }
  return mode == ReplayMode::Optimistic ? run<ReplayMode::Optimistic>(steps, from_init)
                                        : run<ReplayMode::WorstCase>(steps, from_init);
}

std::string Replayer::failure() const {
  const auto sem = [this]() -> const CompiledSemantics& {
    return *cp_.step_action(fault_action_).sem;
  };
  switch (fault_) {
    case Fault::None:
      return {};
    case Fault::Injected:
      return "injected fault at replay.validate";
    case Fault::DegradableBelow:
      return "degradable input below required level";
    case Fault::UpgradableAbove:
      return "upgradable input above required level";
    case Fault::EmptyIntersection:
      return "optimistic interval intersection empty";
    case Fault::Condition:
      return "condition failed: " + sem().conditions[fault_index_].source;
    case Fault::Narrowing:
      return "narrowing emptied interval: " + sem().conditions[fault_index_].source;
    case Fault::Output:
      return "produced value misses asserted level: " + sem().effects[fault_index_].source;
  }
  return {};
}

template <ReplayMode M>
bool Replayer::run(std::span<const ActionId> steps, bool from_init) {
  map_.reset(cp_.vars.size());
  if (from_init) {
    for (const InitMapEntry& e : cp_.init_map) {
      Interval v = e.value;
      if (M == ReplayMode::WorstCase && !v.is_point() && v.hi != kInf) {
        // Greedy maximum-utilization assumption (Section 2.2): the planner
        // "considers the maximum possible utilization of a resource".
        v = Interval::point(v.sup_value());
      }
      map_.set(e.var, v);
    }
  }
  for (ActionId a : steps) {
    if (!step<M>(cp_.step_action(a))) {
      fault_action_ = a;
      // Trace-level because this is the searches' *normal* pruning
      // mechanism, not an anomaly; the level gate keeps the hot path at one
      // load.
      SEKITEI_LOG_TRACE("model.replay", "tail pruned", log::kv("action", cp_.describe(a)),
                        log::kv("reason", failure()), log::kv("steps", steps.size()));
      return false;
    }
  }
  return true;
}

template <ReplayMode M>
bool Replayer::step(const GroundAction& act) {
  const CompiledSemantics& sem = *act.sem;
  const std::size_t n = act.slot_vars.size();

  // 1. Merge the action's optimistic intervals into the running map.
  for (std::size_t s = 0; s < n; ++s) {
    const VarId var = act.slot_vars[s];
    const Interval req = act.slot_opt[s];
    if (!map_.has(var)) {
      // Greedy maximum-utilization assumption: a value not yet produced by
      // the tail is taken at its worst (largest) case, so e.g. a Splitter
      // whose input is unbounded certainly violates its CPU condition —
      // precisely why the greedy planner cannot handle Scenario 1.
      const bool collapse = M == ReplayMode::WorstCase && sem.roles[s] != SlotRole::Output;
      map_.set(var, collapse ? Interval::point(req.sup_value()) : req);
      continue;
    }
    const Interval cur = map_.get(var);
    Interval merged;
    // The degradable/upgradable shift is level reasoning (Section 3.1) and
    // only exists in the leveled planner; the greedy baseline intersects.
    const bool leveled = M == ReplayMode::Optimistic;
    if (leveled && sem.roles[s] == SlotRole::Input && sem.tags[s] == LevelTag::Degradable) {
      // A degradable stream produced above the required interval can be
      // consumed at the lower level: shift down as long as the producer can
      // attainably reach req.lo.
      if (cur.hi < req.lo || (cur.hi == req.lo && cur.hi_open && req.lo > 0)) {
        fault_ = Fault::DegradableBelow;
        return false;
      }
      merged.lo = req.lo;
      detail::min_upper(cur, req, merged.hi, merged.hi_open);
    } else if (leveled && sem.roles[s] == SlotRole::Input &&
               sem.tags[s] == LevelTag::Upgradable) {
      if (cur.lo > req.hi || (cur.lo == req.hi && req.hi_open)) {
        fault_ = Fault::UpgradableAbove;
        return false;
      }
      merged = {std::max(cur.lo, req.lo), req.hi, req.hi_open};
    } else {
      merged = intersect(cur, req);
    }
    if (merged.is_empty()) {
      fault_ = Fault::EmptyIntersection;
      return false;
    }
    map_.set(var, merged);
  }

  // Gather the slot view of the map.
  if (scratch_.size() < n) scratch_.resize(n);
  for (std::size_t s = 0; s < n; ++s) scratch_[s] = map_.get(act.slot_vars[s]);
  const std::span<Interval> slots(scratch_.data(), n);

  // 2. Conditions: prune unsatisfiable branches; narrow single-variable
  //    sides (a necessary-condition cut, hence sound).
  for (std::uint32_t c = 0; c < sem.conditions.size(); ++c) {
    const expr::CompiledCondition& cond = sem.conditions[c];
    const bool ok = M == ReplayMode::WorstCase ? cond.certain(slots) : cond.satisfiable(slots);
    if (!ok) {
      fault_ = Fault::Condition;
      fault_index_ = c;
      return false;
    }
    const std::uint32_t ls = cond.lhs.single_var_slot();
    const std::uint32_t rs = cond.rhs.single_var_slot();
    if (ls == UINT32_MAX && rs == UINT32_MAX) continue;
    const Interval lv = cond.lhs.eval_interval(slots);
    const Interval rv = cond.rhs.eval_interval(slots);
    auto narrow = [&](std::uint32_t slot, Interval bound) -> bool {
      const Interval nv = intersect(slots[slot], bound);
      if (nv.is_empty()) {
        fault_ = Fault::Narrowing;
        fault_index_ = c;
        return false;
      }
      slots[slot] = nv;
      map_.set(act.slot_vars[slot], nv);
      return true;
    };
    switch (cond.op) {
      case expr::CmpOp::Ge:
      case expr::CmpOp::Gt:
        if (ls != UINT32_MAX && !narrow(ls, {rv.lo, kInf})) return false;
        if (rs != UINT32_MAX && !narrow(rs, {-kInf, lv.hi, lv.hi_open})) return false;
        break;
      case expr::CmpOp::Le:
      case expr::CmpOp::Lt:
        if (ls != UINT32_MAX && !narrow(ls, {-kInf, rv.hi, rv.hi_open})) return false;
        if (rs != UINT32_MAX && !narrow(rs, {lv.lo, kInf})) return false;
        break;
      case expr::CmpOp::Eq:
        if (ls != UINT32_MAX && !narrow(ls, rv)) return false;
        if (rs != UINT32_MAX && !narrow(rs, lv)) return false;
        break;
      case expr::CmpOp::Ne:
        break;  // no useful interval cut
    }
  }

  // 3. Effects: sequential interval execution, then write-back.  Produced
  //    outputs must stay inside their asserted level.
  for (std::uint32_t e = 0; e < sem.effects.size(); ++e) {
    const expr::CompiledEffect& eff = sem.effects[e];
    eff.apply_interval(slots);
    Interval v = slots[eff.target];
    if (sem.roles[eff.target] == SlotRole::Output) {
      v = intersect(v, act.slot_opt[eff.target]);
      if (v.is_empty()) {
        fault_ = Fault::Output;
        fault_index_ = e;
        return false;
      }
      slots[eff.target] = v;
    }
    map_.set(act.slot_vars[eff.target], v);
  }
  return true;
}

}  // namespace sekitei::model
