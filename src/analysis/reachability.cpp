#include "analysis/reachability.hpp"

#include <span>

namespace sekitei::analysis {

using model::GroundAction;
using model::SlotRole;
using spec::LevelTag;

namespace {

/// Values a consumer can draw from a producible hull `have`, before meeting
/// the slot's level interval: a degradable stream can be consumed at any
/// value up to what is attainably available, an upgradable one at any value
/// from its floor up (the shift rules of model/replay.cpp, hull-side).
Interval usable_values(Interval have, LevelTag tag) {
  switch (tag) {
    case LevelTag::Degradable: return {0.0, have.hi, have.hi_open};
    case LevelTag::Upgradable: return {have.lo, kInf};
    case LevelTag::None: break;
  }
  return have;
}

}  // namespace

std::uint64_t ReachabilityResult::props_reached_count() const {
  std::uint64_t n = 0;
  for (char c : prop_reached) n += c != 0;
  return n;
}

std::uint64_t ReachabilityResult::actions_fired_count() const {
  std::uint64_t n = 0;
  for (char c : action_fired) n += c != 0;
  return n;
}

ReachabilityResult relaxed_reach(const model::CompiledProblem& cp,
                                 std::uint32_t max_sweeps) {
  ReachabilityResult r;
  r.prop_reached.assign(cp.props.size(), 0);
  r.action_fired.assign(cp.actions.size(), 0);
  r.value.assign(cp.vars.size(), Interval::empty());

  for (PropId p : cp.init_props) r.prop_reached[p.index()] = 1;
  for (const model::InitMapEntry& e : cp.init_map) {
    Interval& v = r.value[e.var.index()];
    v = hull(v, e.value);
  }

  // supports[a] = every proposition action a achieves, degradable/upgradable
  // cross-level closure included (the inverse of the achiever lists).
  std::vector<std::vector<PropId>> supports(cp.actions.size());
  for (std::uint32_t p = 0; p < cp.achievers.size(); ++p) {
    for (ActionId a : cp.achievers[p]) supports[a.index()].push_back(PropId(p));
  }

  std::vector<Interval> slots;
  std::vector<Interval> post;
  bool changed = true;
  while (changed && r.sweeps < max_sweeps) {
    changed = false;
    ++r.sweeps;
    for (std::uint32_t ai = 0; ai < cp.actions.size(); ++ai) {
      const GroundAction& act = cp.actions[ai];

      bool ready = true;
      for (PropId p : act.pre) {
        if (!r.prop_reached[p.index()]) {
          ready = false;
          break;
        }
      }
      if (!ready) continue;

      const std::size_t n = act.slot_vars.size();
      slots.assign(act.slot_opt.begin(), act.slot_opt.end());
      for (std::size_t s = 0; s < n && ready; ++s) {
        if (act.sem->roles[s] != SlotRole::Input) continue;
        const Interval have = r.value[act.slot_vars[s].index()];
        // A variable nothing defines is unconstrained to the replay (it
        // falls back to the action's own optimistic interval); mirror that.
        if (have.is_empty()) continue;
        slots[s] = intersect(usable_values(have, act.sem->tags[s]), act.slot_opt[s]);
        if (slots[s].is_empty()) ready = false;
      }
      if (!ready) continue;

      const std::span<const Interval> view(slots.data(), n);
      for (const expr::CompiledCondition& cond : act.sem->conditions) {
        if (!cond.satisfiable(view)) {
          ready = false;
          break;
        }
      }
      if (!ready) continue;

      post = slots;
      for (const expr::CompiledEffect& eff : act.sem->effects) {
        eff.apply_interval(post);
      }
      for (std::size_t s = 0; s < n && ready; ++s) {
        if (act.sem->roles[s] != SlotRole::Output) continue;
        post[s] = intersect(post[s], act.slot_opt[s]);
        if (post[s].is_empty()) ready = false;
      }
      if (!ready) continue;

      if (!r.action_fired[ai]) {
        r.action_fired[ai] = 1;
        changed = true;
      }
      for (std::size_t s = 0; s < n; ++s) {
        if (act.sem->roles[s] != SlotRole::Output) continue;
        Interval& v = r.value[act.slot_vars[s].index()];
        const Interval widened = hull(v, post[s]);
        if (!(widened == v)) {
          v = widened;
          changed = true;
        }
      }
      for (PropId p : supports[ai]) {
        if (!r.prop_reached[p.index()]) {
          r.prop_reached[p.index()] = 1;
          changed = true;
        }
      }
    }
  }
  r.converged = !changed;
  return r;
}

}  // namespace sekitei::analysis
