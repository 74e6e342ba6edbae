// Interval-annotated relaxed reachability over a compiled problem.
//
// A delete-free ("relaxed") fixpoint over the ground leveled actions, with
// one extra annotation the purely logical PLRG does not carry: for every
// located stream variable, the hull of all values any sequence of fired
// actions could produce for it.  An action fires only when
//
//   * every logical precondition has been reached,
//   * every input slot still has usable values once the producible hull is
//     shifted by the slot's degradable/upgradable tag and met with the
//     slot's optimistic level interval (mirroring model/replay.cpp's merge),
//   * every condition is satisfiable over those narrowed slots, and
//   * every produced output still intersects its asserted level interval
//     after the effects run over the narrowed inputs.
//
// Because values are hulled (never intersected) across firings and inputs
// are narrowed per action exactly as the optimistic replay narrows them,
// the reached set over-approximates everything any real plan can do: a goal
// proposition this fixpoint cannot reach is *provably* unachievable — even
// in cases where each action looks viable in isolation (so compile-time
// leveling keeps it) and the goal is logically reachable (so the PLRG passes)
// but the composition of value-bounding effects caps a delivered property
// below every consumer's demand.  Those are exactly the "no plan exists"
// instances where the RG search grinds to exhaustion (Section 5's hard
// negatives), and this pass answers them in one linear sweep family.
//
// Interval widening may fail to converge on self-amplifying production
// cycles; the fixpoint then stops at `max_sweeps` with converged = false and
// callers must not claim unreachability (analysis stays sound by reporting
// "inconclusive" instead).
#pragma once

#include <cstdint>
#include <vector>

#include "model/compile.hpp"
#include "support/interval.hpp"

namespace sekitei::analysis {

struct ReachabilityResult {
  /// prop_reached[p] — proposition p is achievable in the relaxation.
  std::vector<char> prop_reached;
  /// action_fired[a] — action a fired at least once (its preconditions,
  /// conditions and output levels are all simultaneously serviceable).
  std::vector<char> action_fired;
  /// value[v] — hull of producible values of located variable v; empty when
  /// nothing (neither the initial state nor a fired action) defines it.
  std::vector<Interval> value;
  /// False when `max_sweeps` was exhausted before a full quiescent sweep;
  /// unreachability claims are only valid when true.
  bool converged = false;
  std::uint32_t sweeps = 0;

  [[nodiscard]] bool reached(PropId p) const {
    return p.valid() && p.index() < prop_reached.size() &&
           prop_reached[p.index()] != 0;
  }
  [[nodiscard]] bool fired(ActionId a) const {
    return a.valid() && a.index() < action_fired.size() &&
           action_fired[a.index()] != 0;
  }

  [[nodiscard]] std::uint64_t props_reached_count() const;
  [[nodiscard]] std::uint64_t actions_fired_count() const;
};

/// Runs the fixpoint to quiescence or `max_sweeps` full sweeps.
[[nodiscard]] ReachabilityResult relaxed_reach(const model::CompiledProblem& cp,
                                               std::uint32_t max_sweeps = 64);

}  // namespace sekitei::analysis
