// Optimistic resource-map replay (Section 3.2.3, Fig. 8).
//
// "Whenever a new node is created by regressing the current cheapest node
//  over an action, the plan tail including this action is replayed in the
//  optimistic map of this action. [...] Before execution of each subsequent
//  action in the plan tail, the interval produced by execution of the
//  previous action is intersected with the optimistic interval of the
//  current action, and new optimistic intervals are added if necessary."
//
// The replayer executes a plan tail over a map VarId -> Interval:
//   1. merge each action slot's optimistic interval into the map
//      (degradable/upgradable inputs may shift the interval downward/upward
//      instead of strictly intersecting),
//   2. check that every condition is satisfiable (Optimistic mode) or holds
//      for every value (WorstCase mode — the original greedy Sekitei), and
//      narrow single-variable sides,
//   3. apply the effects by interval arithmetic and assert produced output
//      levels.
// Any empty interval / failed condition prunes the branch.
//
// This is the one copy of the replay semantics.  The RG (src/core) replays
// plan tails in either mode; the CP backend (src/cp) propagates its partial
// assignments through the same Replayer in Optimistic mode, so both backends
// accept exactly the same tails by construction and differ only in search.
#pragma once

#include <span>
#include <string>
#include <vector>

#include "model/compile.hpp"
#include "support/interval.hpp"

namespace sekitei::model {

enum class ReplayMode : unsigned char {
  Optimistic,  // leveled planner: conditions must be satisfiable
  WorstCase,   // greedy baseline: initial choices collapse to their maximum
               // and conditions must hold with certainty
};

using ResourceMap = VarMap<Interval>;

class Replayer {
 public:
  explicit Replayer(const CompiledProblem& cp) : cp_(cp) {}

  /// Replays `steps` (execution order); a variant-group step replays as its
  /// group's hull (CompiledProblem::step_action).  `from_init` preloads the
  /// initial resource map — the final acceptance check ("the plan tail
  /// successfully executes in the resource map of the initial state").
  /// Returns false as soon as an interval empties or a condition fails.
  [[nodiscard]] bool replay(std::span<const ActionId> steps, bool from_init, ReplayMode mode);

  /// The map after the last successful replay (for inspection/tests).
  [[nodiscard]] const ResourceMap& map() const { return map_; }

  /// Why the last replay failed (empty when it succeeded), rendered from
  /// the recorded fault on demand: a pruned tail costs no string.
  [[nodiscard]] std::string failure() const;

  /// Total replay() invocations over this replayer's lifetime — the dominant
  /// inner-loop work item of both searches (PlannerStats::replay_calls,
  /// cp::Stats::propagations).
  [[nodiscard]] std::uint64_t calls() const { return calls_; }

 private:
  // The mode is a template parameter so the per-slot mode tests fold away;
  // tested at run time they slowed the CP search measurably.
  template <ReplayMode M>
  [[nodiscard]] bool run(std::span<const ActionId> steps, bool from_init);
  template <ReplayMode M>
  [[nodiscard]] bool step(const GroundAction& act);

  enum class Fault : unsigned char {
    None,
    Injected,
    DegradableBelow,
    UpgradableAbove,
    EmptyIntersection,
    Condition,  // fault_index_ names the condition
    Narrowing,  // fault_index_ names the condition
    Output,     // fault_index_ names the effect
  };

  const CompiledProblem& cp_;
  ResourceMap map_;
  std::vector<Interval> scratch_;
  Fault fault_ = Fault::None;
  ActionId fault_action_;        // the step that failed
  std::uint32_t fault_index_ = 0;
  std::uint64_t calls_ = 0;
};

}  // namespace sekitei::model
