// Compilation of a CPP instance into a leveled AI-planning problem
// (Sections 2.2 and 3.1).
//
// compile() grounds every component over every allowed node and every
// interface over every directed link, instantiates the ground actions per
// level combination, prunes combinations whose conditions cannot hold over
// the optimistic intervals (the paper's leveling-time pruning: "Actions for
// crossing the link with the M stream with levels above 1 are pruned during
// the leveling because of limited link bandwidth", Fig. 7), and assembles
// the initial state, goal and achiever indices used by the planner phases.
#pragma once

#include <memory>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "model/action.hpp"
#include "model/problem.hpp"
#include "model/props.hpp"
#include "model/vars.hpp"
#include "spec/levels.hpp"
#include "support/interner.hpp"
#include "support/stop_token.hpp"

namespace sekitei::model {

/// Per-interface leveling info for one compiled problem: which property is
/// leveled (at most one per interface), its level set and tag.
struct IfaceLevelInfo {
  NameId prop;              // invalid when the interface is unleveled
  spec::LevelSet levels;    // trivial when unleveled
  spec::LevelTag tag = spec::LevelTag::None;
};

struct InitMapEntry {
  VarId var;
  Interval value;
};

/// The level variants of one logical action: the actions of one site that
/// share `pre`, `eff` and every stream slot's interval, and differ only in
/// the intervals of scenario-leveled resource slots and in cost (scenario E
/// splits each link crossing by bandwidth level).  `hull` is the
/// representative with each resource slot's interval widened to the hull
/// of the members' intervals, and the members' smallest `cost_lb`: every
/// member's replay lies inside the hull's, so a search may branch once on
/// the group and refine to a member later.
struct VariantGroup {
  std::vector<ActionId> members;  // by cost_lb, then id; members[0] is the representative
  GroundAction hull;
};

class CompiledProblem {
 public:
  const CppProblem* problem = nullptr;
  const net::Network* net = nullptr;
  const spec::DomainSpec* domain = nullptr;
  spec::LevelScenario scenario;

  Interner names;                        // property/resource name interner
  std::vector<std::string> iface_names;  // aligned with domain interface order
  std::vector<IfaceLevelInfo> iface_levels;

  VarRegistry vars;
  PropRegistry props;

  std::vector<std::unique_ptr<CompiledSemantics>> semantics;
  std::vector<GroundAction> actions;

  /// Variant groups of two or more members, beside `actions` (ids and
  /// achievers do not see them).  Built only for templates with a
  /// scenario-leveled resource slot, so most scenarios have none.
  std::vector<VariantGroup> groups;
  /// group_of[a]: index into `groups` of the group holding action a, or
  /// kNoGroup; empty when `groups` is.
  std::vector<std::uint32_t> group_of;
  static constexpr std::uint32_t kNoGroup = UINT32_MAX;

  /// achievers[p] = actions whose effects support proposition p, including
  /// cross-level support through degradable/upgradable closure.
  std::vector<std::vector<ActionId>> achievers;

  std::vector<PropId> init_props;  // sorted, closure applied
  std::vector<InitMapEntry> init_map;
  /// Sorted goal set: the primary goal plus every extra goal.
  std::vector<PropId> goal_props;
  /// The primary goal (first of goal_props), kept for single-goal callers.
  PropId goal_prop;

  /// Leveling statistics (Table 2, column 5 reports `actions.size()`).  Every
  /// level combination considered is either emitted as an action or pruned.
  std::uint64_t combos_considered = 0;

  /// Node symmetry partition, filled by analysis::attach_symmetry() (the
  /// compiler itself never computes it — layering keeps core below analysis).
  /// Empty `node_class` means "not attached": search treats every node as a
  /// singleton and behaves exactly as before the partition existed.
  /// When attached: node_class[n] is n's class index, node_class_members[c]
  /// lists the class's node indices in ascending order, and
  /// symmetric_class_count counts classes with >= 2 members.  Membership is
  /// verified (every member is an automorphism image of its representative),
  /// so pruning on it is sound, not just color-refinement-plausible.
  std::vector<std::uint32_t> node_class;
  std::vector<std::vector<std::uint32_t>> node_class_members;
  std::uint32_t symmetric_class_count = 0;

  [[nodiscard]] const std::vector<ActionId>& achievers_of(PropId p) const;
  [[nodiscard]] bool init_holds(PropId p) const;

  /// Step ids name what a search branches on: an action (below
  /// `actions.size()`) or a variant group (`actions.size()` + its index).
  [[nodiscard]] bool is_group_step(ActionId s) const {
    return s.valid() && s.index() >= actions.size();
  }
  /// The step of action `a`: its group's step when it has variants, else `a`.
  [[nodiscard]] ActionId step_of(ActionId a) const {
    if (group_of.empty() || group_of[a.index()] == kNoGroup) return a;
    return ActionId(static_cast<std::uint32_t>(actions.size()) + group_of[a.index()]);
  }
  /// The action a step replays as: the action itself, or the group's hull.
  [[nodiscard]] const GroundAction& step_action(ActionId s) const {
    return is_group_step(s) ? groups[s.index() - actions.size()].hull : actions[s.index()];
  }
  /// The representative action of a step (the step itself when ground).
  [[nodiscard]] ActionId representative(ActionId s) const {
    return is_group_step(s) ? groups[s.index() - actions.size()].members.front() : s;
  }

  /// Symmetry pruning's canonical-twin test: true when action `a` brings in
  /// a node that `used` (by node index) leaves unmarked while a strictly
  /// smaller twin of it, other than the action's second node, is unmarked
  /// too.  The twin's branch is then an automorphism image of this one at
  /// the same cost.  Only meaningful with an attached partition.
  [[nodiscard]] bool twin_blocked(ActionId a, const std::vector<char>& used) const;

  /// Human-readable action rendering, e.g.
  /// "place Splitter on n0 [M:L1 -> T:L1,I:L1]" or "cross Z n0->n1 [L1->L1]".
  /// A group step renders as its representative.
  [[nodiscard]] std::string describe(ActionId a) const;
  [[nodiscard]] std::string describe(PropId p) const;

 private:
  static const std::vector<ActionId> kNoAchievers;
};

/// Regression of a proposition set over one action, (set \ supported) + pre,
/// written into `out` (cleared first; its capacity is reused).  `supported`
/// goes through the achiever index, so the level closure takes part.  Both
/// search backends (core's SLRG and RG, and cp) regress through this one copy.
void regress(const CompiledProblem& cp, std::span<const PropId> set, ActionId a,
             std::vector<PropId>& out);

/// Commutativity test of the searches' canonical ordering: `a`, executing
/// right before `b`, commutes with it when their located variables are
/// disjoint and neither supports the other's preconditions (through the
/// level closure).  Each action's sorted variables are built on first use.
class Commutation {
 public:
  explicit Commutation(const CompiledProblem& cp) : cp_(cp) {}
  [[nodiscard]] bool independent(ActionId a, ActionId b);

 private:
  const CompiledProblem& cp_;
  std::vector<std::vector<VarId>> sorted_vars_;  // by ActionId
};

/// Prefix of the Error compile() raises when its stop token fires.
inline constexpr std::string_view kCompileStopped = "compile-stopped:";

/// Grounds and levels `problem` under `scenario`.  Raises on malformed input
/// (unknown names, several leveled properties on one interface), and raises
/// a `compile-stopped:` Error when `stop` fires (polled every 1024 level
/// combinations).
[[nodiscard]] CompiledProblem compile(const CppProblem& problem,
                                      const spec::LevelScenario& scenario,
                                      const StopToken& stop = {});

}  // namespace sekitei::model
