// Ground, leveled planning actions (Section 3.1, "Leveled actions").
//
// The CPP compiles into two families of actions, placeX(?node) and
// cross(?iface ?from ?to), grounded by one rule: each component and each
// interface is a leveled action template instantiated at a site
// (in_node, out_node, link) -- (n, n, -) for a placement on n, (u, v, l)
// for a crossing of link l from u to v -- once per combination of its
// input-stream levels, output-stream levels and scenario-leveled resource
// levels.  A template's formula slots are of four kinds: a stream property
// at the site's input node or at its output node, a node resource, a link
// resource.
//
// Each ground action carries
//   * logical preconditions / effects (PropIds),
//   * its slice of the *optimistic resource map*: one interval per slot of
//     the compiled formulae, already intersected with the chosen levels and
//     static capacities, and
//   * a cost interval evaluated over that map; the lower bound drives the
//     A* phases ("our algorithm optimizes the minimum cost of the plan",
//     Section 4).
#pragma once

#include <string>
#include <vector>

#include "expr/program.hpp"
#include "spec/levels.hpp"
#include "support/ids.hpp"
#include "support/interval.hpp"

namespace sekitei::model {

enum class ActionKind : unsigned char { Place, Cross };

/// What a formula slot refers to; determines how the replay merges the
/// slot's optimistic interval into the running resource map.
enum class SlotRole : unsigned char {
  Input,     // a consumed stream property (degradable/upgradable rules apply)
  Output,    // a produced stream property (level asserted by the eff prop)
  Resource,  // a node or link resource (plain intersection)
};

/// Compiled, shareable semantics of an action template: the formulae of one
/// component or one interface-cross, with role variables lowered to slots.
struct CompiledSemantics {
  std::vector<expr::CompiledCondition> conditions;
  std::vector<expr::CompiledEffect> effects;
  expr::Program cost;      // empty instruction list => unit cost
  bool has_cost = false;
  std::uint32_t slot_count = 0;
  std::vector<SlotRole> roles;             // per slot
  std::vector<spec::LevelTag> tags;        // per slot (None for resources)
};

struct GroundAction {
  ActionKind kind = ActionKind::Place;
  std::uint32_t spec_index = 0;  // component index (Place) / interface index (Cross)
  NodeId node;                   // placement node / cross source
  NodeId node2;                  // cross destination
  LinkId link;                   // cross link

  std::vector<PropId> pre;  // sorted unique
  std::vector<PropId> eff;  // sorted unique

  const CompiledSemantics* sem = nullptr;
  std::vector<VarId> slot_vars;       // slot -> located variable
  std::vector<Interval> slot_opt;     // slot -> optimistic interval

  double cost_lb = 1.0;
  double cost_ub = 1.0;

  std::vector<std::uint32_t> in_levels;   // chosen input levels (reporting)
  std::vector<std::uint32_t> out_levels;  // chosen output levels (reporting)
};

}  // namespace sekitei::model
