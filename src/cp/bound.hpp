// Admissible cost lower bounds for the CP branch-and-bound search.
//
// Two relaxations, combined by max():
//
//  * hmax over the achiever graph: the PLRG's cost fixpoint
//    (model/hmax.hpp) at leveled costs, solved once per problem over the
//    goal-relevant subgraph.  Every state the search reaches is a regression
//    from the goal over achievers_of(), so all its propositions lie in that
//    subgraph, where their costs equal the whole-graph ones.
//
//  * per-component best-level relaxation: every open placed(C, n)
//    proposition needs a place action of component C in the remaining tail,
//    and place actions of distinct components are distinct actions, so the
//    sum over open components of min-over-all-(node, level-combo) place cost
//    is admissible.  This is where level choice enters the bound: the min
//    ranges over every leveled grounding of C's place action.
#pragma once

#include <vector>

#include "model/compile.hpp"
#include "support/interval.hpp"

namespace sekitei::cp {

class Bound {
 public:
  explicit Bound(const model::CompiledProblem& cp);

  /// Lower bound on the cost of any tail taking `state` back to the initial
  /// state; kInf when no logical action sequence can.
  [[nodiscard]] double estimate(const std::vector<PropId>& state);

  /// Whether the goal-relevant `p` is reachable at all (hmax < inf).
  [[nodiscard]] bool reachable(PropId p) const { return prop_cost_[p.index()] < kInf; }

 private:
  const model::CompiledProblem& cp_;
  std::vector<double> prop_cost_;         // hmax per proposition
  std::vector<double> comp_min_place_;    // per component: cheapest place action
  std::vector<std::uint32_t> comp_mark_;  // epoch marks (distinct-component sum)
  std::uint32_t epoch_ = 0;
};

}  // namespace sekitei::cp
