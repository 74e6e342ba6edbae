#include "cp/bound.hpp"

#include <algorithm>

#include "model/hmax.hpp"

namespace sekitei::cp {

Bound::Bound(const model::CompiledProblem& cp) : cp_(cp) {
  const model::RelevantGraph graph = model::relevant_graph(cp_, cp_.goal_props);
  std::vector<double> action_cost(cp_.actions.size());
  for (std::size_t a = 0; a < action_cost.size(); ++a) action_cost[a] = cp_.actions[a].cost_lb;
  model::hmax_fixpoint(cp_, graph.props, graph.actions, action_cost, prop_cost_);

  std::uint32_t comp_count = 0;
  for (const model::GroundAction& act : cp_.actions) {
    if (act.kind == model::ActionKind::Place) {
      comp_count = std::max(comp_count, act.spec_index + 1);
    }
  }
  comp_min_place_.assign(comp_count, kInf);
  for (const model::GroundAction& act : cp_.actions) {
    if (act.kind != model::ActionKind::Place) continue;
    comp_min_place_[act.spec_index] = std::min(comp_min_place_[act.spec_index], act.cost_lb);
  }
  comp_mark_.assign(comp_count, 0);
}

double Bound::estimate(const std::vector<PropId>& state) {
  ++epoch_;
  double hmax = 0.0;
  double additive = 0.0;
  for (PropId p : state) {
    const double c = prop_cost_[p.index()];
    if (c == kInf) return kInf;
    hmax = std::max(hmax, c);
    if (c == 0.0) continue;  // holds initially: nothing left to pay for it
    const model::PropKey& key = cp_.props.key(p);
    if (key.kind != model::PropKind::Placed) continue;
    if (key.entity < comp_mark_.size() && comp_mark_[key.entity] != epoch_) {
      comp_mark_[key.entity] = epoch_;
      additive += comp_min_place_[key.entity];
    }
  }
  return std::max(hmax, additive);
}

}  // namespace sekitei::cp
