#include "core/plrg.hpp"

#include <algorithm>

#include "support/log.hpp"
#include "support/trace.hpp"

namespace sekitei::core {

Plrg::Plrg(const model::CompiledProblem& cp, CostFn cost, StopToken stop)
    : cp_(cp), cost_fn_(std::move(cost)), stop_(std::move(stop)) {}

void Plrg::build(PropId goal) {
  const PropId goals[] = {goal};
  build(std::span<const PropId>(goals));
}

void Plrg::build(std::span<const PropId> goals) {
  trace::Span span("plrg.build", "graph");
  graph_ = model::relevant_graph(cp_, goals, stop_);
  std::vector<double> action_cost(cp_.actions.size(), 0.0);
  for (ActionId a : graph_.actions) action_cost[a.index()] = cost_fn_(a);
  const std::uint64_t sweeps =
      model::hmax_fixpoint(cp_, graph_.props, graph_.actions, action_cost, prop_cost_, stop_);
  SEKITEI_LOG_DEBUG("core.plrg", "built", log::kv("props", graph_.props.size()),
                    log::kv("actions", graph_.actions.size()), log::kv("sweeps", sweeps));
}

double Plrg::cost(PropId p) const {
  if (!p.valid() || p.index() >= prop_cost_.size()) return kInf;
  return prop_cost_[p.index()];
}

double Plrg::set_cost(std::span<const PropId> props) const {
  double m = 0.0;
  for (PropId p : props) m = std::max(m, cost(p));
  return m;
}

}  // namespace sekitei::core
