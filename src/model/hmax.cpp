#include "model/hmax.hpp"

#include <algorithm>

namespace sekitei::model {

RelevantGraph relevant_graph(const CompiledProblem& cp, std::span<const PropId> goals,
                             const StopToken& stop) {
  RelevantGraph g;
  std::vector<bool> prop_marks(cp.props.size(), false);
  g.action_marks.assign(cp.actions.size(), false);
  auto touch = [&](PropId p) {
    if (!prop_marks[p.index()]) {
      prop_marks[p.index()] = true;
      g.props.push_back(p);
    }
  };
  for (PropId goal : goals) touch(goal);
  // g.props doubles as the breadth-first frontier.
  for (std::size_t next = 0; next < g.props.size(); ++next) {
    // Cooperative stop, polled at a cadence so the hot loop stays cheap.
    if (((next + 1) & 0x3ffu) == 0u && stop.stop_requested()) break;
    const PropId p = g.props[next];
    if (cp.init_holds(p)) continue;  // already true: no need to regress further
    for (ActionId a : cp.achievers_of(p)) {
      if (g.action_marks[a.index()]) continue;
      g.action_marks[a.index()] = true;
      g.actions.push_back(a);
      for (PropId q : cp.actions[a.index()].pre) touch(q);
    }
  }
  return g;
}

std::uint64_t hmax_fixpoint(const CompiledProblem& cp, std::span<const PropId> props,
                            std::span<const ActionId> actions,
                            std::span<const double> action_cost, std::vector<double>& cost,
                            const StopToken& stop) {
  cost.assign(cp.props.size(), kInf);
  for (PropId p : props) {
    if (cp.init_holds(p)) cost[p.index()] = 0.0;
  }
  // Bellman-Ford style sweeps: costs only decrease and every decrease traces
  // back to a shorter support chain, so the sweeps terminate.
  std::vector<double> via(cp.actions.size(), kInf);
  std::uint64_t sweeps = 0;
  bool changed = true;
  while (changed && !stop.stop_requested()) {
    changed = false;
    ++sweeps;
    for (ActionId a : actions) {
      double pre_max = 0.0;
      for (PropId q : cp.actions[a.index()].pre) {
        pre_max = std::max(pre_max, cost[q.index()]);
        if (pre_max == kInf) break;
      }
      via[a.index()] = pre_max == kInf ? kInf : action_cost[a.index()] + pre_max;
    }
    for (PropId p : props) {
      double& c = cost[p.index()];
      if (c == 0.0) continue;  // holds initially
      for (ActionId a : cp.achievers_of(p)) {
        if (via[a.index()] < c) {
          c = via[a.index()];
          changed = true;
        }
      }
    }
  }
  return sweeps;
}

}  // namespace sekitei::model
