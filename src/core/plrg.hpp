// Per-proposition Logical Regression Graph (Section 3.2.1).
//
// "The algorithm first constructs a per-proposition logical regression graph
//  (PLRG), which estimates the minimum logical cost of achieving a
//  proposition from the initial state and identifies the set of relevant
//  actions.  Since the PLRG only considers logical preconditions and
//  effects, its cost estimates are a lower bound on the actual cost [...]
//  and therefore can be used as an admissible heuristic."
//
// Structure: an AND/OR graph.  Proposition cost = min over supporting
// actions; action cost = its own (leveled) cost + max over precondition
// costs.  Built by backward relevance expansion from the goal, then solved
// to a fixpoint — both shared with the CP bound (model/hmax.hpp).
#pragma once

#include <functional>
#include <span>
#include <vector>

#include "model/compile.hpp"
#include "model/hmax.hpp"
#include "support/stop_token.hpp"

namespace sekitei::core {

/// Per-action cost accessor; lets the greedy baseline run the same machinery
/// with uniform (plan-length) costs.
using CostFn = std::function<double(ActionId)>;

class Plrg {
 public:
  /// `stop` (optional) is polled between fixpoint sweeps and every 1024
  /// relevance expansions; on stop, build() returns with whatever subgraph
  /// and cost bounds exist so far (the caller is expected to abort planning).
  Plrg(const model::CompiledProblem& cp, CostFn cost, StopToken stop = {});

  /// Expands backwards from `goal` and computes the cost fixpoint.
  void build(PropId goal);

  /// Multi-goal variant: expands from every goal proposition.
  void build(std::span<const PropId> goals);

  /// Minimum logical cost of achieving p from the initial state; +inf when
  /// logically unreachable.
  [[nodiscard]] double cost(PropId p) const;

  [[nodiscard]] bool reachable(PropId p) const { return cost(p) < kInf; }

  /// Admissible estimate for a set: the most expensive member (costs of set
  /// members can overlap, so max — not sum — is the sound choice).
  [[nodiscard]] double set_cost(std::span<const PropId> props) const;

  /// Actions reachable in the backward expansion — the planner only ever
  /// branches over these.
  [[nodiscard]] const std::vector<ActionId>& relevant_actions() const { return graph_.actions; }
  [[nodiscard]] bool relevant(ActionId a) const { return graph_.action_marks[a.index()]; }

  [[nodiscard]] std::size_t prop_nodes() const { return graph_.props.size(); }
  [[nodiscard]] std::size_t action_nodes() const { return graph_.actions.size(); }

 private:
  const model::CompiledProblem& cp_;
  CostFn cost_fn_;
  StopToken stop_;
  model::RelevantGraph graph_;
  std::vector<double> prop_cost_;  // by PropId; +inf = unreachable
};

}  // namespace sekitei::core
