// The hmax cost fixpoint over the achiever graph (Section 3.2.1).
//
// "Since the PLRG only considers logical preconditions and effects, its cost
//  estimates are a lower bound on the actual cost" — an AND/OR graph where
// a proposition costs 0 when it holds initially and otherwise the min over
// its achievers a of cost(a) + max over a's preconditions.  Achievers come
// from CompiledProblem::achievers_of(), which already carries the
// degradable/upgradable cross-level closure, so the closure rule lives in
// the compiler only.
//
// This is the one copy of the fixpoint: core::Plrg solves it with the
// planner's per-action costs (leveled or the greedy baseline's uniform
// ones), and cp::Bound solves it with leveled costs for its hmax bound.
// Both restrict it to the goal-relevant subgraph; every proposition a
// regression from the goal can reach is in that subgraph, and its cost there
// equals its cost over the whole graph.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "model/compile.hpp"
#include "support/stop_token.hpp"

namespace sekitei::model {

/// The part of the achiever graph a goal set can need: the backward
/// expansion from the goals over achievers_of(), not regressing past
/// propositions that hold initially.  Every achiever of a non-initial
/// member of `props` is in `actions`, and every precondition of a member of
/// `actions` is in `props`.
struct RelevantGraph {
  std::vector<PropId> props;       // discovery order, goals first
  std::vector<ActionId> actions;   // discovery order
  std::vector<bool> action_marks;  // by ActionId: member of `actions`
};

/// Expands backwards from `goals`.  `stop` is polled every 1024 expansions;
/// on stop the graph is truncated (the caller is expected to abort).
[[nodiscard]] RelevantGraph relevant_graph(const CompiledProblem& cp,
                                           std::span<const PropId> goals,
                                           const StopToken& stop = {});

/// Solves the fixpoint over the subgraph spanned by `props` and `actions`
/// (closed as in RelevantGraph).  `action_cost` is indexed by ActionId;
/// `cost` comes back sized to cp.props.size(), +inf outside `props` and for
/// unreachable members.  `stop` is polled between sweeps.  Returns the
/// number of sweeps.
std::uint64_t hmax_fixpoint(const CompiledProblem& cp, std::span<const PropId> props,
                            std::span<const ActionId> actions,
                            std::span<const double> action_cost, std::vector<double>& cost,
                            const StopToken& stop = {});

}  // namespace sekitei::model
