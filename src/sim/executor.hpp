// Concrete deployment execution.
//
// The planner reasons over intervals; the executor turns an accepted plan
// into an actual deployment with concrete numbers:
//   * initial-state *choice* intervals (e.g. the server's [0,200] production)
//     are resolved greedily within the plan's levels — maximise the amount,
//     exactly the paper's greedy-within-level reservation that makes
//     scenario B process 100 units and scenario C reserve 65 LAN units;
//   * when the maximum violates a condition, monotone bisection finds the
//     highest feasible amount (the soundness premise of Section 2.2 makes
//     feasibility monotone below the failure point);
//   * every action's conditions are re-checked with concrete values, so an
//     execution report is an independent proof that the plan is real.
//
// The executor doubles as the planner's validation hook: Sekitei rejects
// plan candidates the executor cannot realize.
#pragma once

#include <span>
#include <string>
#include <vector>

#include "core/plan.hpp"
#include "model/compile.hpp"

namespace sekitei::sim {

struct LinkUse {
  LinkId link;
  net::LinkClass cls = net::LinkClass::Other;
  double used = 0.0;  // bandwidth reserved on this link by the plan
};

struct NodeUse {
  NodeId node;
  double used = 0.0;  // cpu consumed on this node by the plan
};

struct ExecutionReport {
  bool feasible = false;
  std::string failure;

  /// Chosen values for the initial-state choice intervals, in init_map order.
  std::vector<double> choices;

  /// Realized plan cost (sum of per-action cost formulae at concrete values).
  double actual_cost = 0.0;

  std::vector<LinkUse> link_use;   // only links actually touched
  std::vector<NodeUse> node_use;   // only nodes actually touched

  /// Maximum bandwidth reserved on any link of the class — Table 2's
  /// "reserved LAN bw" column.  0 when no such link is used.
  [[nodiscard]] double max_reserved(net::LinkClass cls) const;
  /// Total bandwidth reserved across links of the class.
  [[nodiscard]] double total_reserved(net::LinkClass cls) const;

  /// Value of a located variable after execution (NaN if untouched).
  [[nodiscard]] double final_value(VarId v) const;

  std::vector<std::pair<VarId, double>> final_vars;
};

class Executor {
 public:
  explicit Executor(const model::CompiledProblem& cp);

  /// Executes the plan, resolving choices greedily (see file comment).
  [[nodiscard]] ExecutionReport execute(const core::Plan& plan);

  /// Executes with fixed choice values (init_map order of non-point
  /// entries); used by execute() and directly by tests.
  [[nodiscard]] ExecutionReport attempt(const core::Plan& plan,
                                        std::span<const double> choices);

  /// Number of choice variables in the problem's initial state.
  [[nodiscard]] std::size_t choice_count() const { return ranges_.size(); }

 private:
  enum class FaultKind : unsigned char {
    None,  // the plan executed
    ChoiceOutOfRange,
    NeverProduced,
    InputBelow,
    InputAbove,
    InputOutside,
    Condition,  // index names the condition
    Output,     // index names the effect
  };
  /// What one execution found: everything a report needs but the values.
  struct Fault {
    FaultKind kind = FaultKind::None;
    std::uint32_t step = 0;   // plan step that failed
    std::uint32_t index = 0;  // condition or effect index within it
    double cost = 0.0;        // cost of the steps that completed
  };

  /// The kernel behind attempt() and execute()'s probes: runs the plan with
  /// fixed choices into values_, allocating nothing and formatting nothing.
  [[nodiscard]] Fault run(const core::Plan& plan, std::span<const double> choices);
  /// Renders the report of run(plan, choices), which must be the last run.
  [[nodiscard]] ExecutionReport report(const core::Plan& plan, std::span<const double> choices,
                                       const Fault& fault) const;

  const model::CompiledProblem& cp_;
  std::vector<Interval> ranges_;  // usable range of each choice, init_map order
  model::VarMap<double> values_;
  std::vector<double> slots_;
  std::vector<double> x_, best_x_;  // execute()'s probe and its best feasible point
};

}  // namespace sekitei::sim
