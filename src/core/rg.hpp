// Main Regression Graph (Section 3.2.3).
//
// "The final phase of the algorithm is construction of the main regression
//  graph (RG).  The RG contains totally ordered plan tails and is expanded
//  using A* search.  The logical cost of achieving a set of propositions is
//  used as an estimate of the remaining cost. [...] Since resource failures
//  depend on the plan tail, it is not possible to reuse nodes in the RG.
//  The RG is a tree, while the PLRG and SLRG are general graphs."
//
// Every tail is replayed through the optimistic resource maps
// (model/replay.hpp) before its node is expanded, and pruned on failure —
// the early detection of quality-of-service violations the paper highlights.
// The replay runs when a node is popped, not when it is generated: the
// node's f = g + h does not depend on it, and most generated nodes are never
// popped.  The open list is totally ordered (f, then larger g, then the
// newer node), so the surviving nodes pop in the same order as if failing
// tails had been cut at generation; a failing node is only discarded later.
// A node stores its step, its parent and the SetId of its proposition set
// in the plan's SetStore: the set is interned when the node is generated,
// since its h needs it anyway, so nothing is rebuilt when the node is popped.
// The search ends when a node's proposition set holds in the initial state
// AND the tail replays in the initial-state resource map (plus an optional
// external concrete validation, e.g. the simulator).
//
// Level variants (optimistic replay only): a compiled problem may group the
// actions of one site that differ only in a scenario-leveled resource
// interval and in cost (model::VariantGroup; scenario E's bandwidth levels).
// The search then branches once per group, not once per member -- Partial-
// Expansion A* (Yoshizumi et al., AAAI 2000) applied to level variants:
//   * a group child adds the cheapest member's cost, so f stays admissible;
//   * its tail replays through the group's hull intervals, which contain
//     every member's, so the replay gate prunes only what every member fails;
//   * a goal node whose tail holds a group step is split: one copy per
//     member of the group step nearest the node, re-pushed with its exact g.
//     Copies only refine (they are never expanded; the group node's own
//     children cover every longer tail) and split again until all-ground.
// Only an all-ground tail takes the goal test, becomes an anytime
// incumbent or is returned, so plans hold action ids only.  Greedy
// (WorstCase) replay branches on actions: its certain() test can fail on a
// wider interval, so a hull does not over-approximate its members there.
#pragma once

#include <functional>
#include <optional>

#include "core/plan.hpp"
#include "core/slrg.hpp"
#include "core/stats.hpp"
#include "model/replay.hpp"
#include "support/chunked_array.hpp"
#include "support/stop_token.hpp"

namespace sekitei::core {

class Rg {
 public:
  struct Options {
    std::uint64_t max_expansions = 1u << 20;
    /// Forbid the exact same ground action twice in one tail.  Keeps the
    /// tree finite even in pathological cost structures; no stream-delivery
    /// plan benefits from repeating an identical leveled action.
    bool forbid_repeated_actions = true;
    /// Symmetry (canonical-representative) pruning: when the compiled
    /// problem carries a verified node partition (analysis::attach_symmetry),
    /// a candidate that introduces a node unused by the tail-so-far is
    /// skipped whenever a smaller-index interchangeable twin is also still
    /// unused — the twin's branch is an automorphism image of this one at
    /// identical cost.  No-op on problems without an attached partition.
    bool symmetry_pruning = true;
    /// Replay semantics for both search-time tail replays and the final
    /// initial-state check.  WorstCase reproduces the greedy baseline.
    model::ReplayMode replay_mode = model::ReplayMode::Optimistic;
    /// Observer invoked every `progress_every` expansions with the live
    /// stats snapshot (see PlannerOptions::progress).
    std::function<void(const PlannerStats&)> progress;
    std::uint64_t progress_every = 8192;
    /// Cooperative stop (deadline/cancellation), polled at the same
    /// `progress_every` cadence — the hot expansion loop pays no extra cost.
    /// On stop the search returns no plan and sets stats.stopped.
    StopToken stop;
    /// Anytime mode: record the best feasible plan (replayed from the
    /// initial state and validated) as goal-satisfying children are
    /// generated; when the stop token fires — or the expansion budget runs
    /// out — before optimality is proven, return that incumbent flagged
    /// stats.suboptimal_on_stop instead of nothing.  Only active while a
    /// stop can actually fire (stop.stop_possible()), so unstoppable runs
    /// do byte-identical work to a non-anytime search.
    bool anytime = true;
  };

  /// `validate` (optional) gets the candidate plan after it replays from the
  /// initial state; returning false rejects it and resumes the search.
  using Validator = std::function<bool(const Plan&)>;

  Rg(const model::CompiledProblem& cp, Slrg& slrg, const Plrg& plrg, CostFn cost);

  [[nodiscard]] std::optional<Plan> search(const std::vector<PropId>& goal_set,
                                           const Options& options, const Validator& validate,
                                           PlannerStats& stats);

 private:
  /// 12 bytes: most generated nodes are never popped, so a node holds its
  /// set by id.  Its cost `g` travels in the open-list entry.
  struct Node {
    ActionId action;           // a step (action or group); invalid for the root
    std::uint32_t parent = 0;  // index into pool; root points to itself
    SetId state;               // propositions still to achieve
  };
  static_assert(sizeof(Node) == 12);

  /// Writes the tail of node `idx` into `steps`, in execution order (the
  /// node's own action first).
  void tail_of(std::uint32_t idx, std::vector<ActionId>& steps) const;
  /// g of a tail: its steps' costs (a group step at its cheapest member's)
  /// added from the root down, in the order the search adds them.
  [[nodiscard]] double path_cost(std::span<const ActionId> tail) const;

  const model::CompiledProblem& cp_;
  Slrg& slrg_;
  const Plrg& plrg_;
  CostFn cost_fn_;
  ChunkedArray<Node> pool_;
  model::Commutation commute_;
  // Buffers reused across expansions.
  std::vector<PropId> regressed_;  // child set
  std::vector<ActionId> tail_;     // the popped node's tail
  std::vector<ActionId> probe_;    // a generated node's tail (incumbents, splits)
  std::vector<ActionId> cands_;    // candidate steps
  std::vector<std::uint32_t> chain_;  // nodes copied by a split
  std::vector<char> used_;         // symmetry pruning's node mask
};

}  // namespace sekitei::core
