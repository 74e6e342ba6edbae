// CP branch-and-bound over the leveled regression space (ROADMAP item 1).
//
// The decision variables are exactly the paper's: which component goes on
// which node, and at which levels the streams flow — each decision is the
// commitment to one leveled ground action, so a complete assignment is a
// plan tail.  The search is depth-first branch-and-bound: dive best-bound
// first, record validated incumbents, and prune any partial assignment whose
// g + lower bound reaches the incumbent's cost.
//
// The dives are cost-bounded passes (IDA*-style).  A pass at threshold T
// cuts every node with f = g + h > T.  When it completes with no incumbent
// and a non-empty cut, the next threshold is the k-th smallest f it cut,
// k = the branches of the pass before it (1 for the first pass): controlled
// re-expansion (IDA*_CR, Sarkar et al., AIJ 1991), so the tree about
// doubles per pass and the passes together cost a constant times the last
// one.  Soundness holds for any T >= the smallest cut f: a completed pass
// accepted only incumbents with g <= f <= T and cut only nodes with f > T,
// so its incumbent is optimal (h is admissible), and a completed pass that
// cut nothing and found no incumbent proves infeasibility.  The smallest
// cut f of a pass without an incumbent is a certified lower bound on the
// optimum (Stats::lower_bound when the search is cut short).
//
// Constraint propagation runs the partial assignment's tail through the
// shared replay kernel (model::Replayer, Optimistic mode) and rejects it
// when the optimistic map empties; admissible bounds (cp::Bound) come from
// the shared hmax fixpoint (model/hmax.hpp) plus per-component best-level
// relaxations.
//
// Symmetry breaking: the node equivalence classes attached by
// analysis::attach_symmetry become lex-leader constraints — a fresh node of
// a class may only be introduced if every smaller unused twin is, too
// (identical to the RG rule, toggleable for CP-with-vs-without experiments).
//
// The backends share the planning semantics, which live once in src/model:
// the replay kernel and the hmax fixpoint.  The regression move set, pruning
// rules and acceptance checks mirror the RG search.  So both backends agree
// on feasibility and optimal cost by construction and differ only in
// search, which is what makes CP an independent optimality oracle for the
// fuzzer (`--oracles cp`) and a comparable competitor in bench_cp.
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "model/compile.hpp"
#include "support/stop_token.hpp"

namespace sekitei::cp {

struct Stats {
  std::uint64_t nodes = 0;     // search nodes created (root included)
  std::uint64_t branches = 0;  // nodes visited (the budget unit)
  std::uint64_t propagations = 0;
  std::uint64_t pruned_by_bound = 0;
  std::uint64_t pruned_by_propagation = 0;
  std::uint64_t pruned_symmetry = 0;
  std::uint64_t peak_depth = 0;  // deepest DFS stack
  std::uint64_t incumbents = 0;  // incumbent improvements recorded
  std::uint64_t passes = 0;      // cost-bounded DFS passes started
  std::uint64_t sim_rejections = 0;
  /// Cost of the best incumbent; meaningful when incumbents > 0.
  double incumbent_cost = 0.0;
  /// Lower bound on the optimal cost: the proven optimum when the search
  /// completes, else the min f over the unexplored frontier at the cut.
  double lower_bound = 0.0;
  double bound_ms = 0.0;   // Bound construction (the "graph" phase)
  double search_ms = 0.0;  // the DFS itself
  bool proven = false;     // search space exhausted: the answer is exact
  bool stopped = false;
  bool hit_node_limit = false;
  bool logically_unreachable = false;
};

struct Options {
  /// Lex-leader constraints over the attached node symmetry partition.
  /// Costs are unchanged — only which of several interchangeable twins
  /// appears in the plan.  No-op when no partition is attached.
  bool symmetry_breaking = true;
  bool forbid_repeated_actions = true;
  std::uint64_t max_nodes = 1u << 21;  // visited-node budget
  std::uint64_t progress_every = 8192;
  StopToken stop;
  /// Return the best incumbent when the search is cut short (only when the
  /// stop token can actually fire — budget-only runs stay byte-identical to
  /// exhaustive ones, like the RG's anytime gate).
  bool anytime = true;
  /// Concrete acceptance check for complete assignments (the simulator
  /// hook); a rejected assignment resumes the search.  It must be a pure
  /// function of the steps (the cost is theirs too): the search calls it
  /// once per distinct assignment and remembers a rejection for the later
  /// passes, which still count it in Stats::sim_rejections.
  std::function<bool(std::span<const ActionId>, double cost)> validate;
  std::function<void(const Stats&)> progress;
};

struct Result {
  std::optional<std::vector<ActionId>> steps;  // execution order
  double cost = 0.0;
  Stats stats;
  std::string failure;  // human-readable reason when !steps

  [[nodiscard]] bool ok() const { return steps.has_value(); }
};

/// Solves the compiled problem to cost-optimality (leveled cost_lb metric).
[[nodiscard]] Result solve(const model::CompiledProblem& cp, const Options& options = {});

}  // namespace sekitei::cp
