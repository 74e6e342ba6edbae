// Set Logical Regression Graph (Section 3.2.2).
//
// "Given the minimum proposition cost, the second phase computes the minimum
//  logical cost of achieving a *set* of propositions.  This phase takes into
//  account logical interactions between actions, but ignores resource
//  restrictions. [...] The construction of the SLRG employs A* search and
//  uses the logical cost of achieving propositions obtained from the PLRG as
//  an estimate of the remaining cost."
//
// The SLRG is a *graph* over proposition sets (duplicate sets are merged —
// "The RG is a tree, while the PLRG and SLRG are general graphs").  We use
// it as a memoized oracle: estimate(S) runs an A* regression from S to the
// initial state in the resource-free relaxation and returns the exact
// minimal logical cost (the paper's "logical cost of achieving a set of
// propositions"), caching S and every set on the optimal path.  The RG uses
// these values as its admissible remaining-cost estimate; because the oracle
// is exact for the relaxation, the RG only ever expands plan tails whose
// f-value is a true lower bound — this is what keeps the RG small despite
// being a tree.
//
// Duplicate sets are merged through the plan's SetStore: every set is
// interned once, and the memos (exact costs, weak bounds, the running
// query's best g) are dense arrays indexed by SetId.
#pragma once

#include <limits>
#include <vector>

#include "core/plrg.hpp"
#include "core/set_store.hpp"
#include "model/compile.hpp"
#include "support/chunked_array.hpp"
#include "support/stop_token.hpp"

namespace sekitei::core {

struct SlrgLimits {
  /// Global budget on set nodes across all oracle queries.
  std::uint64_t max_sets = 8u << 20;
  /// Budget for a single query.  A query that exhausts it still returns an
  /// admissible bound (the smallest f left in its open list) and the result
  /// is negatively cached, so no set is ever searched expensively twice.
  std::uint64_t max_sets_per_query = 20000;
  /// Budget for the very first query (the goal set): it seeds the exact and
  /// weak caches that all later queries and the whole RG lean on, so it is
  /// worth a much deeper search.
  std::uint64_t max_sets_first_query = 256u << 10;
  /// Canonical-representative pruning over the compiled problem's attached
  /// node partition (see Rg::Options::symmetry_pruning).  Estimates stay
  /// exact: a twin transposition fixes the queried set and the initial
  /// state, so the canonical branch costs exactly the same.
  bool symmetry_pruning = true;
};

class Slrg {
 public:
  using Limits = SlrgLimits;

  /// `stop` (optional) is polled every 1024 generated set nodes; a stopped
  /// query ends like a budget-exhausted one — it returns the admissible
  /// frontier bound so the caller's search stays sound while it winds down.
  Slrg(const model::CompiledProblem& cp, const Plrg& plrg, CostFn cost,
       Limits limits = Limits{}, StopToken stop = {});

  /// Exact minimal logical cost of achieving `set` from the initial state;
  /// +inf when logically impossible.  Falls back to the (admissible but
  /// weaker) PLRG max estimate if the node budget is exhausted.  Every
  /// answer is admissible, so a budget-out never makes the RG incomplete
  /// and is not reported as a search limit.
  [[nodiscard]] double estimate(SetId set);

  /// Interns `set` (sorted, unique) and forwards.
  [[nodiscard]] double estimate(const std::vector<PropId>& set) {
    return estimate(store_.intern(set));
  }

  /// Convenience: the logical plan cost for the goal set.
  [[nodiscard]] double c_logical(const std::vector<PropId>& goal_set) {
    return estimate(goal_set);
  }

  /// The plan's set store; the RG interns its child sets here.
  [[nodiscard]] SetStore& sets() { return store_; }

  /// Number of distinct set nodes ever generated (Table 2, column 7).
  [[nodiscard]] std::size_t set_count() const { return generated_; }

  /// Oracle memoization effectiveness: queries answered from the exact/weak
  /// caches (or trivially) vs queries that ran an A* regression search.
  [[nodiscard]] std::uint64_t memo_hits() const { return memo_hits_; }
  [[nodiscard]] std::uint64_t memo_misses() const { return memo_misses_; }

  /// Candidate regressions skipped by symmetry pruning across all queries.
  [[nodiscard]] std::uint64_t symmetry_pruned() const { return symmetry_pruned_; }

 private:
  static constexpr double kAbsent = std::numeric_limits<double>::quiet_NaN();

  /// What is known about one interned set; NaN means absent.
  struct Memo {
    /// Exact minimal logical cost (+inf: logically impossible).
    double exact = kAbsent;
    /// Admissible lower bound from searches that hit the per-query budget.
    double weak = kAbsent;
    /// Cheapest g of the set in the running query; reset when it ends.
    double best_g = kAbsent;
  };
  /// A set node of the running query; `g` is its regression cost from the
  /// queried set, `parent` its pool index (UINT32_MAX for the root).
  struct Node {
    SetId set;
    std::uint32_t parent = UINT32_MAX;
    double g = 0.0;
  };
  struct Open {
    double f;
    double g;
    std::uint32_t node;
    bool operator<(const Open& o) const {
      if (f != o.f) return f > o.f;
      return g < o.g;  // tie-break: prefer deeper
    }
  };

  /// Extends memo_ to every interned set (the RG interns sets too).
  void cover() { memo_.resize(store_.size()); }
  /// Folds the bound `query_result - g(U)` into the weak memo of every set
  /// the finished query generated.
  void harvest(double query_result);
  /// Clears the query's best_g entries through touched_.
  void end_query();

  const model::CompiledProblem& cp_;
  const Plrg& plrg_;
  CostFn cost_fn_;
  Limits limits_;
  StopToken stop_;
  SetStore store_;
  ChunkedArray<Memo> memo_;  // by SetId
  // Per-query buffers, reused across queries.
  std::vector<Node> pool_;
  std::vector<Open> open_;        // binary heap (std::push_heap order)
  std::vector<SetId> touched_;    // sets with a best_g in this query
  std::vector<PropId> regressed_;
  std::vector<ActionId> cands_;
  std::vector<char> used_;
  std::uint64_t generated_ = 0;
  std::uint64_t memo_hits_ = 0;
  std::uint64_t memo_misses_ = 0;
  std::uint64_t symmetry_pruned_ = 0;
  bool first_query_ = true;
};

}  // namespace sekitei::core
