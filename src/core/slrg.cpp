#include "core/slrg.hpp"

#include <algorithm>
#include <cmath>

#include "support/sorted_vec.hpp"

namespace sekitei::core {

Slrg::Slrg(const model::CompiledProblem& cp, const Plrg& plrg, CostFn cost, Limits limits,
           StopToken stop)
    : cp_(cp), plrg_(plrg), cost_fn_(std::move(cost)), limits_(limits), stop_(std::move(stop)) {}

void Slrg::harvest(double query_result) {
  for (const SetId id : touched_) {
    Memo& m = memo_[id.index()];
    const double bound = query_result - m.best_g;
    if (bound <= 0 || !std::isnan(m.exact)) continue;
    if (std::isnan(m.weak) || bound > m.weak) m.weak = bound;
  }
}

void Slrg::end_query() {
  for (const SetId id : touched_) memo_[id.index()].best_g = kAbsent;
  touched_.clear();
}

double Slrg::estimate(SetId set) {
  cover();
  const std::span<const PropId> props = store_.get(set);
  if (sorted_subset(props, cp_.init_props)) {
    ++memo_hits_;
    return 0.0;
  }
  if (const double exact = memo_[set.index()].exact; !std::isnan(exact)) {
    ++memo_hits_;
    return exact;
  }
  const double base = plrg_.set_cost(props);
  if (base == kInf) {
    ++memo_misses_;
    memo_[set.index()].exact = kInf;
    return kInf;
  }
  if (const double weak = memo_[set.index()].weak; !std::isnan(weak)) {
    ++memo_hits_;
    return std::max(base, weak);
  }
  ++memo_misses_;
  // Admissible fallback, not memoized as exact.
  if (generated_ >= limits_.max_sets) return base;
  // Budget policy: the first (goal) query gets a deep search — it seeds the
  // caches everything else leans on.  If even that query cannot finish, the
  // problem's logical shell is too wide for exact set costs to pay off
  // (e.g. uniform-cost scenario B); later queries then run on a shoestring
  // and the RG leans on the PLRG bounds plus the harvested weak bounds.
  const std::uint64_t per_query =
      first_query_ ? limits_.max_sets_first_query : limits_.max_sets_per_query;
  first_query_ = false;
  const std::uint64_t query_budget = std::min(limits_.max_sets - generated_, per_query);
  std::uint64_t query_generated = 0;

  // A* graph search from `set` toward the initial state in the resource-free
  // relaxation.  Nodes live in a pool so the optimal path can be walked for
  // memoization afterwards.  The open list is a binary heap driven exactly
  // as std::priority_queue drives one.
  pool_.clear();
  open_.clear();
  auto push = [&](const Open& o) {
    open_.push_back(o);
    std::push_heap(open_.begin(), open_.end());
  };
  pool_.push_back(Node{set, UINT32_MAX, 0.0});
  memo_[set.index()].best_g = 0.0;
  touched_.push_back(set);
  ++generated_;
  ++query_generated;
  push({base, 0.0, 0});

  while (!open_.empty()) {
    const Open cur = open_.front();
    std::pop_heap(open_.begin(), open_.end());
    open_.pop_back();
    const SetId cur_set = pool_[cur.node].set;
    if (cur.g > memo_[cur_set.index()].best_g) continue;  // stale
    const std::span<const PropId> cur_props = store_.get(cur_set);

    // Termination: reaching the initial state, or any set whose exact
    // logical cost is already memoized (a node with a perfect heuristic —
    // popping it makes its f-value the optimal answer).  Either way the
    // queried set and the whole optimal path become exact.
    double terminal = kInf;
    if (sorted_subset(cur_props, cp_.init_props)) {
      terminal = 0.0;
    } else if (const double exact = memo_[cur_set.index()].exact;
               !std::isnan(exact) && exact != kInf) {
      terminal = exact;
    }
    if (terminal != kInf) {
      const double total = cur.g + terminal;
      memo_[set.index()].exact = total;
      for (std::uint32_t w = cur.node; w != UINT32_MAX; w = pool_[w].parent) {
        const double rest = total - pool_[w].g;
        double& exact = memo_[pool_[w].set.index()].exact;
        if (std::isnan(exact) || rest < exact) exact = rest;
      }
      // Harvest admissible lower bounds for every set this query touched:
      // any completion of U costs at least total - g(U) (A* invariant), so
      // later queries start from a much better heuristic.  This is what
      // makes the oracle amortize across the RG's many estimate() calls.
      harvest(total);
      end_query();
      return total;
    }

    // Symmetry pruning: with the canonical twin still unused by cur_props,
    // the transposition swapping the two fixes cur_props and the initial
    // state (pinned nodes are singletons), so the canonical branch achieves
    // the same minimal logical cost — estimates stay exact.
    const bool sym = limits_.symmetry_pruning && cp_.symmetric_class_count > 0;
    if (sym) {
      used_.assign(cp_.net->node_count(), 0);
      for (PropId p : cur_props) used_[cp_.props.key(p).node] = 1;
    }

    cands_.clear();
    for (PropId p : cur_props) {
      if (cp_.init_holds(p)) continue;
      for (ActionId a : cp_.achievers_of(p)) {
        if (!plrg_.relevant(a)) continue;
        sorted_insert(cands_, a);
      }
    }
    for (ActionId a : cands_) {
      if (sym && cp_.twin_blocked(a, used_)) {
        ++symmetry_pruned_;
        continue;
      }
      model::regress(cp_, cur_props, a, regressed_);
      const SetId nxt = store_.intern(regressed_);
      if (nxt == cur_set) continue;
      cover();
      const Memo& known = memo_[nxt.index()];
      const double g = cur.g + cost_fn_(a);
      double h;
      if (!std::isnan(known.exact)) {
        h = known.exact;  // reuse earlier oracle results
      } else {
        h = plrg_.set_cost(regressed_);
        if (!std::isnan(known.weak)) h = std::max(h, known.weak);
      }
      if (h == kInf) continue;
      if (known.best_g <= g) continue;  // false while absent (NaN)
      // Budget exhaustion and cooperative stop share one exit: both return
      // the admissible frontier bound.  The stop poll is sampled every 1024
      // generated sets so the hot loop pays nothing extra.
      const bool budget_out = query_generated >= query_budget;
      if (budget_out ||
          ((query_generated & 0x3ffu) == 0u && stop_.stop_requested())) {
        // The smallest f left in the open list is still an admissible bound
        // on the true logical cost (standard A* invariant).
        // Any solution either extends the node being expanded (cost >= its
        // f) or passes through the open list (cost >= min open f).
        const double frontier = open_.empty() ? cur.f : std::min(cur.f, open_.front().f);
        const double bound = std::max(base, frontier);
        double& weak = memo_[set.index()].weak;
        if (std::isnan(weak) || bound > weak) weak = bound;
        harvest(bound);
        end_query();
        return bound;
      }
      if (std::isnan(known.best_g)) touched_.push_back(nxt);
      memo_[nxt.index()].best_g = g;
      const std::uint32_t idx = static_cast<std::uint32_t>(pool_.size());
      pool_.push_back(Node{nxt, cur.node, g});
      ++generated_;
      ++query_generated;
      push({g + h, g, idx});
    }
  }
  // Exhausted without reaching the initial state: logically impossible.
  memo_[set.index()].exact = kInf;
  end_query();
  return kInf;
}

}  // namespace sekitei::core
