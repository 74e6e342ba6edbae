#include "cp/search.hpp"

#include <algorithm>
#include <set>

#include "cp/bound.hpp"
#include "model/replay.hpp"
#include "support/log.hpp"
#include "support/sorted_vec.hpp"
#include "support/trace.hpp"

namespace sekitei::cp {

namespace {

class Search {
 public:
  Search(const model::CompiledProblem& cp, const Options& options, Bound& bound)
      : cp_(cp), opt_(options), bound_(bound), replayer_(cp), commute_(cp) {}

  Result run();

 private:
  struct Node {
    ActionId action;           // invalid for the root
    std::uint32_t parent = 0;  // pool index
    std::vector<PropId> state;
    double g = 0.0;
  };
  struct Child {
    double f = 0.0;
    ActionId action;
    std::uint32_t node = 0;  // pool index
  };
  struct Frame {
    std::uint32_t pool_base = 0;  // pool size before this frame's children
    std::vector<Child> kids;      // sorted best-bound-first
    std::size_t next = 0;
  };

  [[nodiscard]] std::vector<ActionId> tail_of(std::uint32_t idx) const;
  void enter(std::uint32_t idx);
  void note_cut(double f);

  const model::CompiledProblem& cp_;
  const Options& opt_;
  Bound& bound_;
  model::Replayer replayer_;
  Stats st_;

  std::vector<Node> pool_;
  std::vector<Frame> stack_;
  model::Commutation commute_;

  bool has_best_ = false;
  double best_g_ = 0.0;
  std::vector<ActionId> best_steps_;
  // Complete assignments the validator rejected.  IDA*_CR re-walks every
  // earlier pass, so without this each pass would re-simulate them all.
  std::set<std::vector<ActionId>> rejected_;

  bool abort_ = false;
  double current_f_ = 0.0;  // f of the subtree being entered (frontier part)
  std::uint64_t tick_every_ = 1;

  // Iterative cost bounding: each DFS pass explores only f <= threshold_;
  // min_exceed_ collects the smallest f cut off, and completed_lb_ is the
  // certified bound from exhausted passes.  cut_ is a max-heap of the
  // cut_k_ smallest f values cut off in this pass (cut_k_ = the previous
  // pass's branches); its top becomes the next threshold.
  double threshold_ = kInf;
  double min_exceed_ = kInf;
  double completed_lb_ = 0.0;
  std::vector<double> cut_;
  std::uint64_t cut_k_ = 1;
};

std::vector<ActionId> Search::tail_of(std::uint32_t idx) const {
  std::vector<ActionId> steps;
  std::uint32_t cur = idx;
  while (pool_[cur].action.valid()) {
    steps.push_back(pool_[cur].action);
    cur = pool_[cur].parent;
  }
  return steps;  // deepest node's action first == execution order
}

void Search::note_cut(double f) {
  min_exceed_ = std::min(min_exceed_, f);
  if (cut_.size() < cut_k_) {
    cut_.push_back(f);
    std::push_heap(cut_.begin(), cut_.end());
  } else if (f < cut_.front()) {
    std::pop_heap(cut_.begin(), cut_.end());
    cut_.back() = f;
    std::push_heap(cut_.begin(), cut_.end());
  }
}

void Search::enter(std::uint32_t idx) {
  ++st_.branches;
  if (st_.branches > opt_.max_nodes) {
    st_.hit_node_limit = true;
    abort_ = true;
    return;
  }
  if (st_.branches % tick_every_ == 0) {
    st_.propagations = replayer_.calls();
    SEKITEI_LOG_TRACE("cp.search", "progress", log::kv("branches", st_.branches),
                      log::kv("nodes", st_.nodes), log::kv("depth", stack_.size()),
                      log::kv("f", current_f_));
    if (opt_.progress) opt_.progress(st_);
    if (opt_.stop.stop_requested()) {
      st_.stopped = true;
      abort_ = true;
      return;
    }
  }

  // The pool reallocates as children are appended; copy what outlives pushes.
  const std::vector<PropId> state = pool_[idx].state;
  const double g = pool_[idx].g;
  const ActionId via = pool_[idx].action;

  // Complete assignment: every open proposition holds initially and the tail
  // propagates from the initial store.  Bound pruning at the parent already
  // guarantees g < incumbent here, so any accepted assignment improves.
  if (sorted_subset(state, cp_.init_props)) {
    std::vector<ActionId> tail = tail_of(idx);
    if (replayer_.replay(tail, /*from_init=*/true, model::ReplayMode::Optimistic)) {
      bool accepted = true;
      if (opt_.validate) {
        accepted = !rejected_.contains(tail) && opt_.validate(tail, g);
        if (!accepted) rejected_.insert(tail);
      }
      if (accepted) {
        if (!has_best_ || g < best_g_) {
          has_best_ = true;
          best_g_ = g;
          best_steps_ = std::move(tail);
          ++st_.incumbents;
          st_.incumbent_cost = g;
          SEKITEI_LOG_DEBUG("cp.search", "incumbent recorded", log::kv("cost", g),
                            log::kv("steps", best_steps_.size()),
                            log::kv("branches", st_.branches));
        }
      } else {
        ++st_.sim_rejections;
      }
    } else {
      ++st_.pruned_by_propagation;
    }
    // A rejected assignment's regressions may still lead somewhere (e.g.
    // produce more of a stream elsewhere), so fall through and branch.
  }

  // Lex-leader symmetry state: nodes the assignment so far commits to.
  const bool sym = opt_.symmetry_breaking && cp_.symmetric_class_count > 0;
  std::vector<char> used;
  if (sym) {
    used.assign(cp_.net->node_count(), 0);
    for (PropId p : state) used[cp_.props.key(p).node] = 1;
    for (std::uint32_t w = idx; pool_[w].action.valid(); w = pool_[w].parent) {
      const model::GroundAction& act = cp_.actions[pool_[w].action.index()];
      if (act.node.valid()) used[act.node.index()] = 1;
      if (act.node2.valid()) used[act.node2.index()] = 1;
    }
  }

  // Branching candidates: achievers of any open proposition.
  std::vector<ActionId> cands;
  for (PropId p : state) {
    if (cp_.init_holds(p)) continue;
    for (ActionId a : cp_.achievers_of(p)) sorted_insert(cands, a);
  }

  Frame fr;
  fr.pool_base = static_cast<std::uint32_t>(pool_.size());
  std::vector<PropId> nxt;
  for (ActionId a : cands) {
    // Canonical ordering of adjacent independent actions: explore only the
    // ascending-id order of a commuting pair.
    if (via.valid() && a > via && commute_.independent(a, via)) continue;
    if (sym && cp_.twin_blocked(a, used)) {
      ++st_.pruned_symmetry;
      continue;
    }
    if (opt_.forbid_repeated_actions) {
      bool seen = false;
      for (std::uint32_t w = idx; pool_[w].action.valid(); w = pool_[w].parent) {
        if (pool_[w].action == a) {
          seen = true;
          break;
        }
      }
      if (seen) continue;
    }
    model::regress(cp_, state, a, nxt);
    if (nxt == state) continue;
    const double h = bound_.estimate(nxt);
    if (h == kInf) continue;
    const double g2 = g + cp_.actions[a.index()].cost_lb;
    const double f = g2 + h;
    if (f > threshold_) {
      note_cut(f);
      ++st_.pruned_by_bound;
      continue;
    }
    if (has_best_ && f >= best_g_) {
      ++st_.pruned_by_bound;
      continue;
    }
    const std::uint32_t child = static_cast<std::uint32_t>(pool_.size());
    pool_.push_back(Node{a, idx, nxt, g2});
    if (!replayer_.replay(tail_of(child), /*from_init=*/false, model::ReplayMode::Optimistic)) {
      ++st_.pruned_by_propagation;
      pool_.pop_back();
      continue;
    }
    ++st_.nodes;
    fr.kids.push_back({f, a, child});
  }
  std::sort(fr.kids.begin(), fr.kids.end(), [](const Child& x, const Child& y) {
    if (x.f != y.f) return x.f < y.f;
    return x.action < y.action;
  });
  stack_.push_back(std::move(fr));
  if (stack_.size() > st_.peak_depth) st_.peak_depth = stack_.size();
}

Result Search::run() {
  Result r;
  trace::Span span("cp.search", "cp", &st_.search_ms);
  tick_every_ = std::max<std::uint64_t>(1, opt_.progress_every);

  for (PropId gp : cp_.goal_props) {
    if (!bound_.reachable(gp)) {
      st_.logically_unreachable = true;
      st_.proven = true;
      st_.lower_bound = kInf;
      span.finish();
      r.stats = st_;
      r.failure = "goal " + cp_.describe(gp) + " is logically unreachable";
      return r;
    }
  }

  // Iterative cost bounding (branch-and-bound with rising f-thresholds,
  // IDA*-flavoured): a depth-first pass bounded by `threshold_` either
  // exhausts the whole f <= threshold_ slice — proving any incumbent it
  // found optimal (cut subtrees have f > threshold_ >= incumbent g, and the
  // bound is admissible: f of a node lower-bounds every goal below it) or,
  // with no incumbent and nothing cut, proving infeasibility — or it raises
  // the threshold and dives again.  This is what keeps plain DFS sound AND
  // complete here: an unbounded first dive can wander a deep junk subtree
  // forever before finding any incumbent to prune with, while each bounded
  // pass keeps tails near the optimum.
  //
  // Controlled re-expansion (IDA*_CR, see search.hpp): the next threshold
  // is the k-th smallest f cut off by the pass, k = the previous pass's
  // branches.  Raising it only to the cheapest cut f re-walks the whole
  // tree for every distinct f value (Small/C: 286 passes, 501k branches).
  const double root_f = bound_.estimate(cp_.goal_props);
  threshold_ = root_f;
  while (!abort_) {
    const std::uint64_t pass_start = st_.branches;
    ++st_.passes;
    min_exceed_ = kInf;
    cut_.clear();
    pool_.clear();
    stack_.clear();
    pool_.push_back(Node{ActionId{}, 0, cp_.goal_props, 0.0});
    ++st_.nodes;
    current_f_ = root_f;
    enter(0);

    while (!abort_ && !stack_.empty()) {
      Frame& fr = stack_.back();
      if (fr.next >= fr.kids.size()) {
        // Subtree exhausted: reclaim its pool slice (strict LIFO discipline
        // keeps memory proportional to the current branch, not the tree).
        pool_.resize(fr.pool_base);
        stack_.pop_back();
        continue;
      }
      const Child kid = fr.kids[fr.next++];
      // Re-check against the incumbent, which may have improved since the
      // child was generated.
      if (has_best_ && kid.f >= best_g_) {
        ++st_.pruned_by_bound;
        continue;
      }
      current_f_ = kid.f;
      enter(kid.node);
    }
    if (abort_) break;
    if (has_best_) break;          // pass completed: the incumbent is optimal
    if (min_exceed_ == kInf) break;  // nothing cut: the whole space is empty
    completed_lb_ = min_exceed_;   // optimum proven > threshold_
    threshold_ = std::max(min_exceed_, cut_.front());
    cut_k_ = st_.branches - pass_start;
    SEKITEI_LOG_TRACE("cp.search", "raising threshold", log::kv("threshold", threshold_),
                      log::kv("passes", st_.passes), log::kv("branches", st_.branches));
  }

  st_.propagations = replayer_.calls();
  span.finish();

  if (!abort_) {
    st_.proven = true;
    if (has_best_) {
      st_.lower_bound = best_g_;
      r.cost = best_g_;
      r.steps = std::move(best_steps_);
    } else {
      st_.lower_bound = kInf;
      r.failure = "no resource-feasible plan exists under the given levels";
    }
    SEKITEI_LOG_INFO("cp.search", r.ok() ? "optimum proven" : "infeasibility proven",
                     log::kv("cost", r.cost), log::kv("branches", st_.branches),
                     log::kv("passes", st_.passes), log::kv("nodes", st_.nodes),
                     log::kv("ms", st_.search_ms));
    r.stats = st_;
    return r;
  }

  // Cut short: the min f over the unexplored frontier bounds the optimum
  // (f of a node lower-bounds every goal below it), and so does the largest
  // exhausted threshold; report the tighter of the two.
  double frontier = std::min(current_f_, min_exceed_);
  for (const Frame& fr : stack_) {
    for (std::size_t j = fr.next; j < fr.kids.size(); ++j) {
      frontier = std::min(frontier, fr.kids[j].f);
    }
  }
  st_.lower_bound = std::max(frontier, completed_lb_);

  const bool anytime = opt_.anytime && opt_.stop.stop_possible();
  if (anytime && has_best_) {
    SEKITEI_LOG_INFO("cp.search", "returning anytime incumbent", log::kv("cost", best_g_),
                     log::kv("open_lb", frontier), log::kv("branches", st_.branches));
    r.cost = best_g_;
    r.steps = std::move(best_steps_);
  } else {
    r.failure = st_.stopped ? "stopped before the search completed"
                            : "search limit exhausted before finding a plan";
  }
  r.stats = st_;
  return r;
}

}  // namespace

Result solve(const model::CompiledProblem& cp, const Options& options) {
  double bound_ms = 0.0;
  trace::Span bound_span("cp.bound", "cp", &bound_ms);
  Bound bound(cp);
  bound_span.finish();
  Search search(cp, options, bound);
  Result r = search.run();
  r.stats.bound_ms = bound_ms;
  return r;
}

}  // namespace sekitei::cp
