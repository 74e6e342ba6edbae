#include "analysis/symmetry.hpp"

#include <algorithm>
#include <cstdio>
#include <map>
#include <string>
#include <vector>

namespace sekitei::analysis {

namespace {

using model::CompiledProblem;

std::string number_sig(double v) {
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

/// Canonical rendering of a link's (class, resource map): equal signatures
/// iff the links are interchangeable for every compiled condition.
std::string link_sig(const net::Link& l) {
  std::string out(net::link_class_name(l.cls));
  for (const auto& [k, v] : l.resources) {  // std::map: sorted keys
    out += '|';
    out += k;
    out += '=';
    out += number_sig(v);
  }
  return out;
}

std::vector<char> pinned_nodes(const CompiledProblem& cp) {
  std::vector<char> pinned(cp.net->node_count(), 0);
  auto pin = [&](NodeId n) {
    if (n.valid() && n.index() < pinned.size()) pinned[n.index()] = 1;
  };
  for (const auto& s : cp.problem->initial_streams) pin(s.node);
  for (const auto& [comp, n] : cp.problem->preplaced) pin(n);
  pin(cp.problem->goal_node);
  for (const auto& [comp, n] : cp.problem->extra_goals) pin(n);
  return pinned;
}

/// Seed color: resource vector + per-component placement-rule admissibility;
/// pinned nodes get a unique color (they can never be swapped for a twin —
/// the initial state and the goal name them).
std::vector<std::string> seed_signatures(const CompiledProblem& cp,
                                         const std::vector<char>& pinned) {
  const std::size_t n_nodes = cp.net->node_count();
  std::vector<std::string> sigs(n_nodes);
  for (std::size_t n = 0; n < n_nodes; ++n) {
    if (pinned[n] != 0) {
      sigs[n] = "pin#" + std::to_string(n);
      continue;
    }
    const NodeId id(static_cast<std::uint32_t>(n));
    std::string s = "res";
    for (const auto& [k, v] : cp.net->node(id).resources) {
      s += '|';
      s += k;
      s += '=';
      s += number_sig(v);
    }
    s += "!place";
    for (std::size_t c = 0; c < cp.domain->component_count(); ++c) {
      s += cp.problem->placeable_at(cp.domain->component_at(c).name, id) ? '1' : '0';
    }
    sigs[n] = std::move(s);
  }
  return sigs;
}

/// Per-node, per-neighbor multiset of incident-link signatures.
using NeighborSigs = std::map<std::uint32_t, std::vector<std::string>>;

std::vector<NeighborSigs> neighbor_signatures(const CompiledProblem& cp) {
  std::vector<NeighborSigs> out(cp.net->node_count());
  for (std::size_t n = 0; n < cp.net->node_count(); ++n) {
    const NodeId id(static_cast<std::uint32_t>(n));
    for (const LinkId lid : cp.net->links_at(id)) {
      const net::Link& l = cp.net->link(lid);
      out[n][l.other(id).index()].push_back(link_sig(l));
    }
    for (auto& [w, sigs] : out[n]) std::sort(sigs.begin(), sigs.end());
  }
  return out;
}

/// True when the transposition (r m) — swap r and m, fix every other node —
/// is an automorphism of the network.  Callers guarantee equal seed colors
/// (resources, placement rules, pinnedness), so only link structure is left:
/// for every third node w, the link multiset r–w must equal m–w, and any
/// self-loops must swap onto each other.  Links r–m map to themselves.
bool transposition_ok(std::uint32_t r, std::uint32_t m,
                      const std::vector<NeighborSigs>& nbr) {
  NeighborSigs a = nbr[r];
  NeighborSigs b = nbr[m];
  a.erase(m);  // r–m links map onto m–r links: the same undirected links
  b.erase(r);
  const auto ita = a.find(r);  // self loops r–r <-> m–m
  const auto itb = b.find(m);
  const bool sa = ita != a.end(), sb = itb != b.end();
  if (sa != sb) return false;
  if (sa) {
    if (ita->second != itb->second) return false;
    a.erase(r);
    b.erase(m);
  }
  return a == b;
}

std::vector<std::vector<std::uint32_t>> compute_classes(const CompiledProblem& cp) {
  const std::size_t n_nodes = cp.net->node_count();
  const std::vector<char> pinned = pinned_nodes(cp);
  std::vector<std::string> sigs = seed_signatures(cp, pinned);
  const std::vector<NeighborSigs> nbr = neighbor_signatures(cp);

  // Color refinement to a fixpoint: refine each node's color by the multiset
  // of (neighbor color, link signature) pairs.  Colors only ever split, so a
  // round that does not grow the color count is the fixpoint.
  std::vector<std::uint32_t> color(n_nodes, 0);
  std::size_t color_count = 0;
  {
    std::map<std::string, std::uint32_t> dense;
    for (std::size_t n = 0; n < n_nodes; ++n) {
      color[n] = dense.emplace(sigs[n], static_cast<std::uint32_t>(dense.size()))
                     .first->second;
    }
    color_count = dense.size();
  }
  for (std::size_t round = 0; round < n_nodes; ++round) {
    std::map<std::string, std::uint32_t> dense;
    std::vector<std::uint32_t> next(n_nodes, 0);
    for (std::size_t n = 0; n < n_nodes; ++n) {
      // Appended, not "c" + to_string(...): GCC 12 raises a false -Wrestrict.
      std::string s = "c";
      s += std::to_string(color[n]);
      std::vector<std::string> parts;
      for (const auto& [w, lsigs] : nbr[n]) {
        for (const std::string& ls : lsigs) {
          parts.push_back(std::to_string(color[w]) + '~' + ls);
        }
      }
      std::sort(parts.begin(), parts.end());
      for (const std::string& p : parts) {
        s += '/';
        s += p;
      }
      next[n] = dense.emplace(std::move(s), static_cast<std::uint32_t>(dense.size()))
                    .first->second;
    }
    color = std::move(next);
    if (dense.size() == color_count) break;
    color_count = dense.size();
  }

  // Refinement over-approximates the orbit partition: verify each candidate
  // class member by an explicit transposition-automorphism check against a
  // representative.  Failed members regroup among themselves (conjugation
  // keeps verified classes transitive: (n m)(m k)(n m) = (n k)).
  std::map<std::uint32_t, std::vector<std::uint32_t>> by_color;
  for (std::size_t n = 0; n < n_nodes; ++n) {
    by_color[color[n]].push_back(static_cast<std::uint32_t>(n));
  }
  std::vector<std::vector<std::uint32_t>> classes;
  for (auto& [c, members] : by_color) {
    std::vector<std::uint32_t> todo = members;  // ascending by construction
    while (!todo.empty()) {
      std::vector<std::uint32_t> cls{todo.front()};
      std::vector<std::uint32_t> rest;
      for (std::size_t i = 1; i < todo.size(); ++i) {
        if (transposition_ok(cls.front(), todo[i], nbr)) {
          cls.push_back(todo[i]);
        } else {
          rest.push_back(todo[i]);
        }
      }
      classes.push_back(std::move(cls));
      todo = std::move(rest);
    }
  }
  std::sort(classes.begin(), classes.end(),
            [](const auto& x, const auto& y) { return x.front() < y.front(); });
  return classes;
}

void compute_dominance(const CompiledProblem& cp, SymmetryAnalysis& out) {
  const std::size_t n_nodes = cp.net->node_count();
  const std::vector<NeighborSigs> nbr_sigs = neighbor_signatures(cp);

  // Per-node single-link-per-neighbor resource view; multi-edges make hull
  // comparison ambiguous, so dominance claims nothing across them.
  std::vector<std::map<std::uint32_t, std::vector<LinkId>>> nbr(n_nodes);
  for (std::size_t n = 0; n < n_nodes; ++n) {
    const NodeId id(static_cast<std::uint32_t>(n));
    for (const LinkId lid : cp.net->links_at(id)) {
      nbr[n][cp.net->link(lid).other(id).index()].push_back(lid);
    }
  }

  auto dominates = [&](std::uint32_t a, std::uint32_t b) {
    if (a == b || out.pinned[b] != 0 || out.pinned[a] != 0) return false;
    const NodeId na(a), nb(b);
    // Placement rules: everything allowed on B must be allowed on A.
    for (std::size_t c = 0; c < cp.domain->component_count(); ++c) {
      const std::string& comp = cp.domain->component_at(c).name;
      if (cp.problem->placeable_at(comp, nb) && !cp.problem->placeable_at(comp, na)) {
        return false;
      }
    }
    // Node capacities: pointwise >= over B's declared resources.
    for (const auto& [k, v] : cp.net->node(nb).resources) {
      if (cp.net->node(na).resource(k) < v) return false;
    }
    // Neighborhood: A reaches every neighbor of B over a link whose resource
    // hull is pointwise >= B's link.  Self loops and parallel links bail.
    for (const auto& [w, blinks] : nbr[b]) {
      if (w == a) continue;  // the B–A link itself needs no counterpart
      if (w == b || blinks.size() != 1) return false;
      const auto it = nbr[a].find(w);
      if (it == nbr[a].end() || it->second.size() != 1) return false;
      const net::Link& bl = cp.net->link(blinks.front());
      const net::Link& al = cp.net->link(it->second.front());
      for (const auto& [k, v] : bl.resources) {
        if (al.resource(k) < v) return false;
      }
    }
    return true;
  };

  for (std::uint32_t b = 0; b < n_nodes; ++b) {
    if (out.pinned[b] != 0) continue;
    for (std::uint32_t a = 0; a < n_nodes; ++a) {
      if (dominates(a, b) && !dominates(b, a)) {
        out.dominated.push_back({b, a});
        break;  // report the smallest-index strict dominator only
      }
    }
  }
}

void compute_unusable(const CompiledProblem& cp, SymmetryAnalysis& out) {
  const std::size_t n_nodes = cp.net->node_count();
  const std::size_t n_comps = cp.domain->component_count();
  std::vector<char> place_at(n_nodes, 0);
  std::vector<char> comp_placeable(n_comps, 0);
  for (const model::GroundAction& act : cp.actions) {
    if (act.kind != model::ActionKind::Place) continue;
    if (act.node.index() < n_nodes) place_at[act.node.index()] = 1;
    if (act.spec_index < n_comps) comp_placeable[act.spec_index] = 1;
  }
  for (std::uint32_t n = 0; n < n_nodes; ++n) {
    if (out.pinned[n] != 0 || place_at[n] != 0) continue;
    // Only flag nodes some *ground-placeable* component's rules admit:
    // a node every rule forbids is intentional (forbid/restrict), and a
    // component with no placement anywhere is SK101's finding, not SK111's.
    bool admitted = false;
    for (std::size_t c = 0; c < n_comps && !admitted; ++c) {
      admitted = comp_placeable[c] != 0 &&
                 cp.problem->placeable_at(cp.domain->component_at(c).name,
                                          NodeId(n));
    }
    if (admitted) out.unusable.push_back(n);
  }
}

}  // namespace

SymmetryAnalysis analyze_symmetry(const CompiledProblem& cp) {
  SymmetryAnalysis out;
  out.pinned = pinned_nodes(cp);
  out.class_members = compute_classes(cp);
  out.node_class.assign(cp.net->node_count(), 0);
  for (std::size_t c = 0; c < out.class_members.size(); ++c) {
    for (const std::uint32_t n : out.class_members[c]) {
      out.node_class[n] = static_cast<std::uint32_t>(c);
    }
    if (out.class_members[c].size() >= 2) ++out.symmetric_classes;
  }
  compute_dominance(cp, out);
  compute_unusable(cp, out);
  return out;
}

void attach_symmetry(model::CompiledProblem& cp) {
  const std::vector<std::vector<std::uint32_t>> classes = compute_classes(cp);
  cp.node_class.assign(cp.net->node_count(), 0);
  cp.node_class_members = classes;
  cp.symmetric_class_count = 0;
  for (std::size_t c = 0; c < classes.size(); ++c) {
    for (const std::uint32_t n : classes[c]) {
      cp.node_class[n] = static_cast<std::uint32_t>(c);
    }
    if (classes[c].size() >= 2) ++cp.symmetric_class_count;
  }
}

void run_symmetry_checks(const model::CompiledProblem& cp, const Emit& emit) {
  const SymmetryAnalysis s = analyze_symmetry(cp);
  auto node_name = [&](std::uint32_t n) { return cp.net->node(NodeId(n)).name; };

  for (const SymmetryAnalysis::Dominated& d : s.dominated) {
    emit(Code::DominatedNode, "node " + node_name(d.node),
         "strictly dominated by node '" + node_name(d.by) +
             "' (capacities, links, and allowed components all covered); no "
             "optimal plan needs it",
         "");
  }
  for (const std::uint32_t n : s.unusable) {
    emit(Code::UnusableNode, "node " + node_name(n),
         "placement rules admit components here, but leveling pruned every "
         "ground placement (capacities below every level combination)",
         "");
  }
  for (const auto& members : s.class_members) {
    if (members.size() < 2) continue;
    std::string list;
    for (const std::uint32_t n : members) {
      if (!list.empty()) list += ", ";
      list += node_name(n);
    }
    emit(Code::SymmetricNodeClass, "nodes {" + list + "}",
         "symmetric class of " + std::to_string(members.size()) +
             " interchangeable nodes; search needs only one representative",
         "");
  }
}

}  // namespace sekitei::analysis
