#include "inputs.hpp"

#include <algorithm>
#include <cmath>
#include <map>
#include <memory>
#include <sstream>

#include "domains/media.hpp"
#include "model/textio.hpp"
#include "support/error.hpp"
#include "support/rng.hpp"

namespace perfbench {

using sekitei::core::PlannerOptions;

const std::string& domain_text() {
  static const std::string text = sekitei::domains::media::domain_text();
  return text;
}

namespace {

std::string levels_line(const std::string& what, const sekitei::spec::LevelSet& set) {
  std::ostringstream os;
  os << "  levels " << what << " {";
  const auto& cuts = set.cutpoints();
  for (std::size_t i = 0; i < cuts.size(); ++i) os << (i == 0 ? " " : ", ") << cuts[i];
  os << " }\n";
  return os.str();
}

}  // namespace

std::string instance_text(char net, char scenario) {
  namespace media = sekitei::domains::media;
  std::unique_ptr<media::Instance> inst;
  switch (net) {
    case 'T': inst = media::tiny(); break;
    case 'S': inst = media::small(); break;
    case 'L': inst = media::large(); break;
    default: sekitei::raise(std::string("unknown network '") + net + "'");
  }
  const sekitei::net::Network& n = inst->net;
  const sekitei::model::CppProblem& p = inst->problem;
  std::ostringstream os;
  os << sekitei::model::network_to_text(n) << "problem {\n";
  for (const auto& s : p.initial_streams) {
    os << "  stream " << s.iface << '.' << s.prop << " at " << n.node(s.node).name << " = ["
       << s.value.lo << ", " << s.value.hi << "];\n";
  }
  for (const auto& [comp, node] : p.preplaced) {
    os << "  preplaced " << comp << " at " << n.node(node).name << ";\n";
  }
  for (const auto& [comp, nodes] : p.placement_rule) {
    if (inst->domain.find_component(comp) == nullptr) continue;
    if (nodes.empty()) {
      os << "  forbid " << comp << ";\n";
      continue;
    }
    os << "  restrict " << comp << " to ";
    for (std::size_t i = 0; i < nodes.size(); ++i) {
      os << (i == 0 ? "" : ", ") << n.node(nodes[i]).name;
    }
    os << ";\n";
  }
  os << "  goal " << p.goal_component << " at " << n.node(p.goal_node).name << ";\n}\n";
  const sekitei::spec::LevelScenario sc = media::scenario(scenario);
  os << "scenario {\n";
  for (const auto& [key, set] : sc.iface_levels) {
    os << levels_line(key.first + "." + key.second, set);
  }
  for (const auto& [res, set] : sc.link_levels) os << levels_line("link " + res, set);
  for (const auto& [res, set] : sc.node_levels) os << levels_line("node " + res, set);
  os << "}\n";
  return os.str();
}

double table2_cost(char net, char scenario) {
  if (scenario == 'B') return net == 'T' ? 7.00 : 10.00;
  return net == 'T' ? 40.30 : 63.85;
}

Workload make_workload(const std::string& name) {
  struct Row {
    char net, scenario;
    const char* band;
    int weight;
  };
  std::vector<Row> rows;
  PlannerOptions::Mode mode = PlannerOptions::Mode::Leveled;
  if (name == "search") {
    // Small/C and Small/D (~50 ms) are 85% of requests, so p50 sits in their
    // band; Small/C alone is 70%, so p50 also sits inside its class and not
    // at the edge between the two (Small/D runs ~13% faster).  Small/E
    // (~1.1 s, RG- and replay-heavy) is 10%, so p95 is its median; Large/C
    // (~550 ms, SLRG-heavy) fills the 5% between.
    rows = {{'S', 'D', "small-cd", 3},
            {'S', 'C', "small-cd", 14},
            {'L', 'C', "large-c", 1},
            {'S', 'E', "small-e", 2}};
  } else if (name == "cp") {
    // Tiny/B-E (~2 ms) are 20%, Small/B (~8 ms, 587 branches) 70% and
    // Small/C (~1.7 s, 501k branches) 10%: p50 lies inside the one class
    // Small/B, p95 is the Small/C median.
    mode = PlannerOptions::Mode::Cp;
    rows = {{'T', 'B', "tiny", 1}, {'T', 'C', "tiny", 1}, {'T', 'D', "tiny", 1},
            {'T', 'E', "tiny", 1}, {'S', 'B', "small-b", 14}, {'S', 'C', "small-c", 2}};
  } else if (name == "wire") {
    // Tiny/C-E (~1.2 ms over the wire) share one band and are 90%, Tiny/C
    // alone 80%, so p50 lies inside one class; Tiny/B (the 410-set SLRG,
    // ~4 ms) is 10%, so p95 is its median.
    rows = {{'T', 'C', "tiny-cde", 16},
            {'T', 'D', "tiny-cde", 1},
            {'T', 'E', "tiny-cde", 1},
            {'T', 'B', "tiny-b", 2}};
  } else if (name == "drift") {
    rows = {{'L', 'C', "large-c-repair", 1}};
  } else {
    sekitei::raise("unknown workload '" + name + "' (search, cp, wire or drift)");
  }
  Workload w;
  w.name = name;
  for (const Row& r : rows) {
    Class c;
    c.name = std::string(r.net == 'T' ? "Tiny" : r.net == 'S' ? "Small" : "Large") + "/" +
             r.scenario;
    c.band = r.band;
    c.weight = r.weight;
    c.net = r.net;
    c.scenario = r.scenario;
    c.mode = mode;
    c.expected_cost = table2_cost(r.net, r.scenario);
    c.problem_text = instance_text(r.net, r.scenario);
    w.classes.push_back(std::move(c));
  }
  return w;
}

std::vector<std::uint32_t> request_order(const std::vector<std::vector<std::uint32_t>>& groups,
                                         std::uint64_t seed, std::size_t n) {
  sekitei::SplitMix64 rng(seed ^ 0x5EED0DE5ULL);
  std::vector<std::uint32_t> out;
  std::vector<std::pair<double, std::uint32_t>> block;
  while (out.size() < n) {
    block.clear();
    for (std::vector<std::uint32_t> entries : groups) {
      for (std::size_t i = entries.size(); i > 1; --i) {
        std::swap(entries[i - 1], entries[rng.next_below(i)]);
      }
      const double m = static_cast<double>(entries.size());
      for (std::size_t k = 0; k < entries.size(); ++k) {
        block.emplace_back((static_cast<double>(k) + rng.next_double()) / m, entries[k]);
      }
    }
    std::sort(block.begin(), block.end());
    for (const auto& [key, item] : block) out.push_back(item);
  }
  out.resize(n);
  return out;
}

std::string describe(const sekitei::model::CompiledProblem& cp,
                     const sekitei::repair::Damage& damage, bool values) {
  const sekitei::net::Network& n = *cp.net;
  const auto link_name = [&](sekitei::LinkId l) {
    return n.node(n.link(l).a).name + "-" + n.node(n.link(l).b).name;
  };
  std::ostringstream os;
  os.precision(17);
  for (const auto l : damage.failed_links) os << "fail-link " << link_name(l) << ';';
  for (const auto v : damage.failed_nodes) os << "fail-node " << n.node(v).name << ';';
  for (const auto& d : damage.degraded_links) {
    os << "degrade-link " << link_name(d.link) << ' ' << d.resource;
    if (values) os << ' ' << d.capacity;
    os << ';';
  }
  for (const auto& d : damage.degraded_nodes) {
    os << "degrade-node " << n.node(d.node).name << ' ' << d.resource;
    if (values) os << ' ' << d.capacity;
    os << ';';
  }
  return os.str();
}

namespace {

/// Remaining capacity share of a delta's degraded elements (1 when nothing
/// degrades): how hard a degradation bites.
double remaining_share(const sekitei::model::CompiledProblem& cp,
                       const sekitei::repair::Damage& damage) {
  double share = 1.0;
  const auto ratio = [](const std::map<std::string, double>& res, const std::string& key,
                        double capacity) {
    const auto it = res.find(key);
    return it == res.end() || it->second <= 0.0 ? 1.0 : capacity / it->second;
  };
  for (const auto& d : damage.degraded_links) {
    share = std::min(share, ratio(cp.net->link(d.link).resources, d.resource, d.capacity));
  }
  for (const auto& d : damage.degraded_nodes) {
    share = std::min(share, ratio(cp.net->node(d.node).resources, d.resource, d.capacity));
  }
  return share;
}

}  // namespace

std::vector<Delta> drift_pool(const sekitei::model::CompiledProblem& cp,
                              const sekitei::core::Plan& plan, std::uint64_t seed,
                              std::size_t size) {
  // Draw many deltas (drawing is cheap next to one repair) and group them by
  // kind.  With 1024 draws per pool slot the kinds' shares, and the capacity
  // drops picked within a kind, barely move from seed to seed: a pick that
  // lands on the edge of a kind's narrow slow range of drops would otherwise
  // flip the run's latency mix.
  sekitei::SplitMix64 rng(seed ^ 0xD21F7ULL);
  std::map<std::string, std::vector<std::pair<double, Delta>>> kinds;
  std::size_t drawn = 0;
  for (std::size_t i = 0; i < 1024 * size; ++i) {
    Delta d;
    d.seed = rng.next_u64();
    d.damage = sekitei::repair::seeded_drift(cp, plan, d.seed);
    if (d.damage.empty()) continue;
    ++drawn;
    const double share = remaining_share(cp, d.damage);
    kinds[describe(cp, d.damage, false)].emplace_back(share, std::move(d));
  }
  if (drawn == 0) sekitei::raise("seeded_drift yields no damage for this plan");

  // Each kind's quota is its share of the draws, rounded to a 16th of the
  // pool so that the estimate's sampling noise does not move it from seed to
  // seed, then trimmed or topped up one delta at a time to sum to `size`.
  const double step = std::max(1.0, static_cast<double>(size) / 16.0);
  std::map<std::string, double> exact;
  std::map<std::string, std::size_t> quota;
  std::size_t given = 0;
  for (const auto& [kind, ds] : kinds) {
    exact[kind] = static_cast<double>(size) * static_cast<double>(ds.size()) /
                  static_cast<double>(drawn);
    quota[kind] = static_cast<std::size_t>(std::lround(exact[kind] / step) * step);
    given += quota[kind];
  }
  while (given != size) {
    // The kind whose quota is furthest below (or above) its exact share.
    std::string pick;
    double best = 0.0;
    for (const auto& [kind, q] : quota) {
      const double gap = given < size ? exact[kind] - q : q - exact[kind];
      if ((given > size && q == 0) || (!pick.empty() && gap <= best)) continue;
      pick = kind;
      best = gap;
    }
    if (given < size) {
      ++quota[pick];
      ++given;
    } else {
      --quota[pick];
      --given;
    }
  }

  // Within a kind, take evenly spaced deltas in order of how hard they bite.
  std::vector<Delta> pool;
  for (auto& [kind, ds] : kinds) {
    std::sort(ds.begin(), ds.end(), [](const auto& a, const auto& b) {
      return a.first != b.first ? a.first < b.first : a.second.seed < b.second.seed;
    });
    const std::size_t q = quota[kind];
    for (std::size_t k = 0; k < q; ++k) {
      pool.push_back(ds[(2 * k + 1) * ds.size() / (2 * q)].second);
    }
  }
  return pool;
}

std::string mix_rule(const Workload& w, double margin) {
  struct Band {
    std::string name;
    double share = 0.0;
    double largest_class = 0.0;
  };
  std::vector<Band> bands;  // fastest first
  double total = 0.0;
  for (const Class& c : w.classes) total += c.weight;
  for (const Class& c : w.classes) {
    if (bands.empty() || bands.back().name != c.band) bands.push_back({c.band});
    bands.back().share += c.weight / total;
    bands.back().largest_class = std::max(bands.back().largest_class, c.weight / total);
  }
  for (const double p : {0.50, 0.95}) {
    double lo = 0.0;
    for (const Band& band : bands) {
      const double hi = lo + band.share;
      if (p >= lo && p < hi) {
        // Whichever order the band's classes run in, p must lie `margin`
        // inside the share of its largest class.
        const double from = hi - band.largest_class, to = lo + band.largest_class;
        if (p - from < margin - 1e-9 || to - p < margin - 1e-9) {
          std::ostringstream os;
          os << "p" << std::lround(p * 100) << " lies within " << margin
             << " of an edge of band " << band.name << " [" << lo << ", " << hi
             << ") or of its largest class";
          return os.str();
        }
        break;
      }
      lo = hi;
    }
  }
  return {};
}

}  // namespace perfbench
