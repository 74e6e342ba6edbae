#include "model/compile.hpp"

#include <algorithm>
#include <functional>
#include <map>
#include <sstream>
#include <tuple>

#include "support/error.hpp"
#include "support/sorted_vec.hpp"

namespace sekitei::model {

const std::vector<ActionId> CompiledProblem::kNoAchievers{};

const std::vector<ActionId>& CompiledProblem::achievers_of(PropId p) const {
  if (!p.valid() || p.index() >= achievers.size()) return kNoAchievers;
  return achievers[p.index()];
}

bool CompiledProblem::init_holds(PropId p) const { return sorted_contains(init_props, p); }

bool CompiledProblem::twin_blocked(ActionId a, const std::vector<char>& used) const {
  auto blocked = [&](NodeId n, NodeId other) {
    if (!n.valid() || used[n.index()] != 0) return false;
    for (const std::uint32_t m : node_class_members[node_class[n.index()]]) {
      if (m >= n.index()) break;
      if (used[m] == 0 && (!other.valid() || m != other.index())) return true;
    }
    return false;
  };
  const GroundAction& act = actions[a.index()];
  return blocked(act.node, act.node2) || blocked(act.node2, act.node);
}

bool Commutation::independent(ActionId a, ActionId b) {
  if (sorted_vars_.empty()) sorted_vars_.resize(cp_.actions.size());
  auto vars_of = [&](ActionId id) -> const std::vector<VarId>& {
    std::vector<VarId>& v = sorted_vars_[id.index()];
    if (v.empty() && !cp_.actions[id.index()].slot_vars.empty()) {
      v = cp_.actions[id.index()].slot_vars;
      std::sort(v.begin(), v.end());
      v.erase(std::unique(v.begin(), v.end()), v.end());
    }
    return v;
  };
  if (sorted_intersects(vars_of(a), vars_of(b))) return false;
  auto supports = [&](ActionId x, ActionId y) {  // x achieves a precondition of y
    for (PropId p : cp_.actions[y.index()].pre) {
      const auto& ach = cp_.achievers_of(p);
      if (std::binary_search(ach.begin(), ach.end(), x)) return true;
    }
    return false;
  };
  return !supports(a, b) && !supports(b, a);
}

void regress(const CompiledProblem& cp, std::span<const PropId> set, ActionId a,
             std::vector<PropId>& out) {
  out.clear();
  for (PropId p : set) {
    const auto& ach = cp.achievers_of(p);
    if (!std::binary_search(ach.begin(), ach.end(), a)) out.push_back(p);
  }
  for (PropId q : cp.actions[a.index()].pre) sorted_insert(out, q);
}

std::string CompiledProblem::describe(PropId p) const {
  const PropKey& k = props.key(p);
  std::ostringstream os;
  if (k.kind == PropKind::Placed) {
    os << "placed(" << domain->component_at(k.entity).name << ", "
       << net->node(NodeId(k.node)).name << ")";
  } else {
    os << "avail(" << iface_names[k.entity] << " @ " << net->node(NodeId(k.node)).name << ", L"
       << k.level << ")";
  }
  return os.str();
}

std::string CompiledProblem::describe(ActionId a) const {
  const GroundAction& act = step_action(a);
  std::ostringstream os;
  if (act.kind == ActionKind::Place) {
    os << "place " << domain->component_at(act.spec_index).name << " on "
       << net->node(act.node).name;
    if (!act.in_levels.empty() || !act.out_levels.empty()) {
      os << " [";
      for (std::size_t i = 0; i < act.in_levels.size(); ++i) {
        os << (i ? "," : "") << "L" << act.in_levels[i];
      }
      os << "->";
      for (std::size_t i = 0; i < act.out_levels.size(); ++i) {
        os << (i ? "," : "") << "L" << act.out_levels[i];
      }
      os << "]";
    }
  } else {
    os << "cross " << iface_names[act.spec_index] << " " << net->node(act.node).name << "->"
       << net->node(act.node2).name;
    os << " [L" << (act.in_levels.empty() ? 0 : act.in_levels[0]) << "->L"
       << (act.out_levels.empty() ? 0 : act.out_levels[0]) << "]";
  }
  return os.str();
}

namespace {

using spec::LevelSet;
using spec::LevelTag;

constexpr std::uint32_t kNoSlot = UINT32_MAX;

/// Where a formula slot points, before grounding at a site: a stream
/// property at the site's input node (`In`) or output node (`Out`), a
/// resource of the input node, or a resource of the link.
struct SlotDesc {
  enum class Kind : unsigned char { In, Out, NodeRes, LinkRes };
  Kind kind = Kind::NodeRes;
  std::uint32_t iface = 0;  // domain interface index, for the stream kinds
  NameId prop;              // property / resource name

  friend bool operator==(const SlotDesc& a, const SlotDesc& b) {
    return a.kind == b.kind && a.iface == b.iface && a.prop == b.prop;
  }
};

struct SemanticsBundle {
  CompiledSemantics* sem = nullptr;
  std::vector<SlotDesc> descs;
};

/// A leveled action template: one component's placement or one interface's
/// link crossing, with its digit layout.  The digits, least significant
/// first, are the level of each input stream, the level of each output
/// stream, and the level of each resource slot the scenario levels.
struct Template {
  ActionKind kind = ActionKind::Place;
  std::uint32_t spec_index = 0;
  const SemanticsBundle* bundle = nullptr;
  std::vector<std::uint32_t> inputs, outputs;  // interface indices
  std::vector<std::uint32_t> in_slots, out_slots;  // leveled property slot, or kNoSlot
  std::vector<std::pair<std::uint32_t, const LevelSet*>> leveled_res;
  std::vector<std::uint32_t> radices;
};

/// Where a template is instantiated: a placement on node n is (n, n, -), a
/// crossing of link l from u to v is (u, v, l).
struct Site {
  NodeId in_node;
  NodeId out_node;
  LinkId link;
};

/// Odometer over mixed-radix digits; visits every combination.
class Odometer {
 public:
  explicit Odometer(std::vector<std::uint32_t> radices) : radices_(std::move(radices)) {
    digits_.assign(radices_.size(), 0);
    done_ = std::any_of(radices_.begin(), radices_.end(),
                        [](std::uint32_t r) { return r == 0; });
  }
  [[nodiscard]] bool done() const { return done_; }
  [[nodiscard]] const std::vector<std::uint32_t>& digits() const { return digits_; }
  void advance() {
    for (std::size_t i = 0; i < digits_.size(); ++i) {
      if (++digits_[i] < radices_[i]) return;
      digits_[i] = 0;
    }
    done_ = true;
  }

 private:
  std::vector<std::uint32_t> radices_;
  std::vector<std::uint32_t> digits_;
  bool done_ = false;
};

class Compiler {
 public:
  Compiler(const CppProblem& problem, const spec::LevelScenario& scenario,
           const StopToken& stop)
      : prob_(problem), scen_(scenario), stop_(stop) {
    SEKITEI_ASSERT(problem.network != nullptr && problem.domain != nullptr);
    cp_.problem = &problem;
    cp_.net = problem.network;
    cp_.domain = problem.domain;
    cp_.scenario = scenario;
  }

  CompiledProblem run() {
    index_interfaces();
    build_component_semantics();
    build_cross_semantics();
    ground_placements();
    ground_crossings();
    // A compiled problem is long-lived (the engine caches it and shares it
    // across workers), so its action array sheds the slack of its growth.
    cp_.actions.shrink_to_fit();
    index_groups();
    build_initial_state();
    build_goal();
    build_achievers();
    return std::move(cp_);
  }

 private:
  const CppProblem& prob_;
  const spec::LevelScenario& scen_;
  const StopToken& stop_;
  CompiledProblem cp_;

  std::vector<SemanticsBundle> comp_sem_;   // by component index
  std::vector<SemanticsBundle> cross_sem_;  // by interface index

  // Reused by every combo of ground().
  std::vector<Interval> seed_, slots_, post_;

  // ----- interface indexing and level resolution ---------------------------

  [[nodiscard]] std::uint32_t iface_index(const std::string& name) const {
    for (std::uint32_t i = 0; i < cp_.iface_names.size(); ++i) {
      if (cp_.iface_names[i] == name) return i;
    }
    raise("compile: unknown interface " + name);
  }

  [[nodiscard]] ComponentId component_id(const std::string& name, const char* context) const {
    for (std::size_t c = 0; c < prob_.domain->component_count(); ++c) {
      if (prob_.domain->component_at(c).name == name) {
        return ComponentId(static_cast<std::uint32_t>(c));
      }
    }
    raise(std::string(context) + ": unknown component " + name);
  }

  void index_interfaces() {
    const spec::DomainSpec& dom = *prob_.domain;
    for (std::size_t i = 0; i < dom.interface_count(); ++i) {
      const spec::InterfaceSpec& ispec = dom.interface_at(i);
      cp_.iface_names.push_back(ispec.name);
      IfaceLevelInfo info;
      for (const spec::PropertySpec& p : ispec.properties) {
        const LevelSet* ls = scen_.find_iface_levels(ispec.name, p.name);
        if (ls == nullptr) {
          auto it = ispec.levels.find(p.name);
          if (it != ispec.levels.end() && !it->second.trivial()) ls = &it->second;
        }
        if (ls != nullptr && !ls->trivial()) {
          if (info.prop.valid()) {
            raise("compile: interface " + ispec.name +
                  " has more than one leveled property; at most one is supported");
          }
          info.prop = cp_.names.intern(p.name);
          info.levels = *ls;
          info.tag = p.tag;
        }
      }
      if (!info.prop.valid()) {
        // Unleveled interface: trivial single level; remember the tag of the
        // first property so closure stays consistent.
        info.levels = LevelSet{};
        info.tag = ispec.properties.empty() ? LevelTag::None : ispec.properties.front().tag;
      }
      cp_.iface_levels.push_back(std::move(info));
    }
  }

  [[nodiscard]] const IfaceLevelInfo& level_info(std::uint32_t iface) const {
    return cp_.iface_levels[iface];
  }

  // ----- semantics (slot) construction --------------------------------------

  /// The slot of `desc`, created on first use; `tag` is a stream
  /// property's level tag.
  static std::uint32_t slot_for(SemanticsBundle& b, const SlotDesc& desc,
                                LevelTag tag = LevelTag::None) {
    for (std::uint32_t i = 0; i < b.descs.size(); ++i) {
      if (b.descs[i] == desc) return i;
    }
    b.descs.push_back(desc);
    b.sem->roles.push_back(desc.kind == SlotDesc::Kind::In    ? SlotRole::Input
                           : desc.kind == SlotDesc::Kind::Out ? SlotRole::Output
                                                              : SlotRole::Resource);
    b.sem->tags.push_back(tag);
    b.sem->slot_count = static_cast<std::uint32_t>(b.descs.size());
    return static_cast<std::uint32_t>(b.descs.size() - 1);
  }

  [[nodiscard]] LevelTag prop_tag(std::uint32_t iface, const std::string& prop) const {
    return prob_.domain->interface_at(iface).tag_of(prop);
  }

  SemanticsBundle& new_bundle(std::vector<SemanticsBundle>& into) {
    cp_.semantics.push_back(std::make_unique<CompiledSemantics>());
    into.push_back({cp_.semantics.back().get(), {}});
    return into.back();
  }

  /// Lowers a template's formulae onto slots through `resolve`.
  static void lower(CompiledSemantics& sem, const std::vector<expr::ConditionAst>& conditions,
                    const std::vector<expr::EffectAst>& effects, const expr::NodePtr& cost,
                    const expr::SlotResolver& resolve) {
    for (const expr::ConditionAst& cond : conditions) {
      expr::CompiledCondition cc;
      cc.lhs = expr::Program::compile(*cond.lhs, resolve);
      cc.op = cond.op;
      cc.rhs = expr::Program::compile(*cond.rhs, resolve);
      cc.source = cond.str();
      sem.conditions.push_back(std::move(cc));
    }
    for (const expr::EffectAst& eff : effects) {
      expr::CompiledEffect ce;
      ce.target = resolve(eff.target);
      ce.op = eff.op;
      ce.value = expr::Program::compile(*eff.value, resolve);
      ce.source = eff.str();
      sem.effects.push_back(std::move(ce));
    }
    if (cost) {
      sem.cost = expr::Program::compile(*cost, resolve);
      sem.has_cost = true;
    }
  }

  void build_component_semantics() {
    const spec::DomainSpec& dom = *prob_.domain;
    for (std::size_t c = 0; c < dom.component_count(); ++c) {
      const spec::ComponentSpec& cspec = dom.component_at(c);
      SemanticsBundle& bundle = new_bundle(comp_sem_);

      auto resolve = [&](const expr::RoleRef& ref) -> std::uint32_t {
        if (ref.primed) {
          raise("component " + cspec.name + ": primed variables (" + ref.str() +
                ") are only meaningful in cross blocks");
        }
        if (ref.scope == "node") {
          return slot_for(bundle, {SlotDesc::Kind::NodeRes, 0, cp_.names.intern(ref.prop)});
        }
        const std::uint32_t idx = iface_index(ref.scope);
        const bool is_input = std::find(cspec.inputs.begin(), cspec.inputs.end(), ref.scope) !=
                              cspec.inputs.end();
        return slot_for(bundle,
                        {is_input ? SlotDesc::Kind::In : SlotDesc::Kind::Out, idx,
                         cp_.names.intern(ref.prop)},
                        prop_tag(idx, ref.prop));
      };

      // Pre-create the leveled-property slots so level choices always have a
      // slot to constrain, even if no formula mentions them.
      for (const auto& [streams, kind] : {std::pair{&cspec.inputs, SlotDesc::Kind::In},
                                          std::pair{&cspec.outputs, SlotDesc::Kind::Out}}) {
        for (const std::string& name : *streams) {
          const std::uint32_t idx = iface_index(name);
          const IfaceLevelInfo& info = level_info(idx);
          if (info.prop.valid()) slot_for(bundle, {kind, idx, info.prop}, info.tag);
        }
      }
      lower(*bundle.sem, cspec.conditions, cspec.effects, cspec.cost, resolve);
    }
  }

  void build_cross_semantics() {
    const spec::DomainSpec& dom = *prob_.domain;
    for (std::size_t i = 0; i < dom.interface_count(); ++i) {
      const spec::InterfaceSpec& ispec = dom.interface_at(i);
      SemanticsBundle& bundle = new_bundle(cross_sem_);
      const std::uint32_t idx = static_cast<std::uint32_t>(i);

      auto resolve = [&](const expr::RoleRef& ref) -> std::uint32_t {
        if (ref.scope == "link") {
          // `link.lbw` and `link.lbw'` denote the same pool; effects update
          // it in place (Fig. 6's tick notation).
          return slot_for(bundle, {SlotDesc::Kind::LinkRes, 0, cp_.names.intern(ref.prop)});
        }
        if (ref.scope == "node") {
          raise("interface " + ispec.name + ": node resources are not visible to cross actions");
        }
        if (ref.scope != ispec.name) {
          raise("interface " + ispec.name + ": cross formulae may only reference " + ispec.name +
                ".* and link.*, got " + ref.str());
        }
        return slot_for(bundle,
                        {ref.primed ? SlotDesc::Kind::Out : SlotDesc::Kind::In, idx,
                         cp_.names.intern(ref.prop)},
                        prop_tag(idx, ref.prop));
      };

      // Pre-create pre/post slots for every property so transported values
      // always have somewhere to live.
      for (const spec::PropertySpec& p : ispec.properties) {
        slot_for(bundle, {SlotDesc::Kind::In, idx, cp_.names.intern(p.name)}, p.tag);
        slot_for(bundle, {SlotDesc::Kind::Out, idx, cp_.names.intern(p.name)}, p.tag);
      }
      lower(*bundle.sem, ispec.cross_conditions, ispec.cross_effects, ispec.cross_cost,
            resolve);

      // Properties without an explicit transport rule cross unchanged
      // (identity effect P.x' := P.x).  Their slots exist already, so these
      // effects add none.
      for (const spec::PropertySpec& p : ispec.properties) {
        const bool transported =
            std::any_of(ispec.cross_effects.begin(), ispec.cross_effects.end(),
                        [&](const expr::EffectAst& eff) {
                          return eff.target.primed && eff.target.scope == ispec.name &&
                                 eff.target.prop == p.name;
                        });
        if (transported) continue;
        expr::RoleRef pre{ispec.name, p.name, false};
        expr::RoleRef post{ispec.name, p.name, true};
        expr::CompiledEffect ce;
        ce.target = resolve(post);
        ce.op = expr::AssignOp::Set;
        ce.value = expr::Program::compile(*expr::make_var(pre), resolve);
        ce.source = post.str() + " := " + pre.str() + " (implicit)";
        bundle.sem->effects.push_back(std::move(ce));
      }
    }
  }

  // ----- grounding -----------------------------------------------------------

  /// The digit layout of `bundle` as a template of `kind` over the given
  /// input and output streams.
  [[nodiscard]] Template make_template(ActionKind kind, std::uint32_t spec_index,
                                       const SemanticsBundle& bundle,
                                       std::vector<std::uint32_t> inputs,
                                       std::vector<std::uint32_t> outputs) const {
    Template t;
    t.kind = kind;
    t.spec_index = spec_index;
    t.bundle = &bundle;
    t.inputs = std::move(inputs);
    t.outputs = std::move(outputs);
    const auto level_digits = [&](const std::vector<std::uint32_t>& streams,
                                  SlotDesc::Kind slot_kind, std::vector<std::uint32_t>& slots) {
      for (const std::uint32_t idx : streams) {
        const IfaceLevelInfo& info = level_info(idx);
        t.radices.push_back(info.levels.count());
        slots.push_back(info.prop.valid() ? find_slot(bundle, {slot_kind, idx, info.prop})
                                          : kNoSlot);
      }
    };
    level_digits(t.inputs, SlotDesc::Kind::In, t.in_slots);
    level_digits(t.outputs, SlotDesc::Kind::Out, t.out_slots);
    const SlotDesc::Kind res_kind =
        kind == ActionKind::Place ? SlotDesc::Kind::NodeRes : SlotDesc::Kind::LinkRes;
    const auto& scenario_levels =
        kind == ActionKind::Place ? scen_.node_levels : scen_.link_levels;
    for (std::uint32_t s = 0; s < bundle.descs.size(); ++s) {
      if (bundle.descs[s].kind != res_kind) continue;
      const auto it = scenario_levels.find(cp_.names.str(bundle.descs[s].prop));
      if (it == scenario_levels.end()) continue;
      t.leveled_res.emplace_back(s, &it->second);
      t.radices.push_back(it->second.count());
    }
    return t;
  }

  [[nodiscard]] static std::uint32_t find_slot(const SemanticsBundle& b, const SlotDesc& d) {
    for (std::uint32_t i = 0; i < b.descs.size(); ++i) {
      if (b.descs[i] == d) return i;
    }
    raise("compile: internal slot lookup failure");
  }

  void ground_placements() {
    const spec::DomainSpec& dom = *prob_.domain;
    for (std::size_t c = 0; c < dom.component_count(); ++c) {
      const spec::ComponentSpec& cspec = dom.component_at(c);
      std::vector<std::uint32_t> inputs, outputs;
      for (const std::string& in : cspec.inputs) inputs.push_back(iface_index(in));
      for (const std::string& out : cspec.outputs) outputs.push_back(iface_index(out));
      const Template t = make_template(ActionKind::Place, static_cast<std::uint32_t>(c),
                                       comp_sem_[c], std::move(inputs), std::move(outputs));
      for (NodeId n : prob_.network->node_ids()) {
        if (prob_.placeable_at(cspec.name, n)) ground(t, {n, n, LinkId{}});
      }
    }
  }

  void ground_crossings() {
    for (std::uint32_t i = 0; i < cross_sem_.size(); ++i) {
      const Template t = make_template(ActionKind::Cross, i, cross_sem_[i], {i}, {i});
      for (LinkId l : prob_.network->link_ids()) {
        const net::Link& link = prob_.network->link(l);
        ground(t, {link.a, link.b, l});
        ground(t, {link.b, link.a, l});
      }
    }
  }

  /// Instantiates `t` at `site` once per level combination, in odometer
  /// order, and keeps the combos whose conditions can hold over the
  /// optimistic intervals and whose effects reach the chosen output levels.
  void ground(const Template& t, const Site& site) {
    const SemanticsBundle& bundle = *t.bundle;
    const CompiledSemantics& sem = *bundle.sem;
    const std::size_t n_in = t.inputs.size();
    const std::size_t n_out = t.outputs.size();

    // Resources start optimistic: [0, capacity] at this site.
    seed_.assign(sem.slot_count, Interval::nonneg());
    for (std::uint32_t s = 0; s < bundle.descs.size(); ++s) {
      const SlotDesc& desc = bundle.descs[s];
      if (desc.kind == SlotDesc::Kind::NodeRes) {
        seed_[s] = {0.0, prob_.network->node(site.in_node).resource(cp_.names.str(desc.prop))};
      } else if (desc.kind == SlotDesc::Kind::LinkRes) {
        seed_[s] = {0.0, prob_.network->link(site.link).resource(cp_.names.str(desc.prop))};
      }
    }
    // Located variables, bound at the site's first viable combo so that
    // VarIds are handed out in emission order.
    std::vector<VarId> slot_vars;
    bool bound = false;
    const std::size_t first = cp_.actions.size();

    for (Odometer od(t.radices); !od.done(); od.advance()) {
      if ((++cp_.combos_considered & 1023) == 0 && stop_.stop_requested()) {
        raise(std::string(kCompileStopped) + ' ' + stop_reason_name(stop_.reason()));
      }
      const std::vector<std::uint32_t>& d = od.digits();
      slots_ = seed_;
      for (std::size_t i = 0; i < n_in; ++i) {
        if (t.in_slots[i] != kNoSlot) {
          slots_[t.in_slots[i]] = level_info(t.inputs[i]).levels.interval(d[i]);
        }
      }
      bool viable = true;
      std::size_t di = n_in + n_out;
      for (const auto& [s, ls] : t.leveled_res) {
        slots_[s] = intersect(slots_[s], ls->interval(d[di++]));
        viable = viable && !slots_[s].is_empty();
      }
      // Leveling-time pruning: conditions must be satisfiable over the
      // optimistic intervals...
      viable = viable && std::all_of(sem.conditions.begin(), sem.conditions.end(),
                                     [&](const expr::CompiledCondition& cond) {
                                       return cond.satisfiable(slots_);
                                     });
      if (!viable) continue;
      post_ = slots_;
      for (const expr::CompiledEffect& eff : sem.effects) eff.apply_interval(post_);
      // ...and the effects must reach every chosen output level.
      for (std::size_t i = 0; i < n_out && viable; ++i) {
        const std::uint32_t s = t.out_slots[i];
        const std::uint32_t lvl = d[n_in + i];
        viable = s == kNoSlot ? lvl == 0  // single trivial level
                              : spec::level_matches(out_level(t, i, lvl), post_[s],
                                                    /*strict_floor=*/true);
      }
      if (!viable) continue;

      if (!bound) {
        slot_vars = bind(bundle, site);
        bound = true;
      }
      GroundAction act;
      act.kind = t.kind;
      act.spec_index = t.spec_index;
      act.node = site.in_node;
      if (t.kind == ActionKind::Cross) {
        act.node2 = site.out_node;
        act.link = site.link;
      }
      act.sem = &sem;
      act.in_levels.assign(d.begin(), d.begin() + static_cast<std::ptrdiff_t>(n_in));
      act.out_levels.assign(d.begin() + static_cast<std::ptrdiff_t>(n_in),
                            d.begin() + static_cast<std::ptrdiff_t>(n_in + n_out));
      act.slot_vars = slot_vars;
      act.slot_opt = slots_;
      // Output slots assert their chosen level interval.
      for (std::size_t i = 0; i < n_out; ++i) {
        if (t.out_slots[i] == kNoSlot) continue;
        act.slot_opt[t.out_slots[i]] = out_level(t, i, act.out_levels[i]);
      }

      for (std::size_t i = 0; i < n_in; ++i) {
        sorted_insert(act.pre, cp_.props.avail(InterfaceId(t.inputs[i]), site.in_node,
                                               act.in_levels[i]));
      }
      if (t.kind == ActionKind::Place) {
        sorted_insert(act.eff, cp_.props.placed(ComponentId(t.spec_index), site.in_node));
      }
      for (std::size_t i = 0; i < n_out; ++i) {
        sorted_insert(act.eff, cp_.props.avail(InterfaceId(t.outputs[i]), site.out_node,
                                               act.out_levels[i]));
      }

      eval_cost(sem, post_, act);
      cp_.actions.push_back(std::move(act));
    }
    // Only a leveled resource slot makes variants of one logical action.
    if (!t.leveled_res.empty()) group_variants(first);
  }

  /// Groups the site's actions [first, end) into variant groups: same
  /// `pre`, `eff` and stream-slot intervals (the site fixes kind, spec,
  /// nodes, link, semantics and variables).  Keeps groups of two or more.
  void group_variants(std::size_t first) {
    const std::vector<GroundAction>& acts = cp_.actions;
    if (acts.size() - first < 2) return;
    const std::vector<SlotRole>& roles = acts[first].sem->roles;
    // Three-way comparison of the grouping key.
    const auto key_cmp = [&](const GroundAction& x, const GroundAction& y) {
      if (x.pre != y.pre) return x.pre < y.pre ? -1 : 1;
      if (x.eff != y.eff) return x.eff < y.eff ? -1 : 1;
      for (std::size_t s = 0; s < roles.size(); ++s) {
        if (roles[s] == SlotRole::Resource) continue;
        const auto a = std::tie(x.slot_opt[s].lo, x.slot_opt[s].hi, x.slot_opt[s].hi_open);
        const auto b = std::tie(y.slot_opt[s].lo, y.slot_opt[s].hi, y.slot_opt[s].hi_open);
        if (a != b) return a < b ? -1 : 1;
      }
      return 0;
    };
    std::vector<ActionId> order;
    for (std::size_t i = first; i < acts.size(); ++i) {
      order.emplace_back(static_cast<std::uint32_t>(i));
    }
    std::sort(order.begin(), order.end(), [&](ActionId a, ActionId b) {
      const GroundAction& x = acts[a.index()];
      const GroundAction& y = acts[b.index()];
      if (const int c = key_cmp(x, y); c != 0) return c < 0;
      if (x.cost_lb != y.cost_lb) return x.cost_lb < y.cost_lb;
      return a < b;
    });
    for (std::size_t lo = 0, hi; lo < order.size(); lo = hi) {
      const GroundAction& rep = acts[order[lo].index()];
      for (hi = lo + 1; hi < order.size() && key_cmp(rep, acts[order[hi].index()]) == 0; ++hi) {
      }
      if (hi - lo < 2) continue;
      VariantGroup g;
      g.members.assign(order.begin() + static_cast<std::ptrdiff_t>(lo),
                       order.begin() + static_cast<std::ptrdiff_t>(hi));
      g.hull = rep;
      for (const ActionId m : g.members) {
        const GroundAction& act = acts[m.index()];
        for (std::size_t s = 0; s < roles.size(); ++s) {
          if (roles[s] == SlotRole::Resource) {
            g.hull.slot_opt[s] = sekitei::hull(g.hull.slot_opt[s], act.slot_opt[s]);
          }
        }
        g.hull.cost_ub = std::max(g.hull.cost_ub, act.cost_ub);
      }
      cp_.groups.push_back(std::move(g));
    }
  }

  void index_groups() {
    if (cp_.groups.empty()) return;
    cp_.groups.shrink_to_fit();
    cp_.group_of.assign(cp_.actions.size(), CompiledProblem::kNoGroup);
    for (std::uint32_t g = 0; g < cp_.groups.size(); ++g) {
      for (const ActionId m : cp_.groups[g].members) cp_.group_of[m.index()] = g;
    }
  }

  /// The level interval of output `i` of `t` at level `lvl`.
  [[nodiscard]] Interval out_level(const Template& t, std::size_t i, std::uint32_t lvl) const {
    return level_info(t.outputs[i]).levels.interval(lvl);
  }

  /// The located variable of each slot at `site`.
  [[nodiscard]] std::vector<VarId> bind(const SemanticsBundle& bundle, const Site& site) {
    std::vector<VarId> vars;
    vars.reserve(bundle.descs.size());
    for (const SlotDesc& desc : bundle.descs) {
      switch (desc.kind) {
        case SlotDesc::Kind::In:
        case SlotDesc::Kind::Out: {
          const NodeId at = desc.kind == SlotDesc::Kind::In ? site.in_node : site.out_node;
          vars.push_back(cp_.vars.iface_prop(InterfaceId(desc.iface), at, desc.prop));
          break;
        }
        case SlotDesc::Kind::NodeRes:
          vars.push_back(cp_.vars.node_res(site.in_node, desc.prop));
          break;
        case SlotDesc::Kind::LinkRes:
          vars.push_back(cp_.vars.link_res(site.link, desc.prop));
          break;
      }
    }
    return vars;
  }

  /// Evaluates cost over post-effect slot intervals; clamps the lower bound
  /// to a positive epsilon so A* search cannot loop on free actions.
  static void eval_cost(const CompiledSemantics& sem, std::span<const Interval> slots,
                        GroundAction& act) {
    if (!sem.has_cost) {
      act.cost_lb = act.cost_ub = 1.0;
      return;
    }
    const Interval c = sem.cost.eval_interval(slots);
    act.cost_lb = std::max(c.lo, 1e-6);
    act.cost_ub = std::max(c.hi, act.cost_lb);
  }

  // ----- initial state, goal, achievers --------------------------------------

  /// Calls `f` with every proposition a stream available as `key` also
  /// supports through level closure: a degradable stream at level k serves
  /// every level below k, an upgradable one every level above.
  /// `key` is a copy: interning the closure props may grow the registry.
  template <class F>
  void for_each_closure_prop(const PropKey key, F f) {
    if (key.kind != PropKind::Avail) return;
    const IfaceLevelInfo& info = level_info(key.entity);
    const auto at = [&](std::uint32_t j) {
      return cp_.props.avail(InterfaceId(key.entity), NodeId(key.node), j);
    };
    if (info.tag == LevelTag::Degradable) {
      for (std::uint32_t j = 0; j < key.level; ++j) f(at(j));
    } else if (info.tag == LevelTag::Upgradable) {
      for (std::uint32_t j = key.level + 1; j < info.levels.count(); ++j) f(at(j));
    }
  }

  void build_initial_state() {
    // All node and link resource capacities enter the initial map as points.
    for (NodeId n : prob_.network->node_ids()) {
      for (const auto& [res, cap] : prob_.network->node(n).resources) {
        cp_.init_map.push_back({cp_.vars.node_res(n, cp_.names.intern(res)),
                                Interval::point(cap)});
      }
    }
    for (LinkId l : prob_.network->link_ids()) {
      for (const auto& [res, cap] : prob_.network->link(l).resources) {
        cp_.init_map.push_back({cp_.vars.link_res(l, cp_.names.intern(res)),
                                Interval::point(cap)});
      }
    }

    for (const InitialStream& is : prob_.initial_streams) {
      const std::uint32_t idx = iface_index(is.iface);
      const spec::InterfaceSpec& ispec = prob_.domain->interface_at(idx);
      if (!ispec.find_property(is.prop)) {
        raise("initial stream " + is.iface + ": unknown property " + is.prop);
      }
      // Every property of the stream exists at the node; the designated one
      // carries the given choice interval, the rest their declared initial.
      for (const spec::PropertySpec& p : ispec.properties) {
        const Interval v = p.name == is.prop ? is.value : Interval::point(p.initial);
        cp_.init_map.push_back(
            {cp_.vars.iface_prop(InterfaceId(idx), is.node, cp_.names.intern(p.name)), v});
      }
      // avail props: every level the leveled property's value can land in
      // (the production amount is the planner's choice, so a [0,200] server
      // stream is available at *every* level up to 200).
      const IfaceLevelInfo& info = level_info(idx);
      Interval leveled_value = Interval::point(0.0);
      if (info.prop.valid()) {
        const std::string& lname = cp_.names.str(info.prop);
        leveled_value = lname == is.prop
                            ? is.value
                            : Interval::point(ispec.find_property(lname)->initial);
      }
      for (std::uint32_t k = 0; k < info.levels.count(); ++k) {
        if (!info.prop.valid() || spec::level_matches(info.levels.interval(k), leveled_value)) {
          sorted_insert(cp_.init_props, cp_.props.avail(InterfaceId(idx), is.node, k));
        }
      }
    }

    for (const auto& [comp, node] : prob_.preplaced) {
      sorted_insert(cp_.init_props, cp_.props.placed(component_id(comp, "preplaced"), node));
    }
  }

  void build_goal() {
    cp_.goal_prop =
        cp_.props.placed(component_id(prob_.goal_component, "goal"), prob_.goal_node);
    sorted_insert(cp_.goal_props, cp_.goal_prop);
    for (const auto& [comp, node] : prob_.extra_goals) {
      sorted_insert(cp_.goal_props, cp_.props.placed(component_id(comp, "goal"), node));
    }
  }

  void build_achievers() {
    // Register each action under every proposition it supports, applying
    // degradable/upgradable closure across levels: a degradable stream
    // produced at level k also supports demands at any level j < k.
    cp_.achievers.resize(cp_.props.size());
    auto register_achiever = [&](PropId p, ActionId a) {
      if (p.index() >= cp_.achievers.size()) cp_.achievers.resize(cp_.props.size());
      cp_.achievers[p.index()].push_back(a);
    };
    for (std::uint32_t ai = 0; ai < cp_.actions.size(); ++ai) {
      const ActionId aid(ai);
      // Copy effects: registering closure props may grow the registry.
      const std::vector<PropId> effs = cp_.actions[ai].eff;
      for (PropId e : effs) {
        register_achiever(e, aid);
        for_each_closure_prop(cp_.props.key(e), [&](PropId p) { register_achiever(p, aid); });
      }
    }
    // Closure on the initial state as well.
    std::vector<PropId> extra;
    for (PropId p : cp_.init_props) {
      for_each_closure_prop(cp_.props.key(p), [&](PropId q) { extra.push_back(q); });
    }
    for (PropId p : extra) sorted_insert(cp_.init_props, p);
    cp_.achievers.resize(cp_.props.size());
    // Sorted achiever lists admit O(log n) "does a support p" queries in the
    // planner's regression loops.
    for (auto& lst : cp_.achievers) std::sort(lst.begin(), lst.end());
  }
};

}  // namespace

CompiledProblem compile(const CppProblem& problem, const spec::LevelScenario& scenario,
                        const StopToken& stop) {
  Compiler c(problem, scenario, stop);
  return c.run();
}

}  // namespace sekitei::model
