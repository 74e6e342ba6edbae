#include "model/compile.hpp"

#include <algorithm>
#include <functional>
#include <map>
#include <sstream>

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
  const GroundAction& act = actions[a.index()];
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

/// Where a formula slot points, before grounding onto a concrete node/link.
struct SlotDesc {
  enum class Kind : unsigned char { InputProp, OutputProp, CrossPre, CrossPost, NodeRes, LinkRes };
  Kind kind = Kind::NodeRes;
  std::uint32_t iface = 0;  // domain interface index, for the prop kinds
  NameId prop;              // property / resource name

  friend bool operator==(const SlotDesc& a, const SlotDesc& b) {
    return a.kind == b.kind && a.iface == b.iface && a.prop == b.prop;
  }
};

struct SemanticsBundle {
  CompiledSemantics* sem = nullptr;
  std::vector<SlotDesc> descs;
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
  [[nodiscard]] std::uint64_t combinations() const {
    std::uint64_t n = 1;
    for (std::uint32_t r : radices_) n *= r;
    return n;
  }

 private:
  std::vector<std::uint32_t> radices_;
  std::vector<std::uint32_t> digits_;
  bool done_ = false;
};

class Compiler {
 public:
  Compiler(const CppProblem& problem, const spec::LevelScenario& scenario)
      : prob_(problem), scen_(scenario) {
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
    build_initial_state();
    build_goal();
    build_achievers();
    return std::move(cp_);
  }

 private:
  const CppProblem& prob_;
  const spec::LevelScenario& scen_;
  CompiledProblem cp_;

  std::vector<SemanticsBundle> comp_sem_;   // by component index
  std::vector<SemanticsBundle> cross_sem_;  // by interface index

  // ----- interface indexing and level resolution ---------------------------

  [[nodiscard]] std::uint32_t iface_index(const std::string& name) const {
    for (std::uint32_t i = 0; i < cp_.iface_names.size(); ++i) {
      if (cp_.iface_names[i] == name) return i;
    }
    raise("compile: unknown interface " + name);
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

  std::uint32_t slot_for(SemanticsBundle& b, const SlotDesc& desc, SlotRole role,
                         LevelTag tag) {
    for (std::uint32_t i = 0; i < b.descs.size(); ++i) {
      if (b.descs[i] == desc) return i;
    }
    b.descs.push_back(desc);
    b.sem->roles.push_back(role);
    b.sem->tags.push_back(tag);
    b.sem->slot_count = static_cast<std::uint32_t>(b.descs.size());
    return static_cast<std::uint32_t>(b.descs.size() - 1);
  }

  [[nodiscard]] LevelTag prop_tag(std::uint32_t iface, const std::string& prop) const {
    return prob_.domain->interface_at(iface).tag_of(prop);
  }

  void build_component_semantics() {
    const spec::DomainSpec& dom = *prob_.domain;
    for (std::size_t c = 0; c < dom.component_count(); ++c) {
      const spec::ComponentSpec& cspec = dom.component_at(c);
      cp_.semantics.push_back(std::make_unique<CompiledSemantics>());
      SemanticsBundle bundle;
      bundle.sem = cp_.semantics.back().get();

      auto resolve = [&](const expr::RoleRef& ref) -> std::uint32_t {
        if (ref.primed) {
          raise("component " + cspec.name + ": primed variables (" + ref.str() +
                ") are only meaningful in cross blocks");
        }
        if (ref.scope == "node") {
          return slot_for(bundle, {SlotDesc::Kind::NodeRes, 0, cp_.names.intern(ref.prop)},
                          SlotRole::Resource, LevelTag::None);
        }
        const std::uint32_t idx = iface_index(ref.scope);
        const bool is_input = std::find(cspec.inputs.begin(), cspec.inputs.end(), ref.scope) !=
                              cspec.inputs.end();
        const SlotDesc::Kind kind =
            is_input ? SlotDesc::Kind::InputProp : SlotDesc::Kind::OutputProp;
        return slot_for(bundle, {kind, idx, cp_.names.intern(ref.prop)},
                        is_input ? SlotRole::Input : SlotRole::Output,
                        prop_tag(idx, ref.prop));
      };

      // Pre-create the leveled-property slots so level choices always have a
      // slot to constrain, even if no formula mentions them.
      for (const std::string& in : cspec.inputs) {
        const std::uint32_t idx = iface_index(in);
        const IfaceLevelInfo& info = level_info(idx);
        if (info.prop.valid()) {
          slot_for(bundle, {SlotDesc::Kind::InputProp, idx, info.prop}, SlotRole::Input,
                   info.tag);
        }
      }
      for (const std::string& out : cspec.outputs) {
        const std::uint32_t idx = iface_index(out);
        const IfaceLevelInfo& info = level_info(idx);
        if (info.prop.valid()) {
          slot_for(bundle, {SlotDesc::Kind::OutputProp, idx, info.prop}, SlotRole::Output,
                   info.tag);
        }
      }

      for (const expr::ConditionAst& cond : cspec.conditions) {
        expr::CompiledCondition cc;
        cc.lhs = expr::Program::compile(*cond.lhs, resolve);
        cc.op = cond.op;
        cc.rhs = expr::Program::compile(*cond.rhs, resolve);
        cc.source = cond.str();
        bundle.sem->conditions.push_back(std::move(cc));
      }
      for (const expr::EffectAst& eff : cspec.effects) {
        expr::CompiledEffect ce;
        ce.target = resolve(eff.target);
        ce.op = eff.op;
        ce.value = expr::Program::compile(*eff.value, resolve);
        ce.source = eff.str();
        bundle.sem->effects.push_back(std::move(ce));
      }
      if (cspec.cost) {
        bundle.sem->cost = expr::Program::compile(*cspec.cost, resolve);
        bundle.sem->has_cost = true;
      }
      comp_sem_.push_back(std::move(bundle));
    }
  }

  void build_cross_semantics() {
    const spec::DomainSpec& dom = *prob_.domain;
    for (std::size_t i = 0; i < dom.interface_count(); ++i) {
      const spec::InterfaceSpec& ispec = dom.interface_at(i);
      cp_.semantics.push_back(std::make_unique<CompiledSemantics>());
      SemanticsBundle bundle;
      bundle.sem = cp_.semantics.back().get();
      const std::uint32_t idx = static_cast<std::uint32_t>(i);

      auto resolve = [&](const expr::RoleRef& ref) -> std::uint32_t {
        if (ref.scope == "link") {
          // `link.lbw` and `link.lbw'` denote the same pool; effects update
          // it in place (Fig. 6's tick notation).
          return slot_for(bundle, {SlotDesc::Kind::LinkRes, 0, cp_.names.intern(ref.prop)},
                          SlotRole::Resource, LevelTag::None);
        }
        if (ref.scope == "node") {
          raise("interface " + ispec.name + ": node resources are not visible to cross actions");
        }
        if (ref.scope != ispec.name) {
          raise("interface " + ispec.name + ": cross formulae may only reference " + ispec.name +
                ".* and link.*, got " + ref.str());
        }
        const SlotDesc::Kind kind =
            ref.primed ? SlotDesc::Kind::CrossPost : SlotDesc::Kind::CrossPre;
        return slot_for(bundle, {kind, idx, cp_.names.intern(ref.prop)},
                        ref.primed ? SlotRole::Output : SlotRole::Input,
                        prop_tag(idx, ref.prop));
      };

      // Pre-create pre/post slots for every property so transported values
      // always have somewhere to live.
      for (const spec::PropertySpec& p : ispec.properties) {
        slot_for(bundle, {SlotDesc::Kind::CrossPre, idx, cp_.names.intern(p.name)},
                 SlotRole::Input, p.tag);
        slot_for(bundle, {SlotDesc::Kind::CrossPost, idx, cp_.names.intern(p.name)},
                 SlotRole::Output, p.tag);
      }

      for (const expr::ConditionAst& cond : ispec.cross_conditions) {
        expr::CompiledCondition cc;
        cc.lhs = expr::Program::compile(*cond.lhs, resolve);
        cc.op = cond.op;
        cc.rhs = expr::Program::compile(*cond.rhs, resolve);
        cc.source = cond.str();
        bundle.sem->conditions.push_back(std::move(cc));
      }
      std::vector<bool> has_post_effect(ispec.properties.size(), false);
      for (const expr::EffectAst& eff : ispec.cross_effects) {
        expr::CompiledEffect ce;
        ce.target = resolve(eff.target);
        ce.op = eff.op;
        ce.value = expr::Program::compile(*eff.value, resolve);
        ce.source = eff.str();
        if (eff.target.primed && eff.target.scope == ispec.name) {
          for (std::size_t pi = 0; pi < ispec.properties.size(); ++pi) {
            if (ispec.properties[pi].name == eff.target.prop) has_post_effect[pi] = true;
          }
        }
        bundle.sem->effects.push_back(std::move(ce));
      }
      // Properties without an explicit transport rule cross unchanged
      // (identity effect P.x' := P.x).
      for (std::size_t pi = 0; pi < ispec.properties.size(); ++pi) {
        if (has_post_effect[pi]) continue;
        const std::string& pname = ispec.properties[pi].name;
        expr::RoleRef pre{ispec.name, pname, false};
        expr::RoleRef post{ispec.name, pname, true};
        expr::CompiledEffect ce;
        ce.target = resolve(post);
        ce.op = expr::AssignOp::Set;
        ce.value = expr::Program::compile(*expr::make_var(pre), resolve);
        ce.source = post.str() + " := " + pre.str() + " (implicit)";
        bundle.sem->effects.push_back(std::move(ce));
      }
      if (ispec.cross_cost) {
        bundle.sem->cost = expr::Program::compile(*ispec.cross_cost, resolve);
        bundle.sem->has_cost = true;
      }
      cross_sem_.push_back(std::move(bundle));
    }
  }

  // ----- grounding -----------------------------------------------------------

  /// Level set of a node/link resource under the scenario (nullptr = none).
  [[nodiscard]] const LevelSet* node_res_levels(const std::string& res) const {
    auto it = scen_.node_levels.find(res);
    return it == scen_.node_levels.end() ? nullptr : &it->second;
  }
  [[nodiscard]] const LevelSet* link_res_levels(const std::string& res) const {
    auto it = scen_.link_levels.find(res);
    return it == scen_.link_levels.end() ? nullptr : &it->second;
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

  void ground_placements() {
    const spec::DomainSpec& dom = *prob_.domain;
    for (std::size_t c = 0; c < dom.component_count(); ++c) {
      const spec::ComponentSpec& cspec = dom.component_at(c);
      SemanticsBundle& bundle = comp_sem_[c];
      const CompiledSemantics& sem = *bundle.sem;

      for (NodeId n : prob_.network->node_ids()) {
        if (!prob_.placeable_at(cspec.name, n)) continue;
        ground_placement_at(static_cast<std::uint32_t>(c), cspec, bundle, sem, n);
      }
    }
  }

  void ground_placement_at(std::uint32_t comp_idx, const spec::ComponentSpec& cspec,
                           SemanticsBundle& bundle, const CompiledSemantics& sem, NodeId n) {
    // Digits: one per input interface (its level), one per output interface,
    // one per node-resource slot that the scenario levels.
    std::vector<std::uint32_t> radices;
    std::vector<std::uint32_t> input_iface_idx;
    for (const std::string& in : cspec.inputs) {
      const std::uint32_t idx = iface_index(in);
      input_iface_idx.push_back(idx);
      radices.push_back(level_info(idx).levels.count());
    }
    std::vector<std::uint32_t> output_iface_idx;
    for (const std::string& out : cspec.outputs) {
      const std::uint32_t idx = iface_index(out);
      output_iface_idx.push_back(idx);
      radices.push_back(level_info(idx).levels.count());
    }
    std::vector<std::pair<std::uint32_t, const LevelSet*>> leveled_res_slots;
    for (std::uint32_t s = 0; s < bundle.descs.size(); ++s) {
      if (bundle.descs[s].kind == SlotDesc::Kind::NodeRes) {
        if (const LevelSet* ls = node_res_levels(cp_.names.str(bundle.descs[s].prop))) {
          leveled_res_slots.emplace_back(s, ls);
          radices.push_back(ls->count());
        }
      }
    }

    for (Odometer od(radices); !od.done(); od.advance()) {
      ++cp_.combos_considered;
      const auto& d = od.digits();
      std::size_t di = 0;

      std::vector<Interval> slots(sem.slot_count, Interval::nonneg());
      // Node resources: optimistic availability [0, capacity].
      for (std::uint32_t s = 0; s < bundle.descs.size(); ++s) {
        if (bundle.descs[s].kind == SlotDesc::Kind::NodeRes) {
          const double cap = prob_.network->node(n).resource(cp_.names.str(bundle.descs[s].prop));
          slots[s] = {0.0, cap};
        }
      }

      std::vector<std::uint32_t> in_levels, out_levels;
      bool viable = true;

      // Input stream levels.
      for (std::size_t i = 0; i < input_iface_idx.size(); ++i, ++di) {
        const std::uint32_t lvl = d[di];
        in_levels.push_back(lvl);
        const IfaceLevelInfo& info = level_info(input_iface_idx[i]);
        if (!info.prop.valid()) continue;
        const std::uint32_t s =
            find_slot(bundle, {SlotDesc::Kind::InputProp, input_iface_idx[i], info.prop});
        slots[s] = info.levels.interval(lvl);
      }
      // Output levels noted; validated post-effects.
      std::vector<std::uint32_t> out_digit;
      for (std::size_t i = 0; i < output_iface_idx.size(); ++i, ++di) {
        out_digit.push_back(d[di]);
      }
      // Leveled node resources.
      for (auto& [s, ls] : leveled_res_slots) {
        slots[s] = intersect(slots[s], ls->interval(d[di++]));
        if (slots[s].is_empty()) viable = false;
      }
      if (!viable) {
        ++cp_.combos_pruned;
        continue;
      }

      // Leveling-time pruning: conditions must be satisfiable over the
      // optimistic intervals.
      for (const expr::CompiledCondition& cond : sem.conditions) {
        if (!cond.satisfiable(slots)) {
          viable = false;
          break;
        }
      }
      if (!viable) {
        ++cp_.combos_pruned;
        continue;
      }

      std::vector<Interval> post = slots;
      for (const expr::CompiledEffect& eff : sem.effects) eff.apply_interval(post);

      // Output levels must be reachable by the computed effects.
      for (std::size_t i = 0; i < output_iface_idx.size(); ++i) {
        const IfaceLevelInfo& info = level_info(output_iface_idx[i]);
        out_levels.push_back(out_digit[i]);
        if (!info.prop.valid()) {
          if (out_digit[i] != 0) viable = false;  // single trivial level
          continue;
        }
        const std::uint32_t s =
            find_slot(bundle, {SlotDesc::Kind::OutputProp, output_iface_idx[i], info.prop});
        if (!spec::level_matches(info.levels.interval(out_digit[i]), post[s],
                                 /*strict_floor=*/true)) {
          viable = false;
        }
      }
      if (!viable) {
        ++cp_.combos_pruned;
        continue;
      }

      GroundAction act;
      act.kind = ActionKind::Place;
      act.spec_index = comp_idx;
      act.node = n;
      act.sem = &sem;
      act.in_levels = std::move(in_levels);
      act.out_levels = std::move(out_levels);

      // Bind slots to located variables and record optimistic intervals.
      act.slot_vars.resize(bundle.descs.size());
      act.slot_opt.resize(bundle.descs.size());
      for (std::uint32_t s = 0; s < bundle.descs.size(); ++s) {
        const SlotDesc& desc = bundle.descs[s];
        switch (desc.kind) {
          case SlotDesc::Kind::InputProp:
          case SlotDesc::Kind::OutputProp:
            act.slot_vars[s] = cp_.vars.iface_prop(InterfaceId(desc.iface), n, desc.prop);
            break;
          case SlotDesc::Kind::NodeRes:
            act.slot_vars[s] = cp_.vars.node_res(n, desc.prop);
            break;
          default:
            SEKITEI_ASSERT(false);
        }
        act.slot_opt[s] = slots[s];
      }
      // Output slots assert their chosen level interval.
      for (std::size_t i = 0; i < output_iface_idx.size(); ++i) {
        const IfaceLevelInfo& info = level_info(output_iface_idx[i]);
        if (!info.prop.valid()) continue;
        const std::uint32_t s =
            find_slot(bundle, {SlotDesc::Kind::OutputProp, output_iface_idx[i], info.prop});
        act.slot_opt[s] = info.levels.interval(act.out_levels[i]);
      }

      // Logical preconditions and effects.
      for (std::size_t i = 0; i < input_iface_idx.size(); ++i) {
        sorted_insert(act.pre, cp_.props.avail(InterfaceId(input_iface_idx[i]), n,
                                               act.in_levels[i]));
      }
      sorted_insert(act.eff, cp_.props.placed(ComponentId(comp_idx), n));
      for (std::size_t i = 0; i < output_iface_idx.size(); ++i) {
        sorted_insert(act.eff, cp_.props.avail(InterfaceId(output_iface_idx[i]), n,
                                               act.out_levels[i]));
      }

      eval_cost(sem, post, act);
      cp_.actions.push_back(std::move(act));
    }
  }

  void ground_crossings() {
    const spec::DomainSpec& dom = *prob_.domain;
    for (std::size_t i = 0; i < dom.interface_count(); ++i) {
      SemanticsBundle& bundle = cross_sem_[i];
      for (LinkId l : prob_.network->link_ids()) {
        const net::Link& link = prob_.network->link(l);
        ground_cross_over(static_cast<std::uint32_t>(i), bundle, l, link.a, link.b);
        ground_cross_over(static_cast<std::uint32_t>(i), bundle, l, link.b, link.a);
      }
    }
  }

  void ground_cross_over(std::uint32_t iface_idx, SemanticsBundle& bundle, LinkId l, NodeId u,
                         NodeId v) {
    const CompiledSemantics& sem = *bundle.sem;
    const IfaceLevelInfo& info = level_info(iface_idx);
    const net::Link& link = prob_.network->link(l);

    std::vector<std::uint32_t> radices{info.levels.count(), info.levels.count()};
    std::vector<std::pair<std::uint32_t, const LevelSet*>> leveled_res_slots;
    for (std::uint32_t s = 0; s < bundle.descs.size(); ++s) {
      if (bundle.descs[s].kind == SlotDesc::Kind::LinkRes) {
        if (const LevelSet* ls = link_res_levels(cp_.names.str(bundle.descs[s].prop))) {
          leveled_res_slots.emplace_back(s, ls);
          radices.push_back(ls->count());
        }
      }
    }

    for (Odometer od(radices); !od.done(); od.advance()) {
      ++cp_.combos_considered;
      const auto& d = od.digits();
      const std::uint32_t in_lvl = d[0];
      const std::uint32_t out_lvl = d[1];

      std::vector<Interval> slots(sem.slot_count, Interval::nonneg());
      for (std::uint32_t s = 0; s < bundle.descs.size(); ++s) {
        if (bundle.descs[s].kind == SlotDesc::Kind::LinkRes) {
          const double cap = link.resource(cp_.names.str(bundle.descs[s].prop));
          slots[s] = {0.0, cap};
        }
      }
      bool viable = true;
      std::size_t di = 2;
      for (auto& [s, ls] : leveled_res_slots) {
        slots[s] = intersect(slots[s], ls->interval(d[di++]));
        if (slots[s].is_empty()) viable = false;
      }
      if (viable && info.prop.valid()) {
        const std::uint32_t s =
            find_slot(bundle, {SlotDesc::Kind::CrossPre, iface_idx, info.prop});
        slots[s] = info.levels.interval(in_lvl);
      }
      if (viable) {
        for (const expr::CompiledCondition& cond : sem.conditions) {
          if (!cond.satisfiable(slots)) {
            viable = false;
            break;
          }
        }
      }
      std::vector<Interval> post;
      if (viable) {
        post = slots;
        for (const expr::CompiledEffect& eff : sem.effects) eff.apply_interval(post);
        if (info.prop.valid()) {
          const std::uint32_t s =
              find_slot(bundle, {SlotDesc::Kind::CrossPost, iface_idx, info.prop});
          if (!spec::level_matches(info.levels.interval(out_lvl), post[s],
                                   /*strict_floor=*/true)) {
            viable = false;
          }
        } else if (out_lvl != 0) {
          viable = false;
        }
      }
      if (!viable) {
        ++cp_.combos_pruned;
        continue;
      }

      GroundAction act;
      act.kind = ActionKind::Cross;
      act.spec_index = iface_idx;
      act.node = u;
      act.node2 = v;
      act.link = l;
      act.sem = &sem;
      act.in_levels = {in_lvl};
      act.out_levels = {out_lvl};

      act.slot_vars.resize(bundle.descs.size());
      act.slot_opt.resize(bundle.descs.size());
      for (std::uint32_t s = 0; s < bundle.descs.size(); ++s) {
        const SlotDesc& desc = bundle.descs[s];
        switch (desc.kind) {
          case SlotDesc::Kind::CrossPre:
            act.slot_vars[s] = cp_.vars.iface_prop(InterfaceId(desc.iface), u, desc.prop);
            break;
          case SlotDesc::Kind::CrossPost:
            act.slot_vars[s] = cp_.vars.iface_prop(InterfaceId(desc.iface), v, desc.prop);
            break;
          case SlotDesc::Kind::LinkRes:
            act.slot_vars[s] = cp_.vars.link_res(l, desc.prop);
            break;
          default:
            SEKITEI_ASSERT(false);
        }
        act.slot_opt[s] = slots[s];
      }
      if (info.prop.valid()) {
        const std::uint32_t s =
            find_slot(bundle, {SlotDesc::Kind::CrossPost, iface_idx, info.prop});
        act.slot_opt[s] = info.levels.interval(out_lvl);
      }

      sorted_insert(act.pre, cp_.props.avail(InterfaceId(iface_idx), u, in_lvl));
      sorted_insert(act.eff, cp_.props.avail(InterfaceId(iface_idx), v, out_lvl));

      eval_cost(sem, post, act);
      cp_.actions.push_back(std::move(act));
    }
  }

  [[nodiscard]] static std::uint32_t find_slot(const SemanticsBundle& b, const SlotDesc& d) {
    for (std::uint32_t i = 0; i < b.descs.size(); ++i) {
      if (b.descs[i] == d) return i;
    }
    raise("compile: internal slot lookup failure");
  }

  // ----- initial state, goal, achievers --------------------------------------

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
      const spec::ComponentSpec* cspec = prob_.domain->find_component(comp);
      if (cspec == nullptr) raise("preplaced: unknown component " + comp);
      std::uint32_t comp_idx = 0;
      for (std::size_t c = 0; c < prob_.domain->component_count(); ++c) {
        if (prob_.domain->component_at(c).name == comp) {
          comp_idx = static_cast<std::uint32_t>(c);
        }
      }
      sorted_insert(cp_.init_props, cp_.props.placed(ComponentId(comp_idx), node));
    }
  }

  void build_goal() {
    auto placed_prop = [&](const std::string& comp, NodeId node) {
      std::uint32_t comp_idx = UINT32_MAX;
      for (std::size_t c = 0; c < prob_.domain->component_count(); ++c) {
        if (prob_.domain->component_at(c).name == comp) {
          comp_idx = static_cast<std::uint32_t>(c);
        }
      }
      if (comp_idx == UINT32_MAX) raise("goal: unknown component " + comp);
      return cp_.props.placed(ComponentId(comp_idx), node);
    };
    cp_.goal_prop = placed_prop(prob_.goal_component, prob_.goal_node);
    sorted_insert(cp_.goal_props, cp_.goal_prop);
    for (const auto& [comp, node] : prob_.extra_goals) {
      sorted_insert(cp_.goal_props, placed_prop(comp, node));
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
        const PropKey key = cp_.props.key(e);
        register_achiever(e, aid);
        if (key.kind != PropKind::Avail) continue;
        const IfaceLevelInfo& info = level_info(key.entity);
        if (info.tag == LevelTag::Degradable) {
          for (std::uint32_t j = 0; j < key.level; ++j) {
            register_achiever(cp_.props.avail(InterfaceId(key.entity), NodeId(key.node), j),
                              aid);
          }
        } else if (info.tag == LevelTag::Upgradable) {
          for (std::uint32_t j = key.level + 1; j < info.levels.count(); ++j) {
            register_achiever(cp_.props.avail(InterfaceId(key.entity), NodeId(key.node), j),
                              aid);
          }
        }
      }
    }
    // Closure on the initial state as well.
    std::vector<PropId> extra;
    for (PropId p : cp_.init_props) {
      const PropKey key = cp_.props.key(p);
      if (key.kind != PropKind::Avail) continue;
      const IfaceLevelInfo& info = level_info(key.entity);
      if (info.tag == LevelTag::Degradable) {
        for (std::uint32_t j = 0; j < key.level; ++j) {
          extra.push_back(cp_.props.avail(InterfaceId(key.entity), NodeId(key.node), j));
        }
      } else if (info.tag == LevelTag::Upgradable) {
        for (std::uint32_t j = key.level + 1; j < info.levels.count(); ++j) {
          extra.push_back(cp_.props.avail(InterfaceId(key.entity), NodeId(key.node), j));
        }
      }
    }
    for (PropId p : extra) sorted_insert(cp_.init_props, p);
    cp_.achievers.resize(cp_.props.size());
    // Sorted achiever lists admit O(log n) "does a support p" queries in the
    // planner's regression loops.
    for (auto& lst : cp_.achievers) std::sort(lst.begin(), lst.end());
  }
};

}  // namespace

CompiledProblem compile(const CppProblem& problem, const spec::LevelScenario& scenario) {
  Compiler c(problem, scenario);
  return c.run();
}

}  // namespace sekitei::model
