// Compiled-problem golden: every instance the planner is regularly fed is
// compiled and rendered field by field (actions with their levels,
// propositions, located variables, optimistic intervals and costs; the
// achiever index; the initial state and the goal), and the rendering's
// counts and 64-bit FNV-1a digest are compared with
// tests/compiled_problems.golden.  Tiny rows are written out action by
// action so that a mismatch can be read.  A change to grounding that is
// meant to be behaviour-preserving must leave the file untouched: action
// ids, PropId/VarId registration order and every interval are pinned.
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <set>
#include <sstream>

#include <gtest/gtest.h>

#include "core/planner.hpp"
#include "domains/grid.hpp"
#include "domains/media.hpp"
#include "domains/services.hpp"
#include "model/compile.hpp"
#include "model/textio.hpp"
#include "repair/repair.hpp"
#include "sim/executor.hpp"
#include "support/error.hpp"

#ifndef SEKITEI_TEST_COMPILE_GOLDEN
#error "SEKITEI_TEST_COMPILE_GOLDEN must name tests/compiled_problems.golden (set by CMake)"
#endif
#ifndef SEKITEI_TEST_DATA_DIR
#error "SEKITEI_TEST_DATA_DIR must name examples/data (set by CMake)"
#endif
#ifndef SEKITEI_TEST_LINT_CORPUS_DIR
#error "SEKITEI_TEST_LINT_CORPUS_DIR must name tests/lint_corpus (set by CMake)"
#endif

namespace sekitei::model {
namespace {

namespace fs = std::filesystem;

std::string slurp(const fs::path& p) {
  std::ifstream in(p);
  std::ostringstream os;
  os << in.rdbuf();
  return os.str();
}

std::string g17(double v) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

template <class Tag>
std::string id(Id<Tag> i) {
  return i.valid() ? std::to_string(i.index()) : "-";
}

std::string interval(const Interval& v) {
  return '[' + g17(v.lo) + ',' + g17(v.hi) + (v.hi_open ? ')' : ']');
}

template <class T, class F>
std::string list(const std::vector<T>& xs, F render) {
  std::string s;
  for (const T& x : xs) s += ' ' + render(x);
  return s;
}

std::string action_line(const GroundAction& a) {
  const auto num = [](std::uint32_t v) { return std::to_string(v); };
  std::string s = a.kind == ActionKind::Place ? "place" : "cross";
  s += ' ' + std::to_string(a.spec_index) + ' ' + id(a.node) + ' ' + id(a.node2) + ' ' +
       id(a.link);
  s += " | in" + list(a.in_levels, num) + " | out" + list(a.out_levels, num);
  s += " | pre" + list(a.pre, id<PropTag>) + " | eff" + list(a.eff, id<PropTag>);
  s += " | vars" + list(a.slot_vars, id<VarTag>) + " | opt" + list(a.slot_opt, interval);
  return s + " | cost " + g17(a.cost_lb) + ' ' + g17(a.cost_ub) + '\n';
}

std::uint64_t fnv1a(const std::string& s) {
  std::uint64_t h = 1469598103934665603ULL;
  for (const unsigned char c : s) {
    h ^= c;
    h *= 1099511628211ULL;
  }
  return h;
}

/// One instance's golden rows: a count/digest line, then (when `detail`)
/// every action on a line of its own.
std::string dump(const std::string& name, const CompiledProblem& cp, bool detail) {
  std::string actions;
  for (const GroundAction& a : cp.actions) actions += action_line(a);
  std::string rest;
  std::size_t achiever_entries = 0;
  for (std::size_t p = 0; p < cp.achievers.size(); ++p) {
    achiever_entries += cp.achievers[p].size();
    rest += "ach " + std::to_string(p) + list(cp.achievers[p], id<ActionTag>) + '\n';
  }
  rest += "init" + list(cp.init_props, id<PropTag>) + '\n';
  for (const InitMapEntry& e : cp.init_map) {
    rest += "map " + id(e.var) + ' ' + interval(e.value) + '\n';
  }
  rest += "goal" + list(cp.goal_props, id<PropTag>) + '\n';

  char digest[24];
  std::snprintf(digest, sizeof digest, "%016llx",
                static_cast<unsigned long long>(fnv1a(actions + rest)));
  std::string out =
      name + " actions " + std::to_string(cp.actions.size()) + " combos " +
      std::to_string(cp.combos_considered) + " props " + std::to_string(cp.props.size()) +
      " vars " + std::to_string(cp.vars.size()) + " init_props " +
      std::to_string(cp.init_props.size()) + " init_map " + std::to_string(cp.init_map.size()) +
      " achievers " + std::to_string(achiever_entries) + " digest " + digest + '\n';
  if (detail) {
    std::istringstream lines(actions);
    std::string line;
    for (std::size_t i = 0; std::getline(lines, line); ++i) {
      out += "  " + std::to_string(i) + ' ' + line + '\n';
    }
  }
  return out;
}

/// Large/C compiled for repair: the base plan, a seeded damage, the
/// survivors, the repair problem and its adaptation costs, as the engine's
/// repair path builds them.
std::string large_c_repair() {
  const auto inst = domains::media::large();
  const CompiledProblem cp = compile(inst->problem, domains::media::scenario('C'));
  core::Sekitei planner(cp);
  sim::Executor exec(cp);
  const core::PlanResult r =
      planner.plan([&](const core::Plan& p) { return exec.execute(p).feasible; });
  if (!r.ok()) return "large/C repair error: " + r.failure + '\n';
  const sim::ExecutionReport report = exec.execute(*r.plan);
  const repair::Damage damage = repair::seeded_drift(cp, *r.plan, /*seed=*/1);
  const repair::Survivors dep = repair::compute_survivors(cp, *r.plan, report.choices, damage);
  const net::Network damaged = repair::damaged_copy(inst->net, damage, &dep.residual);
  const CppProblem rp = repair::repair_problem(inst->problem, damaged, dep);
  CompiledProblem rcp = compile(rp, domains::media::scenario('C'));
  repair::apply_adaptation_costs(rcp, dep, {});
  return dump("large/C repair", rcp, false);
}

std::string compiled_problems() {
  std::string out;
  const auto tiny = domains::media::tiny();
  const auto small = domains::media::small();
  const auto large = domains::media::large();
  const std::pair<const char*, const domains::media::Instance*> sizes[] = {
      {"tiny", tiny.get()}, {"small", small.get()}, {"large", large.get()}};
  for (const auto& [size, inst] : sizes) {
    for (const char sc : std::string("ABCDE")) {
      const CompiledProblem cp = compile(inst->problem, domains::media::scenario(sc));
      out += dump(std::string(size) + '/' + sc, cp, inst == tiny.get());
    }
  }

  const auto grid = domains::grid::two_cluster();
  out += dump("grid two_cluster", compile(grid->problem, domains::grid::scenario()), false);
  const auto dmz = domains::services::dmz();
  out += dump("services dmz", compile(dmz->problem, domains::services::scenario()), false);

  const fs::path data(SEKITEI_TEST_DATA_DIR);
  const std::string media = slurp(data / "media.sk");
  for (const char* file : {"tiny.sk", "small.sk", "diamond.sk"}) {
    const auto loaded = load_problem(media, slurp(data / file));
    out += dump(file, compile(loaded->problem, loaded->scenario), false);
  }

  // Compile-time errors of the two semantics builders and of level
  // indexing, each from one edit of media.sk (or of tiny.sk's scenario).
  struct Edit {
    const char* name;
    const char* from;
    const char* to;
    bool in_problem;
  };
  const Edit edits[] = {
      {"cross node resource", "cost 1 + M.ibw / 10;", "cost 1 + node.cpu;", false},
      {"cross foreign interface", "cost 1 + M.ibw / 10;", "cost 1 + T.ibw;", false},
      {"component primed", "M.ibw >= demand;", "M.ibw' >= demand;", false},
      {"two leveled properties", "levels M.ibw { 90, 100 }",
       "levels M.ibw { 90, 100 }\n  levels M.lat { 5 }", true},
  };
  const std::string tiny_text = slurp(data / "tiny.sk");
  for (const Edit& e : edits) {
    std::string domain = media;
    std::string problem = tiny_text;
    std::string& text = e.in_problem ? problem : domain;
    text.replace(text.find(e.from), std::string(e.from).size(), e.to);
    if (e.in_problem) {
      domain.replace(domain.find("property ibw degradable;"), 24,
                     "property ibw degradable;\n  property lat;");
    }
    try {
      const auto loaded = load_problem(domain, problem);
      out += dump(std::string("edit ") + e.name, compile(loaded->problem, loaded->scenario),
                  false);
    } catch (const Error& err) {
      out += std::string("edit ") + e.name + " error: " + err.what() + '\n';
    }
  }

  out += large_c_repair();

  const fs::path lint(SEKITEI_TEST_LINT_CORPUS_DIR);
  std::set<std::string> stems;
  for (const auto& e : fs::directory_iterator(lint)) {
    const std::string f = e.path().filename().string();
    const std::string suffix = ".domain.sk";
    if (f.size() > suffix.size() && f.ends_with(suffix)) {
      stems.insert(f.substr(0, f.size() - suffix.size()));
    }
  }
  for (const std::string& stem : stems) {
    try {
      const auto loaded = load_problem(slurp(lint / (stem + ".domain.sk")),
                                       slurp(lint / (stem + ".problem.sk")));
      out += dump("lint " + stem, compile(loaded->problem, loaded->scenario), false);
    } catch (const Error& e) {
      out += "lint " + stem + " error: " + e.what() + '\n';
    }
  }
  return out;
}

TEST(Compile, ActionsMatchTheGoldenFile) {
  std::ifstream in(SEKITEI_TEST_COMPILE_GOLDEN);
  ASSERT_TRUE(in) << "cannot open " << SEKITEI_TEST_COMPILE_GOLDEN;
  std::ostringstream golden;
  golden << in.rdbuf();
  EXPECT_EQ(compiled_problems(), golden.str());
}

}  // namespace
}  // namespace sekitei::model
