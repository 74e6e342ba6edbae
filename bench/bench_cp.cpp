// Second-backend comparison: the in-house CP branch-and-bound (src/cp)
// against the three-phase RG A* search, plus the CP-with-vs-without
// symmetry-breaking pair the perf gate pins.
//
//   star      bench_symmetry's hub-and-spoke family with K link-for-link
//             identical middles.  CP is run twice over the same compiled
//             problem (lex-leader symmetry breaking on / off); the medians'
//             ratio is the "cp.speedup" number the perf gate tracks — the
//             record carries the "speedup" key.
//   table2    Tiny scenarios B-E, Small B, C and E, and Large C re-solved
//             by both backends; each row asserts cost agreement and reports
//             both wall clocks (each the median of three in-process
//             repeats), CP's branches, its cost-bounded passes, its
//             validator calls and the time spent inside them (sim_ms).
//             The gate sums the rows' cp_ms into "cp.table2_ms_total".
//             These records deliberately carry NO "speedup" key so the
//             gate's max() only ever sees the star number.
//
// Each row emits one machine-readable JSON line (grep '^{"bench"').
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <string>
#include <vector>

#include "analysis/symmetry.hpp"
#include "bench_json.hpp"
#include "core/planner.hpp"
#include "cp/search.hpp"
#include "domains/media.hpp"
#include "model/compile.hpp"
#include "model/textio.hpp"
#include "sim/executor.hpp"
#include "support/timer.hpp"

namespace {

using namespace sekitei;

/// Best-of-repeats: the two timed phases interleave per repeat, so taking
/// each side's quietest repeat cancels load spikes out of the ratio — the
/// pinned speedup stays stable where a median-of-sub-ms-samples does not.
double best(const std::vector<double>& v) {
  return v.empty() ? 0.0 : *std::min_element(v.begin(), v.end());
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  return v[v.size() / 2];
}

/// Hub-and-spoke drop-off: s -LAN- m_i -WAN- cl for K identical middles
/// (the same generator as bench_symmetry's star family).
std::string star_problem(int middles) {
  std::string text = "network {\n  node s { cpu 30; }\n";
  for (int i = 1; i <= middles; ++i) {
    text += "  node m" + std::to_string(i) + " { cpu 30; }\n";
  }
  text += "  node cl { cpu 30; }\n";
  for (int i = 1; i <= middles; ++i) {
    // Appended, not "m" + to_string(i): GCC 12 raises a false -Wrestrict.
    std::string m = "m";
    m += std::to_string(i);
    text += "  link s " + m + " lan { lbw 150; delay 1; }\n";
    text += "  link " + m + " cl wan { lbw 66; delay 10; }\n";
  }
  text +=
      "}\n"
      "problem {\n"
      "  stream M.ibw at s = [0, 200];\n"
      "  preplaced Server at s;\n"
      "  forbid Server;\n"
      "  restrict Client to cl;\n"
      "  goal Client at cl;\n"
      "}\n"
      // Three cutpoints per property (bench_symmetry uses two): the deeper
      // level grid lengthens both runs past the timer-noise floor, which is
      // what makes the pinned speedup stable run-to-run.
      "scenario {\n"
      "  levels M.ibw { 80, 90, 100 }\n"
      "  levels T.ibw { 56, 63, 70 }\n"
      "  levels I.ibw { 24, 27, 30 }\n"
      "  levels Z.ibw { 28, 31.5, 35 }\n"
      "}\n";
  return text;
}

/// Validator calls of one solve and the time spent inside them.
struct Validations {
  std::uint64_t calls = 0;
  double ms = 0.0;
};

/// CP solve with the simulator as the acceptance check, like the planner
/// facade wires it.
cp::Result solve_cp(const model::CompiledProblem& cp_model, bool symmetry,
                    Validations* validations = nullptr) {
  sim::Executor exec(cp_model);
  cp::Options opt;
  opt.symmetry_breaking = symmetry;
  opt.validate = [&](std::span<const ActionId> steps, double) {
    Stopwatch w;
    core::Plan plan;
    plan.steps.assign(steps.begin(), steps.end());
    const bool feasible = exec.execute(plan).feasible;
    if (validations != nullptr) {
      ++validations->calls;
      validations->ms += w.elapsed_ms();
    }
    return feasible;
  };
  return cp::solve(cp_model, opt);
}

int run_star(int middles, int repeats) {
  const auto star = model::load_problem(domains::media::domain_text(),
                                        star_problem(middles));
  std::vector<double> with_ms, without_ms;
  double with_cost = 0.0, without_cost = 0.0;
  cp::Stats with_stats, without_stats;
  for (int i = 0; i < repeats; ++i) {
    auto cp_model = model::compile(star->problem, star->scenario);
    analysis::attach_symmetry(cp_model);
    {
      Stopwatch w;
      const cp::Result r = solve_cp(cp_model, false);
      without_ms.push_back(w.elapsed_ms());
      if (!r.ok()) {
        std::printf("star without symmetry found no plan: %s\n", r.failure.c_str());
        return 1;
      }
      without_cost = r.cost;
      without_stats = r.stats;
    }
    {
      Stopwatch w;
      const cp::Result r = solve_cp(cp_model, true);
      with_ms.push_back(w.elapsed_ms());
      if (!r.ok()) {
        std::printf("star with symmetry found no plan: %s\n", r.failure.c_str());
        return 1;
      }
      with_cost = r.cost;
      with_stats = r.stats;
    }
  }
  if (std::abs(with_cost - without_cost) > 1e-9) {
    std::printf("star cost mismatch: with %.3f vs without %.3f\n", with_cost, without_cost);
    return 1;
  }
  const double p50_with = best(with_ms);
  const double p50_without = best(without_ms);
  const double speedup = p50_with > 0.0 ? p50_without / p50_with : 0.0;
  std::printf("star (K=%d middles): cost lb %.2f\n", middles, with_cost);
  std::printf("  cp without symmetry best %8.3f ms  (%llu branches)\n", p50_without,
              (unsigned long long)without_stats.branches);
  std::printf("  cp with    symmetry best %8.3f ms  (%llu branches, %llu pruned)\n",
              p50_with, (unsigned long long)with_stats.branches,
              (unsigned long long)with_stats.pruned_symmetry);
  std::printf("  speedup %.2fx\n", speedup);
  benchjson::emit("cp", {benchjson::kv("family", "star"),
                         benchjson::kv("middles", middles),
                         benchjson::kv("repeats", repeats),
                         benchjson::kv("without_best_ms", p50_without),
                         benchjson::kv("with_best_ms", p50_with),
                         benchjson::kv("without_branches", without_stats.branches),
                         benchjson::kv("with_branches", with_stats.branches),
                         benchjson::kv("pruned_symmetry", with_stats.pruned_symmetry),
                         benchjson::kv("speedup", speedup),
                         benchjson::kv("cost_lb", with_cost)},
                  nullptr);
  return 0;
}

/// Each table2 row's times are the median of this many in-process repeats,
/// so a single load spike does not move the gate's sum.
constexpr int kRowRepeats = 3;

int run_table2_row(const char* net_name, const domains::media::Instance& inst,
                   char sc_name) {
  auto cp_model = model::compile(inst.problem, domains::media::scenario(sc_name));
  const char scenario[2] = {sc_name, '\0'};

  std::vector<double> rg_times, cp_times, sim_times;
  core::PlanResult rg;
  cp::Result bnb;
  Validations validations;
  for (int i = 0; i < kRowRepeats; ++i) {
    Stopwatch rg_w;
    core::Sekitei planner(cp_model);
    sim::Executor exec(cp_model);
    rg = planner.plan([&](const core::Plan& p) { return exec.execute(p).feasible; });
    rg_times.push_back(rg_w.elapsed_ms());

    validations = {};
    Stopwatch cp_w;
    bnb = solve_cp(cp_model, true, &validations);
    cp_times.push_back(cp_w.elapsed_ms());
    sim_times.push_back(validations.ms);
  }
  const double rg_ms = median(rg_times);
  const double cp_ms = median(cp_times);
  const double sim_ms = median(sim_times);

  if (rg.ok() != bnb.ok()) {
    std::printf("%s/%c: verdicts differ (rg %s, cp %s)\n", net_name, sc_name,
                rg.ok() ? "solved" : "no plan", bnb.ok() ? "solved" : "no plan");
    return 1;
  }
  if (rg.ok() && std::abs(rg.plan->cost_lb - bnb.cost) > 1e-6) {
    std::printf("%s/%c: costs differ (rg %.3f, cp %.3f)\n", net_name, sc_name,
                rg.plan->cost_lb, bnb.cost);
    return 1;
  }
  const double cost = rg.ok() ? rg.plan->cost_lb : 0.0;
  std::printf(
      "  %-5s %c | %11.2f | rg %9.2f ms (%7llu exp) | cp %9.2f ms (%8llu branches, %3llu "
      "passes, sim %7.2f ms in %4llu validations)\n",
      net_name, sc_name, cost, rg_ms, (unsigned long long)rg.stats.rg_expansions, cp_ms,
      (unsigned long long)bnb.stats.branches, (unsigned long long)bnb.stats.passes, sim_ms,
      (unsigned long long)validations.calls);
  benchjson::emit("cp", {benchjson::kv("family", "table2"),
                         benchjson::kv("net", net_name),
                         benchjson::kv("scenario", scenario),
                         benchjson::kv("plan_found", rg.ok()),
                         benchjson::kv("cost_lb", cost),
                         benchjson::kv("rg_ms", rg_ms),
                         benchjson::kv("cp_ms", cp_ms),
                         benchjson::kv("rg_expansions", rg.stats.rg_expansions),
                         benchjson::kv("cp_branches", bnb.stats.branches),
                         benchjson::kv("passes", bnb.stats.passes),
                         benchjson::kv("sim_ms", sim_ms),
                         benchjson::kv("validations", validations.calls),
                         benchjson::kv("repeats", kRowRepeats)},
                  nullptr);
  return 0;
}

}  // namespace

int main() {
  constexpr int kRepeats = 9;
  constexpr int kMiddles = 8;

  int rc = run_star(kMiddles, kRepeats);

  std::printf("\nbackend comparison (both cost-optimal; costs must agree):\n");
  const auto tiny = domains::media::tiny();
  for (char sc : {'B', 'C', 'D', 'E'}) rc |= run_table2_row("tiny", *tiny, sc);
  const auto small = domains::media::small();
  for (char sc : {'B', 'C', 'E'}) rc |= run_table2_row("small", *small, sc);
  const auto large = domains::media::large();
  rc |= run_table2_row("large", *large, 'C');
  return rc;
}
