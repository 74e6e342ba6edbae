// Canonical-representative pruning, wall-clock: plan the same instance with
// and without the verified node partition attached (analysis/symmetry.hpp)
// and compare medians.  Two families:
//
//   star          server pinned at the hub, K link-for-link identical
//                 middle nodes each offering the same LAN-in/WAN-out route
//                 to the client; the WAN legs sit below the raw T demand so
//                 every route needs the Zip/Unzip transformation.  The
//                 unpruned search explores all K interchangeable routes,
//                 the pruned search only the canonical one — the
//                 "symmetry.speedup" number the perf gate pins.
//   transit-stub  the 93-node Large network (Fig. 10).  Its generated stub
//                 domains are deliberately irregular, so this family mostly
//                 measures that attaching the partition to an asymmetric
//                 instance costs nothing (speedup ~1.0, not gated: the perf
//                 gate takes the max across "symmetry" records).
//
// Both runs of a pair must agree on the optimal cost — pruning only removes
// twin branches, never plans (tests/symmetry_test.cpp pins the same
// guarantee; the fuzzer's symmetry oracle re-checks it on random instances).
#include <algorithm>
#include <cstdio>
#include <string>
#include <vector>

#include "analysis/symmetry.hpp"
#include "bench_json.hpp"
#include "core/planner.hpp"
#include "domains/media.hpp"
#include "model/compile.hpp"
#include "model/textio.hpp"
#include "sim/executor.hpp"
#include "support/timer.hpp"

namespace {

using namespace sekitei;

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  return v[v.size() / 2];
}

/// Hub-and-spoke drop-off: s -LAN- m_i -WAN- cl for K identical middles.
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
      "scenario {\n"
      "  levels M.ibw { 90, 100 }\n"
      "  levels T.ibw { 63, 70 }\n"
      "  levels I.ibw { 27, 30 }\n"
      "  levels Z.ibw { 31.5, 35 }\n"
      "}\n";
  return text;
}

struct PairResult {
  double unpruned_p50 = 0.0;
  double pruned_p50 = 0.0;
  double cost = 0.0;
  std::uint32_t classes = 0;
  core::PlannerStats pruned_stats;
  bool ok = false;
};

/// Times plan() over `cp` with the partition detached, then attached.
PairResult run_pair(const model::CppProblem& problem, const spec::LevelScenario& scen,
                    int repeats) {
  PairResult out;
  std::vector<double> unpruned_ms, pruned_ms;
  double unpruned_cost = 0.0, pruned_cost = 0.0;
  for (int i = 0; i < repeats; ++i) {
    {
      Stopwatch w;
      auto cp = model::compile(problem, scen);
      core::Sekitei planner(cp);
      sim::Executor exec(cp);
      auto r = planner.plan([&](const core::Plan& p) { return exec.execute(p).feasible; });
      unpruned_ms.push_back(w.elapsed_ms());
      if (!r.ok()) {
        std::printf("unpruned run found no plan: %s\n", r.failure.c_str());
        return out;
      }
      unpruned_cost = r.plan->cost_lb;
    }
    {
      Stopwatch w;
      auto cp = model::compile(problem, scen);
      analysis::attach_symmetry(cp);
      core::Sekitei planner(cp);
      sim::Executor exec(cp);
      auto r = planner.plan([&](const core::Plan& p) { return exec.execute(p).feasible; });
      pruned_ms.push_back(w.elapsed_ms());
      if (!r.ok()) {
        std::printf("pruned run found no plan: %s\n", r.failure.c_str());
        return out;
      }
      pruned_cost = r.plan->cost_lb;
      out.classes = cp.symmetric_class_count;
      out.pruned_stats = r.stats;
    }
  }
  if (unpruned_cost != pruned_cost) {
    std::printf("cost mismatch: unpruned %.3f vs pruned %.3f\n", unpruned_cost, pruned_cost);
    return out;
  }
  out.unpruned_p50 = median(unpruned_ms);
  out.pruned_p50 = median(pruned_ms);
  out.cost = pruned_cost;
  out.ok = true;
  return out;
}

int emit_family(const char* family, const PairResult& r, int repeats) {
  if (!r.ok) return 1;
  const double speedup = r.pruned_p50 > 0.0 ? r.unpruned_p50 / r.pruned_p50 : 0.0;
  std::printf("%s: %u symmetric class(es)\n", family, r.classes);
  std::printf("  unpruned p50 %8.3f ms  (cost lb %.2f)\n", r.unpruned_p50, r.cost);
  std::printf("  pruned   p50 %8.3f ms  (%llu placements pruned)\n", r.pruned_p50,
              (unsigned long long)r.pruned_stats.pruned_placements);
  std::printf("  speedup %.2fx\n", speedup);
  benchjson::emit("symmetry",
                  {benchjson::kv("family", family),
                   benchjson::kv("repeats", static_cast<std::uint64_t>(repeats)),
                   benchjson::kv("classes", static_cast<std::uint64_t>(r.classes)),
                   benchjson::kv("unpruned_p50_ms", r.unpruned_p50),
                   benchjson::kv("pruned_p50_ms", r.pruned_p50),
                   benchjson::kv("speedup", speedup),
                   benchjson::kv("cost_lb", r.cost)},
                  &r.pruned_stats);
  return 0;
}

}  // namespace

int main() {
  constexpr int kRepeats = 9;
  constexpr int kMiddles = 6;

  const auto star = model::load_problem(domains::media::domain_text(),
                                        star_problem(kMiddles));
  const PairResult star_r = run_pair(star->problem, star->scenario, kRepeats);
  int rc = emit_family("star", star_r, kRepeats);

  const auto large = domains::media::large();
  const spec::LevelScenario scen = domains::media::scenario('C');
  const PairResult large_r = run_pair(large->problem, scen, kRepeats);
  rc |= emit_family("transit-stub", large_r, kRepeats);
  return rc;
}
