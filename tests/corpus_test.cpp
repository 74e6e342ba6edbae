// Malformed-input corpus: every file under tests/corpus/ must make the
// loader raise sekitei::Error — never crash, hang, or silently load.  Files
// named domain_*.sk are malformed *domain* texts (paired with a valid
// problem); everything else is a malformed *problem* text (paired with a
// valid domain).  The corpus covers truncation, unknown keywords, dangling
// references and non-finite literals (1e999 overflows to inf, `nan` where a
// number is required).
//
// tests/corpus/repros/ holds the *valid* near-miss corpus: hand-minimized
// fuzzing repro pairs (<stem>.domain.sk/.problem.sk) with golden verdicts,
// replayed through the differential oracle battery (src/testing/oracles).
#include <algorithm>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "model/textio.hpp"
#include "support/error.hpp"
#include "testing/oracles.hpp"

#ifndef SEKITEI_TEST_CORPUS_DIR
#error "SEKITEI_TEST_CORPUS_DIR must point at tests/corpus (set by CMake)"
#endif

namespace sekitei::model {
namespace {

// A minimal well-formed domain/problem pair: the half that is *not* under
// test is always valid, so a raised Error is attributable to the corpus file.
constexpr const char* kValidDomain = R"(
interface M {
  property ibw degradable;
  cross {
    M.ibw' := min(M.ibw, link.lbw);
    link.lbw -= min(M.ibw, link.lbw);
  }
  cost 1 + M.ibw / 10;
}
component Server {
  implements M;
  effects { M.ibw := 100; }
  cost 1;
}
component Client {
  requires M;
  conditions { M.ibw >= 10; }
  cost 1;
}
)";

constexpr const char* kValidProblem = R"(
network {
  node n0 { cpu 30; }
  node n1 { cpu 30; }
  link n0 n1 wan { lbw 70; }
}
problem {
  stream M.ibw at n0 = [0, 100];
  preplaced Server at n0;
  goal Client at n1;
}
scenario {
  levels M.ibw { 10, 100 }
}
)";

std::string slurp(const std::filesystem::path& path) {
  std::ifstream in(path);
  EXPECT_TRUE(in.is_open()) << "cannot open " << path;
  std::ostringstream os;
  os << in.rdbuf();
  return os.str();
}

std::vector<std::filesystem::path> corpus_files() {
  std::vector<std::filesystem::path> files;
  for (const auto& entry : std::filesystem::directory_iterator(SEKITEI_TEST_CORPUS_DIR)) {
    if (entry.path().extension() == ".sk") files.push_back(entry.path());
  }
  std::sort(files.begin(), files.end());
  return files;
}

TEST(CorpusTest, TheValidPairLoads) {
  // Guards the corpus harness itself: if this pair did not load, every
  // corpus file would "pass" for the wrong reason.
  EXPECT_NO_THROW(load_problem(kValidDomain, kValidProblem));
}

TEST(CorpusTest, EveryExampleInstanceLoads) {
  // The guards that make hostile files fail closed (e.g. the expression
  // depth cap) must not refuse a real instance.
  const std::filesystem::path data(SEKITEI_TEST_DATA_DIR);
  const std::string domain = slurp(data / "media.sk");
  std::size_t problems = 0;
  for (const auto& entry : std::filesystem::directory_iterator(data)) {
    if (entry.path().extension() != ".sk" || entry.path().filename() == "media.sk") continue;
    SCOPED_TRACE(entry.path().filename().string());
    EXPECT_NO_THROW(load_problem(domain, slurp(entry.path())));
    ++problems;
  }
  EXPECT_GE(problems, 3u);
}

TEST(CorpusTest, TheCorpusIsNotEmpty) {
  EXPECT_GE(corpus_files().size(), 15u);
}

TEST(CorpusTest, EveryMalformedFileRaisesError) {
  for (const auto& path : corpus_files()) {
    SCOPED_TRACE(path.filename().string());
    const std::string text = slurp(path);
    const bool is_domain = path.filename().string().rfind("domain_", 0) == 0;
    if (is_domain) {
      EXPECT_THROW(load_problem(text, kValidProblem), Error);
    } else {
      EXPECT_THROW(load_problem(kValidDomain, text), Error);
    }
  }
}

// ---- repro corpus: golden verdicts for minimized fuzzing instances --------

struct ReproGolden {
  const char* stem;
  testing::Verdict optimal;
  testing::Verdict greedy;
  bool preflight_infeasible;
};

// Every pair must replay with exactly this signature AND zero oracle
// disagreements.  boundary_feasible pins the strict-floor carve-out: a
// concretely feasible plan the leveled abstraction prunes by design.
constexpr ReproGolden kReproGoldens[] = {
    {"boundary_feasible", testing::Verdict::Infeasible, testing::Verdict::Solved, true},
    {"preflight_infeasible", testing::Verdict::Infeasible, testing::Verdict::Infeasible, true},
    {"greedy_gap", testing::Verdict::Solved, testing::Verdict::Solved, false},
    // Boundary-exact optimal route: the cp oracle (run inside replay_text)
    // pins the CP branch-and-bound to the RG's optimum on this pair.
    {"cp_nearmiss", testing::Verdict::Solved, testing::Verdict::Solved, false},
};

TEST(ReproCorpus, GoldenVerdictsHold) {
  const std::filesystem::path dir =
      std::filesystem::path(SEKITEI_TEST_CORPUS_DIR) / "repros";
  for (const ReproGolden& g : kReproGoldens) {
    SCOPED_TRACE(g.stem);
    const std::string domain = slurp(dir / (std::string(g.stem) + ".domain.sk"));
    const std::string problem = slurp(dir / (std::string(g.stem) + ".problem.sk"));
    const sekitei::testing::OracleReport report =
        sekitei::testing::replay_text(domain, problem);
    EXPECT_EQ(report.optimal.verdict, g.optimal)
        << "got " << sekitei::testing::verdict_name(report.optimal.verdict);
    EXPECT_EQ(report.greedy.verdict, g.greedy)
        << "got " << sekitei::testing::verdict_name(report.greedy.verdict);
    EXPECT_EQ(report.preflight_infeasible, g.preflight_infeasible);
    EXPECT_FALSE(report.failed()) << report.disagreements.front().oracle << ": "
                                  << report.disagreements.front().detail;
  }
}

TEST(ReproCorpus, EveryPairIsCoveredByAGolden) {
  // A repro promoted into the corpus without a golden row is dead weight —
  // fail loudly so additions stay asserted.
  const std::filesystem::path dir =
      std::filesystem::path(SEKITEI_TEST_CORPUS_DIR) / "repros";
  std::size_t pairs = 0;
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    const std::string name = entry.path().filename().string();
    if (name.size() < sizeof(".domain.sk") ||
        name.rfind(".domain.sk") != name.size() - (sizeof(".domain.sk") - 1)) {
      continue;
    }
    ++pairs;
    const std::string stem = name.substr(0, name.size() - (sizeof(".domain.sk") - 1));
    const bool known = std::any_of(std::begin(kReproGoldens), std::end(kReproGoldens),
                                   [&stem](const ReproGolden& g) { return stem == g.stem; });
    EXPECT_TRUE(known) << "repro pair '" << stem << "' has no golden verdict row";
  }
  EXPECT_EQ(pairs, std::size(kReproGoldens));
}

}  // namespace
}  // namespace sekitei::model
