// Benchmark inputs: the Table-2 instances as .sk text, the request classes of
// each workload with their fixed mix weights, the seeded request order, and
// the seeded damage pool of the drift workload.  Everything here is a pure
// function of the workload name and the --seed argument.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "core/plan.hpp"
#include "core/planner.hpp"
#include "model/compile.hpp"
#include "repair/repair.hpp"

namespace perfbench {

/// One request class: a Table-2 row (network x level scenario) solved in one
/// planner mode.  `band` names the latency band the class belongs to; the mix
/// rule is stated over bands (see mix_rule()).
struct Class {
  std::string name;  // e.g. "Small/C"
  std::string band;
  int weight = 1;    // copies per shuffled block of the request order
  char net = 'S';    // 'T'iny, 'S'mall, 'L'arge
  char scenario = 'C';
  sekitei::core::PlannerOptions::Mode mode = sekitei::core::PlannerOptions::Mode::Leveled;
  double expected_cost = 0.0;  // Table-2 cost lower bound
  std::string problem_text;    // network + problem + scenario blocks
};

struct Workload {
  std::string name;
  std::vector<Class> classes;  // ordered by latency band, fastest first
};

/// The media-delivery component library every request plans against.
[[nodiscard]] const std::string& domain_text();

/// The .sk text (network, problem and scenario blocks) of a Table-2 row.
[[nodiscard]] std::string instance_text(char net, char scenario);

/// The Table-2 cost of a row: Tiny/B 7.00, Tiny/C-E 40.30, Small/B and
/// Large/B 10.00, Small and Large C-E 63.85.
[[nodiscard]] double table2_cost(char net, char scenario);

/// The classes of `name` (search, cp, wire or drift); raises on an unknown
/// workload.  Drift has a single class, Large/C, whose requests differ only
/// in their damage delta.
[[nodiscard]] Workload make_workload(const std::string& name);

/// `n` item indices in consecutive blocks, shuffled with a generator seeded
/// from `seed`.  A block holds every entry of every group once.  A group's
/// entries are spread evenly through the block: its k-th entry (in shuffled
/// order) of m lands at a random point of the block's k-th m-th.  Any window
/// therefore holds each group's share to within one entry, and the heavy
/// classes never cluster, which would make one seed's requests contend more
/// than another's.
[[nodiscard]] std::vector<std::uint32_t> request_order(
    const std::vector<std::vector<std::uint32_t>>& groups, std::uint64_t seed, std::size_t n);

/// One delta of the drift workload's damage pool.
struct Delta {
  std::uint64_t seed = 0;  // the repair::seeded_drift seed that produced it
  sekitei::repair::Damage damage;
};

/// The drift damage pool: `size` repair::seeded_drift deltas of `plan`,
/// drawn from seeds derived from `seed`.  A few deltas repair an order of
/// magnitude slower than the rest, and which ones depends on the damaged
/// element and on how far its capacity drops, so the pool is stratified:
/// every kind of delta (what fails or degrades, and where) gets its expected
/// share of the pool, and within a kind the deltas are spread evenly over
/// the capacity drops the seeds produced.  The pool's latency mix then
/// barely moves from one seed to the next.
[[nodiscard]] std::vector<Delta> drift_pool(const sekitei::model::CompiledProblem& cp,
                                            const sekitei::core::Plan& plan,
                                            std::uint64_t seed, std::size_t size);

/// Human-readable rendering of a damage delta (the determinism tests compare
/// pools through it).  Without `values` only what fails or degrades, and
/// where, is rendered: the delta's kind.
[[nodiscard]] std::string describe(const sekitei::model::CompiledProblem& cp,
                                   const sekitei::repair::Damage& damage, bool values = true);

/// The mix rule: with bands ordered fastest first and each band's share taken
/// from the class weights, the 50th and 95th percentiles must each fall
/// inside one band, and inside the share of that band's largest class
/// whichever order the band's classes run in, at least `margin` (a share of
/// all samples) away from either edge.  Returns the empty string when the
/// rule holds, else the reason it does not.
[[nodiscard]] std::string mix_rule(const Workload& w, double margin = 0.05);

}  // namespace perfbench
