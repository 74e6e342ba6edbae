// The four benchmark workloads and their two run kinds: the untraced closed
// loop that yields the end-to-end metrics, and the traced per-layer replay.
#pragma once

#include <cstdint>
#include <string>

namespace perfbench {

struct RunOptions {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string workdir;  // trace files and the daemon's domain file go here
  std::string netd;     // path of the sekitei_netd binary (wire workload)
};

/// Runs one workload and prints a detail record followed by the result line
/// {"correct":...,"attempted":...,"failed":...,"metrics":{...}} on stdout.
/// Returns the process exit code: 0 when every answer was correct and every
/// exact count repeated, 1 otherwise.
int run(const RunOptions& opt);

/// Prints the seeded inputs of a workload (request order prefix, and for
/// drift the damage pool) as one JSON object; the benchmark's own tests use
/// it to check determinism.
int dump_inputs(const std::string& workload, std::uint64_t seed);

}  // namespace perfbench
